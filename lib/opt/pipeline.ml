let round p = Dce.run (Peephole.run (Cse.run (Constprop.run p)))

(* at most this many rounds *)
let rounds = 4

let run p =
  let rec go i p =
    if i >= rounds then p
    else begin
      let p' = round p in
      if Ir.Prog.static_size p' = Ir.Prog.static_size p then p'
      else go (i + 1) p'
    end
  in
  go 0 p
