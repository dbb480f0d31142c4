type t = { idom : int array }

(* walk up in terms of postorder numbers until the two fingers meet *)
let rec intersect post idom a b =
  if a = b then a
  else if post.(a) < post.(b) then intersect post idom idom.(a) b
  else intersect post idom a idom.(b)

let compute (dfs : Dfs.t) (preds : Ir.Func.table) =
  let post = dfs.Dfs.post in
  let idom = Array.make (Array.length post) (-1) in
  idom.(Ir.Func.entry) <- Ir.Func.entry;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length dfs.Dfs.rpo - 1 do
      let l = dfs.Dfs.rpo.(i) in
      if l <> Ir.Func.entry then begin
        (* the meet of the predecessors processed so far, in row order *)
        let meet = ref (-1) in
        for k = preds.Ir.Func.first.(l) to preds.Ir.Func.first.(l + 1) - 1 do
          let p = preds.Ir.Func.adj.(k) in
          if idom.(p) <> -1 then
            meet := if !meet = -1 then p else intersect post idom !meet p
        done;
        if !meet <> -1 && idom.(l) <> !meet then begin
          idom.(l) <- !meet;
          changed := true
        end
      end
    done
  done;
  { idom }

let rec climb idom a x =
  x = a || (idom.(x) <> x && idom.(x) <> -1 && climb idom a idom.(x))

let dominates t a b = t.idom.(b) <> -1 && climb t.idom a b
