(* Register sets as bit vectors: registers 0-31 in [lo], 32-63 in [hi]
   (an OCaml int holds 63 bits, so one int cannot hold all 64).  Every
   operation that would rebuild an argument unchanged returns that
   argument, so a fixpoint round that changes nothing allocates nothing. *)
module Regset = struct
  type t = { lo : int; hi : int }

  let () =
    if Ir.Reg.count > 64 then
      failwith
        (Printf.sprintf "Dataflow.Regset: %d registers do not fit in 64 bits"
           Ir.Reg.count)

  let empty = { lo = 0; hi = 0 }
  let in_range r = r >= 0 && r < 64

  let mem r s =
    in_range r
    && (if r < 32 then (s.lo lsr r) land 1 else (s.hi lsr (r - 32)) land 1)
       <> 0

  let make lo hi s = if lo = s.lo && hi = s.hi then s else { lo; hi }

  let add r s =
    if not (in_range r) then
      invalid_arg (Printf.sprintf "Dataflow.Regset.add: register %d" r);
    if r < 32 then make (s.lo lor (1 lsl r)) s.hi s
    else make s.lo (s.hi lor (1 lsl (r - 32))) s

  let remove r s =
    if not (mem r s) then s
    else if r < 32 then { s with lo = s.lo land lnot (1 lsl r) }
    else { s with hi = s.hi land lnot (1 lsl (r - 32)) }

  let union a b =
    let lo = a.lo lor b.lo and hi = a.hi lor b.hi in
    if lo = b.lo && hi = b.hi then b else make lo hi a

  let diff a b = make (a.lo land lnot b.lo) (a.hi land lnot b.hi) a
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let of_list l = List.fold_left (fun s r -> add r s) empty l
  let all = of_list (List.init Ir.Reg.count Fun.id)

  let elements s =
    let acc = ref [] in
    for r = 63 downto 0 do
      if mem r s then acc := r :: !acc
    done;
    !acc
end

let term_uses = function
  | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> [ c ]
  | Ir.Block.Call (_, _) ->
    List.init Ir.Reg.max_args (fun i -> Ir.Reg.arg i)
  | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> []

(* --- liveness ----------------------------------------------------------- *)

type liveness = {
  live_in : Regset.t array;
  live_out : Regset.t array;
}

let block_use_def ~call_uses (b : Ir.Block.t) =
  (* use = registers read before any write in the block *)
  let use = ref Regset.empty and def = ref Regset.empty in
  let read r = if not (Regset.mem r !def) then use := Regset.add r !use in
  Array.iter
    (fun i ->
      Ir.Insn.iter_uses read i;
      match Ir.Insn.def i with -1 -> () | d -> def := Regset.add d !def)
    b.Ir.Block.insns;
  (match b.Ir.Block.term with
  | Ir.Block.Call (_, _) ->
    use := Regset.union !use (Regset.diff call_uses !def);
    def := Regset.add Ir.Reg.rv !def
  | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> read c
  | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> ());
  (!use, !def)

let default_call_uses =
  Regset.of_list (List.init Ir.Reg.max_args (fun i -> Ir.Reg.arg i))

let liveness ?(exit_live = Regset.all) ?(call_uses = default_call_uses) f =
  let n = Ir.Func.num_blocks f in
  let use = Array.make n Regset.empty in
  let def = Array.make n Regset.empty in
  (* what flows into each block's live-out before its successors: the exit
     set at [Ret]/[Halt], nothing elsewhere *)
  let base = Array.make n Regset.empty in
  let succs = Ir.Func.succ_table f in
  for l = 0 to n - 1 do
    let b = Ir.Func.block f l in
    let u, d = block_use_def ~call_uses b in
    use.(l) <- u;
    def.(l) <- d;
    match b.Ir.Block.term with
    | Ir.Block.Ret | Ir.Block.Halt -> base.(l) <- exit_live
    | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Call _ ->
      ()
  done;
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let out = ref base.(l) in
      for k = succs.Ir.Func.first.(l) to succs.Ir.Func.first.(l + 1) - 1 do
        out := Regset.union !out live_in.(succs.Ir.Func.adj.(k))
      done;
      let out = !out in
      let inn = Regset.union use.(l) (Regset.diff out def.(l)) in
      if not (Regset.equal out live_out.(l) && Regset.equal inn live_in.(l))
      then begin
        live_out.(l) <- out;
        live_in.(l) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

(* registers are architecturally global: a callee may read any of them *)
let sound_live_in f = (liveness ~call_uses:Regset.all f).live_in

(* --- cross-block dependence edges ---------------------------------------- *)

(* Forward search from each defining block: a register [d] defines reaches
   a block's entry when some path from [d] gets there through blocks that
   do not define it (reaching definitions, one definition block at a
   time).  All of [d]'s registers are searched at once, one bit each, in
   two int words per block like {!Regset}; a block passes on what reached
   it minus what it defines.  The edges come out in ascending
   (producer, consumer, register) order. *)
let block_dep_edges f =
  let n = Ir.Func.num_blocks f in
  let def = Array.make n Regset.empty and exposed = Array.make n Regset.empty in
  for l = 0 to n - 1 do
    let u, d = block_use_def ~call_uses:default_call_uses (Ir.Func.block f l) in
    def.(l) <- d;
    exposed.(l) <- Regset.remove Ir.Reg.zero u
  done;
  let succs = Ir.Func.succ_table f in
  let reach_lo = Array.make n 0 and reach_hi = Array.make n 0 in
  let stack = Array.make (max 1 n) 0 and queued = Array.make n false in
  let depth = ref 0 in
  (* what reaches the entries of [b]'s successors gains [lo]/[hi]; the
     search goes on from each one that grew *)
  let pass_on b lo hi =
    for k = succs.Ir.Func.first.(b) to succs.Ir.Func.first.(b + 1) - 1 do
      let t = succs.Ir.Func.adj.(k) in
      let lo' = reach_lo.(t) lor lo and hi' = reach_hi.(t) lor hi in
      if lo' <> reach_lo.(t) || hi' <> reach_hi.(t) then begin
        reach_lo.(t) <- lo';
        reach_hi.(t) <- hi';
        if not queued.(t) then begin
          queued.(t) <- true;
          stack.(!depth) <- t;
          incr depth
        end
      end
    done
  in
  let edges = ref [] in
  for d = n - 1 downto 0 do
    let dd = def.(d) in
    if not (Regset.equal dd Regset.empty) then begin
      Array.fill reach_lo 0 n 0;
      Array.fill reach_hi 0 n 0;
      pass_on d dd.Regset.lo dd.Regset.hi;
      while !depth > 0 do
        decr depth;
        let b = stack.(!depth) in
        queued.(b) <- false;
        let lo = reach_lo.(b) land lnot def.(b).Regset.lo
        and hi = reach_hi.(b) land lnot def.(b).Regset.hi in
        if lo <> 0 || hi <> 0 then pass_on b lo hi
      done;
      for u = n - 1 downto 0 do
        if u <> d then begin
          let lo = reach_lo.(u) land exposed.(u).Regset.lo
          and hi = reach_hi.(u) land exposed.(u).Regset.hi in
          for r = 31 downto 0 do
            if (hi lsr r) land 1 <> 0 then edges := (d, u, r + 32) :: !edges
          done;
          for r = 31 downto 0 do
            if (lo lsr r) land 1 <> 0 then edges := (d, u, r) :: !edges
          done
        end
      done
    end
  done;
  !edges
