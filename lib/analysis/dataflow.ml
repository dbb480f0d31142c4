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

  let inter a b =
    let lo = a.lo land b.lo and hi = a.hi land b.hi in
    if lo = b.lo && hi = b.hi then b else make lo hi a

  let diff a b = make (a.lo land lnot b.lo) (a.hi land lnot b.hi) a
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let of_list l = List.fold_left (fun s r -> add r s) empty l

  let elements s =
    let acc = ref [] in
    for r = 63 downto 0 do
      if mem r s then acc := r :: !acc
    done;
    !acc
end

type site = {
  blk : Ir.Block.label;
  idx : int;
  reg : Ir.Reg.t;
}

let all_regs =
  Regset.of_list (List.init Ir.Reg.count (fun i -> i))

let term_uses = function
  | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> [ c ]
  | Ir.Block.Call (_, _) ->
    List.init Ir.Reg.max_args (fun i -> Ir.Reg.arg i)
  | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> []

let term_defs = function
  | Ir.Block.Call (_, _) -> [ Ir.Reg.rv ]
  | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
  | Ir.Block.Halt -> []

(* --- liveness ----------------------------------------------------------- *)

type liveness = {
  live_in : Regset.t array;
  live_out : Regset.t array;
}

let block_use_def ~call_uses (b : Ir.Block.t) =
  (* use = registers read before any write in the block *)
  let use = ref Regset.empty in
  let def = ref Regset.empty in
  let step uses defs =
    List.iter
      (fun r -> if not (Regset.mem r !def) then use := Regset.add r !use)
      uses;
    List.iter (fun r -> def := Regset.add r !def) defs
  in
  Array.iter (fun i -> step (Ir.Insn.uses i) (Ir.Insn.defs i)) b.Ir.Block.insns;
  (match b.Ir.Block.term with
  | Ir.Block.Call (_, _) ->
    use := Regset.union !use (Regset.diff call_uses !def);
    step [] (term_defs b.Ir.Block.term)
  | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
  | Ir.Block.Halt ->
    step (term_uses b.Ir.Block.term) (term_defs b.Ir.Block.term));
  (!use, !def)

let default_call_uses =
  Regset.of_list (List.init Ir.Reg.max_args (fun i -> Ir.Reg.arg i))

let liveness ?(exit_live = all_regs) ?(call_uses = default_call_uses) f =
  let n = Ir.Func.num_blocks f in
  let use = Array.make n Regset.empty in
  let def = Array.make n Regset.empty in
  (* what flows into each block's live-out before its successors: the exit
     set at [Ret]/[Halt], nothing elsewhere *)
  let base = Array.make n Regset.empty in
  let succs = Array.make n [||] in
  for l = 0 to n - 1 do
    let b = Ir.Func.block f l in
    let u, d = block_use_def ~call_uses b in
    use.(l) <- u;
    def.(l) <- d;
    succs.(l) <- Array.of_list (Ir.Block.successors b);
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
      Array.iter (fun s -> out := Regset.union !out live_in.(s)) succs.(l);
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

(* --- reaching definitions / def-use chains ------------------------------ *)

module Iset = Set.Make (Int)

type defuse = {
  sites : site array;
  pairs : (site * site) list;
}

let def_use f =
  let n = Ir.Func.num_blocks f in
  (* enumerate definition sites *)
  let sites = ref [] in
  let count = ref 0 in
  for l = 0 to n - 1 do
    let b = Ir.Func.block f l in
    Array.iteri
      (fun idx insn ->
        List.iter
          (fun reg ->
            sites := { blk = l; idx; reg } :: !sites;
            incr count)
          (Ir.Insn.defs insn))
      b.Ir.Block.insns;
    List.iter
      (fun reg ->
        sites :=
          { blk = l; idx = Array.length b.Ir.Block.insns; reg } :: !sites;
        incr count)
      (term_defs b.Ir.Block.term)
  done;
  let sites = Array.of_list (List.rev !sites) in
  let site_ids_by_reg = Array.make Ir.Reg.count [] in
  Array.iteri
    (fun id s -> site_ids_by_reg.(s.reg) <- id :: site_ids_by_reg.(s.reg))
    sites;
  (* gen/kill per block: gen = last def of each register; kill = every def of
     a register the block writes *)
  let gen = Array.make n Iset.empty in
  let kill = Array.make n Iset.empty in
  let last_def_in_block = Hashtbl.create 64 in
  Array.iteri
    (fun id s ->
      Hashtbl.replace last_def_in_block (s.blk, s.reg) id)
    sites;
  Array.iteri
    (fun id s ->
      if Hashtbl.find last_def_in_block (s.blk, s.reg) = id then
        gen.(s.blk) <- Iset.add id gen.(s.blk);
      kill.(s.blk) <-
        List.fold_left
          (fun acc other -> if sites.(other).blk <> s.blk then Iset.add other acc else acc)
          kill.(s.blk) site_ids_by_reg.(s.reg))
    sites;
  let in_ = Array.make n Iset.empty in
  let out = Array.make n Iset.empty in
  let preds = Ir.Func.predecessors f in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = 0 to n - 1 do
      let inn =
        List.fold_left (fun acc p -> Iset.union acc out.(p)) Iset.empty preds.(l)
      in
      let o = Iset.union gen.(l) (Iset.diff inn kill.(l)) in
      if not (Iset.equal inn in_.(l) && Iset.equal o out.(l)) then begin
        in_.(l) <- inn;
        out.(l) <- o;
        changed := true
      end
    done
  done;
  (* walk each block, resolving uses against local defs or in-set *)
  let pairs = ref [] in
  for l = 0 to n - 1 do
    let b = Ir.Func.block f l in
    let local : (Ir.Reg.t, site) Hashtbl.t = Hashtbl.create 16 in
    let resolve_use idx reg =
      if reg <> Ir.Reg.zero then begin
        let use_site = { blk = l; idx; reg } in
        match Hashtbl.find_opt local reg with
        | Some def_site -> pairs := (def_site, use_site) :: !pairs
        | None ->
          Iset.iter
            (fun id ->
              if sites.(id).reg = reg then
                pairs := (sites.(id), use_site) :: !pairs)
            in_.(l)
      end
    in
    let record_def idx reg = Hashtbl.replace local reg { blk = l; idx; reg } in
    Array.iteri
      (fun idx insn ->
        List.iter (resolve_use idx) (Ir.Insn.uses insn);
        List.iter (record_def idx) (Ir.Insn.defs insn))
      b.Ir.Block.insns;
    let tidx = Array.length b.Ir.Block.insns in
    List.iter (resolve_use tidx) (term_uses b.Ir.Block.term)
  done;
  { sites; pairs = !pairs }

let block_dep_edges du =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (d, u) ->
      if d.blk <> u.blk then Hashtbl.replace tbl (d.blk, u.blk, d.reg) ())
    du.pairs;
  List.sort compare (Hashtbl.fold (fun (a, b, r) () acc -> (a, b, r) :: acc) tbl [])
