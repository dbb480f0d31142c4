(* Dependence counts are keyed by one packed int — fid, producer block,
   consumer block, register — within the widths the packed trace already
   enforces (Trace.Builder rejects a fid from 2^12 and a block from 2^16
   on), so counting a pair the table already holds allocates nothing. *)

type t = {
  dep_freq : (int, int ref) Hashtbl.t;
  invocations : int array;  (* calls per fid *)
  inclusive_insns : int array;  (* dynamic instructions per fid, callees included *)
}

let fid_bits = 12
let blk_bits = 16
let reg_bits = 6
let () = assert (Ir.Reg.count <= 1 lsl reg_bits)

let key fid u v r =
  (((((fid lsl blk_bits) lor u) lsl blk_bits) lor v) lsl reg_bits) lor r

let in_range fid u v r =
  fid >= 0 && fid < 1 lsl fid_bits
  && u >= 0 && u < 1 lsl blk_bits
  && v >= 0 && v < 1 lsl blk_bits
  && r >= 0 && r < Ir.Reg.count

let create ~nfuncs =
  {
    dep_freq = Hashtbl.create 256;
    invocations = Array.make nfuncs 0;
    inclusive_insns = Array.make nfuncs 0;
  }

let dep_count t fid u v r =
  if not (in_range fid u v r) then 0
  else match Hashtbl.find t.dep_freq (key fid u v r) with
    | n -> !n
    | exception Not_found -> 0

let avg_invocation_size t fid =
  let calls =
    if fid >= 0 && fid < Array.length t.invocations then t.invocations.(fid)
    else 0
  in
  if calls = 0 then infinity
  else float_of_int t.inclusive_insns.(fid) /. float_of_int calls

(* internal helpers used by Run *)
let bump_dep t fid u v r =
  let k = key fid u v r in
  match Hashtbl.find t.dep_freq k with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.dep_freq k (ref 1)

let bump_invocation t fid = t.invocations.(fid) <- t.invocations.(fid) + 1

let add_inclusive t fid n =
  t.inclusive_insns.(fid) <- t.inclusive_insns.(fid) + n
