type t = {
  dep_freq : (int * Ir.Block.label * Ir.Block.label * Ir.Reg.t, int) Hashtbl.t;
  mutable invocations : (int, int) Hashtbl.t;
  mutable inclusive_insns : (int, int) Hashtbl.t;
}

let create () =
  {
    dep_freq = Hashtbl.create 256;
    invocations = Hashtbl.create 16;
    inclusive_insns = Hashtbl.create 16;
  }

let bump tbl key =
  let cur = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (cur + 1)

let add tbl key n =
  let cur = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (cur + n)

let lookup tbl key = try Hashtbl.find tbl key with Not_found -> 0

let dep_count t fid u v r = lookup t.dep_freq (fid, u, v, r)

let avg_invocation_size t fid =
  let calls = lookup t.invocations fid in
  if calls = 0 then infinity
  else float_of_int (lookup t.inclusive_insns fid) /. float_of_int calls

(* internal helpers used by Run *)
let bump_dep t fid u v r = bump t.dep_freq (fid, u, v, r)
let bump_invocation t fid = bump t.invocations fid
let add_inclusive t fid n = add t.inclusive_insns fid n
