(** Execution profiles, gathered by the interpreter.

    The paper's compiler profiles SPEC95 runs to prioritise data
    dependences by execution frequency and to size function invocations
    for the task-size heuristic (CALL_THRESH is a *dynamic* instruction
    count). *)

type t = {
  dep_freq : (int * Ir.Block.label * Ir.Block.label * Ir.Reg.t, int) Hashtbl.t;
      (** dynamic register def-use pairs crossing blocks:
          (fid, producer block, consumer block, register) *)
  mutable invocations : (int, int) Hashtbl.t;   (** calls per fid *)
  mutable inclusive_insns : (int, int) Hashtbl.t;
      (** total dynamic instructions per fid, including callees *)
}

val create : unit -> t

val dep_count : t -> int -> Ir.Block.label -> Ir.Block.label -> Ir.Reg.t -> int

val avg_invocation_size : t -> int -> float
(** Average dynamic instructions per invocation of the function (inclusive
    of callees); [infinity] if it was never invoked (so that the task-size
    heuristic never marks an unprofiled call for inclusion). *)

(**/**)

(* Recording hooks for the interpreter. *)
val bump_dep : t -> int -> Ir.Block.label -> Ir.Block.label -> Ir.Reg.t -> unit
val bump_invocation : t -> int -> unit
val add_inclusive : t -> int -> int -> unit
