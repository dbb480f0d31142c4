(** Execution profiles, gathered by the interpreter.

    The paper's compiler profiles SPEC95 runs to prioritise data
    dependences by execution frequency and to size function invocations
    for the task-size heuristic (CALL_THRESH is a *dynamic* instruction
    count).  Functions are named by their fid, the index the trace gives
    them ({!Trace.fid}). *)

type t

val dep_count : t -> int -> Ir.Block.label -> Ir.Block.label -> Ir.Reg.t -> int
(** [dep_count t fid producer consumer reg]: how many times block
    [consumer] of function [fid] read [reg] while the register's last write
    had been made by a different block [producer] of the same function (a
    dynamic cross-block def-use pair); 0 for pairs that never occurred. *)

val avg_invocation_size : t -> int -> float
(** Average dynamic instructions per invocation of the function (inclusive
    of callees); [infinity] if it was never invoked (so that the task-size
    heuristic never marks an unprofiled call for inclusion). *)

(**/**)

(* Recording hooks for the interpreter.  [bump_dep]'s arguments must lie
   within the packed trace's widths (fid below 2^12, blocks below 2^16),
   which holds for any block the trace builder accepted. *)
val create : nfuncs:int -> t
val bump_dep : t -> int -> Ir.Block.label -> Ir.Block.label -> Ir.Reg.t -> unit
val bump_invocation : t -> int -> unit
val add_inclusive : t -> int -> int -> unit
