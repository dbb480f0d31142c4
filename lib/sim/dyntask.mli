(** Walking a dynamic trace as dynamic task instances (paper §2.2): an
    instance starts at a task entry and runs until control leaves the
    task's block set or re-enters the entry; callees of calls marked for
    inclusion execute inside the running instance.

    No list of instances is kept.  A walk is a cursor that finds each
    instance's boundary as the sequencer does, by walking on from the
    previous one, and holds the current instance's fields as plain ints,
    none with a width limit.  Besides the trace it reads a {!program},
    sized by the program and built once per (plan, trace).  {!get} and
    {!instances} are record views for observers, tests and the reference
    engine. *)

type succ_kind =
  | Fallthrough of Ir.Block.label
      (** next instance starts at this (task-entry) block, same function *)
  | Calls of int  (** next instance is the entry task of this fid *)
  | Returns       (** next instance is the caller's continuation (via RAS) *)
  | Program_end

type instance = {
  fid : int;
  task : int;             (** task index within the function's partition *)
  first : int;            (** first trace-event index *)
  last : int;             (** last trace-event index, inclusive *)
  size : int;             (** dynamic instructions (terminators included) *)
  ct : int;               (** dynamic control-transfer instructions
                              (conditional branches, switches, calls,
                              returns — not plain jumps) *)
  kind : succ_kind;
}

exception Not_closed of string
(** Raised by {!next} when the trace enters a block that is no task entry
    (a partition closure bug) or calls a function it does not name. *)

type program
(** The partitions, indexed by the trace's fids, and the callee fid of
    every call block; read-only, so walks and domains may share it. *)

val program : Interp.Trace.t -> parts:Core.Task.partition array -> program

type t
(** A walk over one trace's instances, in program order. *)

val walk : program -> Interp.Trace.t -> t
(** A walk before the first instance of the trace [program] was built
    from. *)

val next : t -> bool
(** Moves to the next instance; [false] once the trace is exhausted,
    leaving the walk at the last instance.  Allocates nothing.
    @raise Not_closed at the event where the instance breaks off. *)

(** {2 Fields of the current instance}  None allocates. *)

val index : t -> int
(** The instance's number, from 0 ([-1] before the first [next]). *)

val fid : t -> int
val task : t -> int
val first : t -> int
val last : t -> int
val size : t -> int
val ct : t -> int

(** The successor kind without its argument: an immediate value. *)
type succ =
  | To_block   (** {!Fallthrough}: the argument is the block label *)
  | To_callee  (** {!Calls}: the argument is the callee's fid *)
  | To_caller  (** {!Returns} *)
  | To_end     (** {!Program_end} *)

val succ : t -> succ

val succ_arg : t -> int
(** The block label or callee fid of {!To_block} and {!To_callee}; 0 for
    the others. *)

val get : t -> instance
(** The current instance as a record. *)

(** {2 Whole walks}  [parts] is indexed by the trace's fids. *)

val instances :
  Interp.Trace.t -> parts:Core.Task.partition array -> instance array

val count : Interp.Trace.t -> parts:Core.Task.partition array -> int

val check_instances :
  Interp.Trace.t -> parts:Core.Task.partition array -> (unit, string) result
(** Sanity: instances tile the event range exactly and sizes add up. *)
