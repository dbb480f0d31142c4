(** Chopping a dynamic trace into dynamic task instances (paper §2.2):
    an instance starts at a task entry and runs until control leaves the
    task's block set or re-enters the entry; callees of calls marked for
    inclusion execute inside the running instance.

    The chop is a packed table of int arrays, three words per instance:
    its first event (its last is the next instance's first minus one),
    one word packing fid, task, successor and the successor's argument,
    and one packing size and control-transfer count.  The engine reads
    the fields through the accessors; {!get} unpacks one instance into an
    {!instance} record, a view for observers, tests and the reference
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

type t
(** The instances of one trace, in program order. *)

exception Not_closed of string
(** Raised when the trace enters a block that is no task entry — a partition
    closure bug. *)

val chop : Interp.Trace.t -> parts:Core.Task.partition array -> t
(** [parts] is indexed by fid.  Allocates nothing per event; per instance
    only the table's growth.  Raises [Invalid_argument] if a field does not
    fit its packed width (fid, task, block label and callee fid below
    2{^20}, size and control transfers below 2{^31}). *)

val count : t -> int

(** {2 Fields of instance [k]}, [0 <= k < count t]; none allocates. *)

val fid : t -> int -> int
val task : t -> int -> int
val first : t -> int -> int
val last : t -> int -> int
val size : t -> int -> int
val ct : t -> int -> int

(** The successor kind without its argument: an immediate value. *)
type succ =
  | To_block   (** {!Fallthrough}: the argument is the block label *)
  | To_callee  (** {!Calls}: the argument is the callee's fid *)
  | To_caller  (** {!Returns} *)
  | To_end     (** {!Program_end} *)

val succ : t -> int -> succ

val succ_arg : t -> int -> int
(** The block label or callee fid of {!To_block} and {!To_callee}; 0 for
    the others. *)

val get : t -> int -> instance
(** Instance [k] as a record: an allocating view of the packed fields. *)

val check_instances : Interp.Trace.t -> t -> (unit, string) result
(** Sanity: instances tile the event range exactly and sizes add up. *)
