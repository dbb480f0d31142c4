(** Multiscalar tasks: connected, single-entry subgraphs of a function's CFG
    (paper §2.2).

    Tasks may overlap statically (Multiscalar replicates code); at run time a
    task is identified by its entry block.  A {!partition} of a function is
    *closed*: every inter-task control transfer lands on some task's entry.
    Lint's [part/*] audit ([Lint.check_partition]) checks these invariants
    on every plan. *)

module Iset : Set.S with type elt = int

type t = {
  entry : Ir.Block.label;
  blocks : Iset.t;              (** includes [entry] *)
  targets : Ir.Block.label list;
      (** intra-function successor blocks outside the task (the task's
          possible successors the hardware predicts among), sorted;
          includes [entry] itself when the task can re-enter (loop task) *)
  calls_out : string list;
      (** callees of non-included call blocks inside the task: each is an
          additional (inter-function) target *)
  has_ret : bool;
      (** some block of the task returns (successor predicted via RAS) *)
}

type partition = {
  fname : string;
  tasks : t array;
  task_of_entry : int array;    (** block label -> task index, or -1 *)
  included_calls : bool array;
      (** per block: the block ends in a call marked for inclusion by the
          task-size heuristic (callee executes inside the enclosing task) *)
}

val num_hw_targets : t -> int
(** Number of next-task targets the prediction hardware must track:
    intra-function targets plus distinct called functions (returns are
    handled by the return-address stack and not counted). *)

(** The exit walk: a block set entered at [entry] has three kinds of
    exit, found in one walk over its blocks' terminators: a successor
    that leaves the set or re-enters the entry (a target), the callee of
    a non-included call (whose continuation is reached through the
    callee's return and is a new task), and a return or halt.
    {!of_blocks} builds a task record from the walk; {!count_hw_targets}
    counts its distinct hardware targets without building one. *)

val of_blocks :
  Ir.Func.t -> included_calls:bool array -> entry:Ir.Block.label -> Iset.t -> t
(** Assemble a task record from a block set: its targets, out-calls and
    return flag from the exit walk. *)

type marks
(** The stamp array a target count reads the walk through: one slot per
    block of a function and one per distinct callee.  Mutable: one count
    at a time, on one domain. *)

val marks : Ir.Func.t -> included_calls:bool array -> marks
(** Fresh marks for block sets of this function under these included
    calls. *)

val count_hw_targets : marks -> entry:Ir.Block.label -> Iset.t -> int
(** [num_hw_targets (of_blocks f ~included_calls ~entry blocks)] for the
    marks' function and included calls, from the same walk, without the
    record: each target and callee is counted once, when the walk first
    stamps its slot.  Allocates nothing. *)

val forced_entries :
  Ir.Func.t -> included_calls:bool array -> Iset.t -> Ir.Block.label list
(** Continuation blocks of non-included calls inside the set: they become
    task entries via the return path even though they are nobody's
    predicted target. *)

val iter_intra_successors :
  Ir.Func.t -> included_calls:bool array -> entry:Ir.Block.label -> Iset.t ->
  (Ir.Block.label -> unit) -> Ir.Block.label -> unit
(** [iter_intra_successors f ~included_calls ~entry blocks visit b] visits
    the successors of block [b] that stay inside the task, in
    {!Ir.Block.iter_succs} order: members of the set other than the entry
    (re-entering the entry starts a new task instance); a non-included call
    block has none.  Staged: applied to [visit] it makes its filter once,
    and the walk it returns allocates nothing beyond what [visit] does. *)

val pp : Format.formatter -> partition -> unit
