(** Multiscalar tasks: connected, single-entry subgraphs of a function's CFG
    (paper §2.2).

    Tasks may overlap statically (Multiscalar replicates code); at run time a
    task is identified by its entry block.  A {!partition} of a function is
    *closed*: every inter-task control transfer lands on some task's entry. *)

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

val task_of : partition -> Ir.Block.label -> t option
(** The task whose entry is the given block. *)

val of_blocks :
  Ir.Func.t -> included_calls:bool array -> entry:Ir.Block.label -> Iset.t -> t
(** Assemble a task record from a block set, computing targets, out-calls
    and return flags. *)

val forced_entries :
  Ir.Func.t -> included_calls:bool array -> Iset.t -> Ir.Block.label list
(** Continuation blocks of non-included calls inside the set: they become
    task entries via the return path even though they are nobody's
    predicted target. *)

val intra_successors :
  Ir.Func.t -> included_calls:bool array -> entry:Ir.Block.label -> Iset.t ->
  Ir.Block.label -> Ir.Block.label list
(** Successors of a block that stay inside the task: members of the set
    other than the entry (re-entering the entry starts a new task instance);
    a non-included call block has none. *)

val validate : Ir.Func.t -> partition -> (unit, string) result
(** Checks: entry block 0 is a task entry; every task's blocks are connected
    and reachable from its entry within the task; targets are exactly the
    out-edges of the task; every intra-function target is some task's
    entry. *)

val pp : Format.formatter -> partition -> unit
