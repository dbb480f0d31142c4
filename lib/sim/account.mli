(** Cycle accounting: attribute every PU-cycle of a simulation to one of the
    paper's five performance issues (§2), plus useful work and idleness.

    The engine decomposes each PU's timeline into disjoint segments — one
    chain of segments per dynamic task instance, telescoping from the
    previous task's release of the PU to this task's release — so the seven
    categories are a partition by construction:

    - {b useful}: cycles of the task's execution window not attributed to
      inter-task operand waits (includes intra-task dependence and
      structural stalls: those are uniprocessor issues, not task-selection
      issues);
    - {b ctrl_squash}: control-flow misspeculation — the window between the
      cycle the mispredicted successor was dispatched and the cycle the
      correct one could restart (the predecessor resolving its exit);
    - {b data_wait}: issue cycles lost waiting on inter-task register/memory
      operands (ring arrival, ARB forwarding, ARB-overflow serialisation),
      clamped to the execution window;
    - {b mem_squash}: memory-dependence misspeculation — assignment delay
      accumulated by violation squash/re-execution;
    - {b load_imbalance}: completion-to-retirement wait imposed by in-order
      task retirement;
    - {b overhead}: per-task start/end overhead cycles;
    - {b idle}: the PU had no task (sequencer not yet reached it, or the
      program drained).

    Conservation — the sum of all categories equals [pus * cycles] exactly —
    is enforced at the end of every simulation ({!finalize} raises on
    violation) and re-checked statically by the lint rule [acct/conserve]
    and the [msc check account] gate. *)

type category =
  | Useful
  | Ctrl_squash
  | Data_wait
  | Mem_squash
  | Load_imbalance
  | Overhead
  | Idle

val all : category list
(** In presentation order. *)

val name : category -> string
(** Stable snake_case identifier, used in JSON exports and reports. *)

type t = {
  mutable pus : int;     (** processing units of the simulated machine *)
  mutable cycles : int;  (** total execution cycles (set by {!finalize}) *)
  mutable useful : int;
  mutable ctrl_squash : int;
  mutable data_wait : int;
  mutable mem_squash : int;
  mutable load_imbalance : int;
  mutable overhead : int;
  mutable idle : int;
}

val create : unit -> t

val add : t -> category -> int -> unit
(** Charge cycles to a category.  Raises [Invalid_argument] on a negative
    increment: every attributed segment must be non-negative. *)

val get : t -> category -> int
val total : t -> int
(** Sum over all categories. *)

val budget : t -> int
(** [pus * cycles] — what {!total} must equal. *)

val pct : t -> category -> float
(** Percentage of the budget; 0 when the budget is 0. *)

val check : t -> (unit, string) result
(** Non-negativity of every category and exact conservation
    ([total t = budget t]). *)

val finalize : t -> pus:int -> cycles:int -> unit
(** Record the budget and enforce {!check}; raises [Failure] on violation.
    Every simulator calls this once, after its last cycle is attributed. *)

val pp : Format.formatter -> t -> unit
