(** Static cross-task dependence edges of a task-selection plan.

    Combines the two dependence kinds the paper's §2 performance issues
    trace back to:

    - {b register edges} ([data_wait]): a producer task whose final value of
      a register feeds an immediate successor task that reads it before
      redefining it.  Each edge carries the paper's "produce early, consume
      late" criticality pair — the {e producer height} (static instructions
      from the producer's entry until the value is forwardable on the ring)
      and the {e consumer depth} (static instructions from the consumer's
      entry to the first read);
    - {b memory edges} ([mem_squash]): a task containing a store whose
      address region ({!Analysis.Memdep}) may intersect the address region
      of a load in another (or the same, on re-execution) task, anywhere in
      the program.  Stores and loads of callees executing inside an
      included call are attributed to the enclosing task, mirroring
      {!Sim.Dyntask.chop}.

    This module is deliberately independent of {!Regcomm} — the [dep/reg]
    lint rule differentially compares the register edges computed here
    (from {!Analysis.Dataflow} liveness and private fixpoints) against a
    recomputation from [Regcomm.needed]/[forwardable].

    Everything here is an over-approximation: edges may be predicted that
    never occur dynamically, but the [dep/sound] lint rule asserts that
    every dynamically observed cross-task memory dependence is predicted. *)

type task_id = { fn : string; task : int }

type reg_edge = {
  re_fn : string;  (** function whose partition the edge lives in *)
  re_src : int;  (** producer task index *)
  re_dst : int;  (** consumer task index (may equal [re_src]: loop task) *)
  re_reg : Ir.Reg.t;
  re_height : int;
      (** static instructions from the producer's entry to the earliest
          forwardable last write, inclusive; the producer's static size
          when the value is only released at task exit *)
  re_depth : int;
      (** static instructions executed by the consumer before the first
          read of the register *)
  re_site : (Ir.Block.label * int) option;
      (** the forwardable write site the height was taken from, if any —
          exposed so the [dep/reg] audit can cross-check it against
          {!Regcomm.forwardable} *)
}

type t

val analyze : ?fi:bool -> ?summary:Analysis.Memdep.t -> Partition.plan -> t
(** Derive the edges.  [fi] (default [false]) selects the flow-insensitive
    baseline site regions ({!Analysis.Memdep.fi_sites}) instead of the
    refined ones — the before/after switch the precision report compares.
    [summary] reuses an existing address analysis of the plan's program
    (one {!Analysis.Memdep.analyze} run yields both site tables) instead
    of recomputing it. *)

(** {1 One function's register dependences} *)

type memo
(** Per-task summaries of one function under one included-call set:
    consumer depths, producer heights and sites, the task's write set and
    the registers it exports.  A summary is a pure function of (function,
    included calls, task record), so every partition of the function that
    contains the same task — as every boundary candidate of the [fb]
    search does for all but the one or two tasks a move touches — reuses
    it.  Results are bit-identical to a fresh memo's. *)

val memo : Ir.Func.t -> included_calls:bool array -> memo
(** An empty memo for partitions of this function with these included
    calls.  Its lifetime is the caller's: {!Cost.refine} keeps one per
    function for that function's whole search; {!analyze}, the cost of a
    finished plan and the lint audits each take a fresh one. *)

type func_edges = {
  f_regs : reg_edge list;  (** sorted by [(re_src, re_dst, re_reg)] *)
  f_exposed : (int * Ir.Reg.t * int) list;
      (** [(task, reg, depth)] for every register a task reads before
          writing (minimum instruction distance from the task entry to the
          first read), sorted by [(task, reg)].  This is the consumer half
          of the criticality pair for {e every} upward-exposed read,
          whoever produces the value — unlike [f_regs], which only pairs
          immediate-successor tasks, it cannot be shrunk by pushing a
          producer further back, which is what makes it the split-robust
          part of the cost model's [data_wait] term. *)
}

val func_edges : memo -> string -> Task.partition -> func_edges
(** Register edges and exposed reads of the named function's partition,
    independent of the rest of the plan — the entry point the cost model
    ({!Cost}) uses while searching over one function's boundaries.  Both
    come from one summary per task.  [analyze]'s register edges are
    exactly the concatenation of [f_regs] over the plan's functions in
    name order.  Raises [Invalid_argument] when the partition's included
    calls differ from the ones the memo was made for. *)

(** {1 A whole plan's edges} *)

val summary : t -> Analysis.Memdep.t
(** The address analysis the memory edges were derived from. *)

val reg_edges : t -> reg_edge list
(** Sorted by [(re_fn, re_src, re_dst, re_reg)]. *)

val mem_edges : t -> (task_id * task_id) list
(** Store-task → load-task may-dependence pairs (self-pairs included),
    sorted. *)

val predicts_mem : t -> src:task_id -> dst:task_id -> bool

val num_tasks : t -> int
(** Tasks across every function of the plan. *)

val num_load_sites : t -> int
val num_store_sites : t -> int

val task_stores : t -> task_id -> Analysis.Memdep.value list
(** Deduplicated store-address regions of a task, included callees'
    closure folded in.  Empty for unknown ids. *)

val task_loads : t -> task_id -> Analysis.Memdep.value list
