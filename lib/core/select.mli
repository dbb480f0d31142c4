(** The task-selection heuristics of the paper's Figure 3.

    All three selectors produce a *closed* {!Task.partition}: tasks are grown
    from a worklist of exposed targets starting at the function entry, so
    every inter-task transfer lands on a task entry.

    Terminal nodes (end exploration at the block): blocks ending in a
    non-included call, a return, or halt.
    Terminal edges (never included in a task): retreating (loop back) edges
    and edges crossing a loop boundary — entry into and exit out of loops
    (§3.2/3.3).

    Growth is greedy (§3.3): exploration continues past the [max_targets]
    limit hoping for control-flow reconvergence; the largest prefix of the
    exploration whose target count fits the hardware's prediction table — the
    *feasible task* — is what gets demarcated.  Each admitted block's
    prefix is counted by {!Task.count_hw_targets}, the task's exit walk
    read through the selection's stamp array, so no task record is built
    until a task is demarcated. *)

type dep_edge = {
  producer : Ir.Block.label;
  consumer : Ir.Block.label;
  reg : Ir.Reg.t;
  freq : int;  (** profiled dynamic occurrences *)
}

val basic_block : Ir.Func.t -> Task.partition
(** Every basic block is its own task (the paper's baseline). *)

val control_flow :
  Heuristics.params -> Ir.Func.t -> included_calls:bool array -> Task.partition

val with_cuts :
  Heuristics.params -> Ir.Func.t -> included_calls:bool array ->
  cuts:Task.Iset.t -> Task.partition
(** Control-flow growth with forced task boundaries: no task ever absorbs a
    block in [cuts], so every reachable cut block heads its own task.  Used
    by the cost-directed feedback search ({!Cost.refine}) to move task heads
    along dominator edges; with [cuts] equal to an existing partition's entry
    set it reproduces a partition with at least those boundaries.

    Staged: [with_cuts params f ~included_calls] derives the function's DFS
    numbering, predecessor table, dominators and loop forest once and
    returns the partitioner of every [cuts].  The partitioner also holds
    the {!Task.marks} that every growth step's target count
    ({!Task.count_hw_targets}) reads, a mutable stamp: it serves one
    search on one domain. *)

val data_dependence :
  Heuristics.params -> Ir.Func.t -> included_calls:bool array ->
  deps:dep_edge list -> Task.partition
(** The control-flow heuristic steered by data dependences (§3.4): children
    of explored blocks are still included (as in control flow), but
    exploration only continues into blocks lying in the codependent set of
    some active, not-yet-included dependence — dependence-free paths are
    terminated.  [deps] should be sorted by decreasing [freq].  Each
    (producer, consumer) pair's codependent set ({!Analysis.Reach}) is
    derived once per call, over the predecessor table the selection
    context holds. *)
