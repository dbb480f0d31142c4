(** Cost-directed task selection: scoring plans with {!Analysis.Cost} and
    the [fb] (feedback) heuristic level built on top of it.

    {!plan_cost} turns a {!Partition.plan} into predicted cycle-account
    shares without running the simulator: per-task observations come from
    {!Analysis.Cost.block_freqs}/[func_weights], register edges with their
    produce-early/consume-late criticality pairs from
    {!Depend.func_edges}, and within-function memory may-pairs from
    {!Analysis.Memdep}.  The scalar cost divides the summed penalties by a
    partition-independent useful-work base, which makes the cost decompose
    over functions — the property the greedy search relies on.

    {!refine} is the [fb] level: starting from a [Task_size] plan it
    repeatedly proposes boundary moves per function — adding a cut at a
    dominator-tree child of an existing task head (shrink), or removing a
    non-entry head (grow) — rebuilds the partition with
    {!Select.with_cuts}, and keeps the move only if it strictly lowers the
    function's predicted penalties {e and} the resulting plan passes the
    full lint rule set ({!Partition.validate}) plus the static dep/reg
    audit ({!Partition.validate_deps}).  A function keeps its seed
    partition unless something strictly better is found, so the refined
    plan's scalar cost never exceeds the seed's.

    The search is incremental: one {!Depend.memo} per function lives for
    that function's whole search, so a candidate re-derives dependence
    summaries only for the tasks the move changed.  {!plan_cost} and every
    audit start from a fresh memo. *)

type result = {
  r_total : Analysis.Cost.t;      (** raw scores summed over functions *)
  r_scalar : float;               (** penalties / useful base *)
  r_shares : Analysis.Cost.shares;
  r_per_func : (string * Analysis.Cost.t) list;  (** sorted by name *)
}

val plan_cost : ?model:Analysis.Cost.model -> Partition.plan -> result
(** Deterministic: depends only on the plan (and model), not on hash or
    iteration order — the [cost/conserve] lint rule checks this by
    recomputation. *)

(** {1 One function at a time} *)

type prog_ctx
(** The partition-independent observations of a program: block
    frequencies, call-graph weights and the address analysis. *)

val make_prog_ctx : ?model:Analysis.Cost.model -> Ir.Prog.t -> prog_ctx

val func_cost :
  prog_ctx -> Depend.memo -> string -> Ir.Func.t -> Task.partition ->
  Analysis.Cost.t
(** Raw scores of one function's partition: [plan_cost] sums these, and
    {!refine} ranks candidates by their penalties.  The register half
    comes from {!Depend.func_edges} through the given memo, which must be
    made for this function and the partition's included calls; the result
    does not depend on what the memo already holds. *)

(** {1 The feedback search} *)

val refine : ?model:Analysis.Cost.model -> Partition.plan -> Partition.plan
(** The feedback search described above.  The seed plan must itself pass
    {!Partition.validate}: a failure raises [Invalid_argument] (it means
    the lint library is not linked, or the seed is broken — silently
    returning the seed would hide the mis-wiring). *)

val build :
  ?params:Heuristics.params -> ?optimize:bool -> ?if_convert:bool ->
  ?schedule:bool -> ?profile_input:Ir.Prog.t -> Ir.Prog.t -> Partition.plan
(** The [fb] level end to end: build two candidate seeds — the
    [Task_size]-transformed plan (carrying the [Feedback] level tag) and
    the [Data_dependence] plan (same selection scheme without the
    unrolling/call-inclusion growth transforms) — score both with
    {!plan_cost}, keep [Task_size] unless the other is decisively cheaper,
    then {!refine} the winner.  The scalar cost normalises by each
    program's own useful-work base, which is what makes the two plans
    comparable even though unrolling changes the instruction count. *)

val plan_for_level :
  ?params:Heuristics.params -> ?optimize:bool -> ?if_convert:bool ->
  ?schedule:bool -> ?profile_input:Ir.Prog.t -> Heuristics.level ->
  Ir.Prog.t -> Partition.plan
(** Level dispatch for callers that accept any {!Heuristics.level}:
    [Feedback] goes through {!build}, everything else through
    {!Partition.build} unchanged. *)
