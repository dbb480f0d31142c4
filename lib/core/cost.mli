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

    The partition-independent half — block frequencies, call weights, the
    useful-work base and the address analysis — is the plan's
    {!Partition.facts}: derived once per plan, on first use, and shared by
    the seed's score, its search, the refined plan and every later
    {!plan_cost} of it.  The search is incremental too: one {!Depend.memo}
    per function lives for that function's whole search, so a candidate
    re-derives dependence summaries only for the tasks the move changed.
    {!plan_cost} and every audit start from a fresh memo. *)

type result = {
  r_total : Analysis.Cost.t;      (** raw scores summed over functions *)
  r_scalar : float;               (** penalties / useful base *)
  r_shares : Analysis.Cost.shares;
  r_per_func : (string * Analysis.Cost.t) list;  (** sorted by name *)
}

val plan_cost : Partition.plan -> result
(** [cost_with (Partition.facts plan) plan].  Deterministic: depends only
    on the plan, not on hash or iteration order — the [cost/conserve] lint
    rule checks this against {!cost_with} on freshly derived facts. *)

val cost_with : Partition.facts -> Partition.plan -> result
(** The plan's cost over the given facts, which must be those of the
    plan's program ({!Partition.make_facts} derives them afresh). *)

(** {1 One function at a time} *)

val func_cost :
  Partition.facts -> Depend.memo -> string -> Ir.Func.t -> Task.partition ->
  Analysis.Cost.t
(** Raw scores of one function's partition: [plan_cost] sums these, and
    {!refine} ranks candidates by their penalties.  The register half
    comes from {!Depend.func_edges} through the given memo, which must be
    made for this function and the partition's included calls; the result
    does not depend on what the memo already holds. *)

(** {1 The feedback search} *)

val refine : Partition.plan -> Partition.plan
(** The feedback search described above.  The seed plan must itself pass
    {!Partition.validate}: a failure raises [Invalid_argument] (it means
    the lint library is not linked, or the seed is broken — silently
    returning the seed would hide the mis-wiring). *)

val build :
  ?params:Heuristics.params -> ?profile_input:Ir.Prog.t ->
  ?run:(Ir.Prog.t -> Interp.Run.outcome) -> Ir.Prog.t -> Partition.plan
(** The [fb] level end to end: build two candidate seeds — the
    [Task_size]-transformed plan (carrying the [Feedback] level tag) and
    the [Data_dependence] plan (same selection scheme without the
    unrolling/call-inclusion growth transforms) — score both with
    {!plan_cost}, keep [Task_size] unless the other is decisively cheaper,
    then {!refine} the winner.  The scalar cost normalises by each
    program's own useful-work base, which is what makes the two plans
    comparable even though unrolling changes the instruction count.  Both
    seed builds take their profiling runs from [run], as in
    {!Partition.build}; the refined plan keeps its seed's program, so
    without [profile_input] one of those runs already interpreted it. *)

val plan_for_level :
  ?params:Heuristics.params -> ?profile_input:Ir.Prog.t ->
  ?run:(Ir.Prog.t -> Interp.Run.outcome) -> Heuristics.level -> Ir.Prog.t ->
  Partition.plan
(** Level dispatch for callers that accept any {!Heuristics.level}:
    [Feedback] goes through {!build}, everything else through
    {!Partition.build} unchanged; [run] reaches every profiling run. *)
