(** Static plan & IR verifier.

    The paper's argument rests on task invariants the compiler must uphold:
    tasks are connected single-entry subgraphs, partitions are *closed*
    (every inter-task transfer lands on a task entry), the control-flow
    heuristic bounds the successor count to what the prediction hardware
    tracks (§3.3), and the register forward/release bits must mark provably
    last writes (§2.1).  The simulator's timing silently trusts all of it.
    This module checks every invariant over any {!Core.Partition.plan} and
    reports structured {!Diag.t} findings instead of failing on the first
    bare string.

    Three checker families:
    - {b IR well-formedness} ([ir/*]): labels in range, call targets
      resolve, reads preceded by definitions, unreachable blocks, empty
      switches;
    - {b partition invariants} ([part/*]): connectivity, single entry,
      closure (including the forced entries of non-included calls),
      [task_of_entry]/[included_calls] consistency, stored
      [targets]/[calls_out]/[has_ret] recomputed independently and diffed,
      the [num_hw_targets] bound at [Control_flow] and above;
    - {b register-communication audit} ([regcomm/*]): an independent
      reverse-dataflow reimplementation of last-write, release and
      dead-register facts, differentially compared against
      {!Core.Regcomm.forwardable}/[needed]/[may_rewrite] — any
      disagreement between the two implementations is an error.

    Loading this library installs {!validate_plan} behind
    {!Core.Partition.validate} (the library is built with [-linkall], so a
    dependency edge suffices). *)

module Diag = Diag
(** Re-export: [Lint] is the library's interface module, so this is the
    only path by which outside code can name {!Diag.t}. *)

val check_prog : Ir.Prog.t -> Diag.t list
(** IR well-formedness of a whole program ([ir/*] rules only). *)

val check_roundtrip : Ir.Prog.t -> Diag.t list
(** Textual round-trip audit ([ir/roundtrip]): printing through {!Ir.Pp}
    and re-parsing with {!Ir.Parse} must reproduce the program exactly —
    same functions (instruction-for-instruction), data segment, memory
    bound and main.  Any loss would make dumped fuzz reproducers unfaithful
    regression inputs. *)

val check_partition :
  ?level:Core.Heuristics.level ->
  ?params:Core.Heuristics.params ->
  Ir.Func.t ->
  Core.Task.partition ->
  Diag.t list
(** Partition invariants of one function ([part/*] rules).  The
    [num_hw_targets] bound is only enforced when [level] is given and is
    [Control_flow] or above; [params] defaults to
    {!Core.Heuristics.default}.  Assumes the function itself is
    well-formed (run {!check_prog} first). *)

val check_regcomm :
  Ir.Func.t -> live_in:Analysis.Dataflow.Regset.t array ->
  Core.Task.partition -> Diag.t list
(** Differential audit of {!Core.Regcomm} over every task of the partition
    ([regcomm/*] rules).  [live_in] is the liveness {!Core.Regcomm.create}
    is given ({!check_plan} passes the plan's {!Core.Partition.live_in});
    the audit compares against liveness it derives by an algorithm of its
    own.  Assumes a structurally valid partition (gate on
    {!check_partition} reporting no errors). *)

val check_plan : Core.Partition.plan -> Diag.t list
(** All three families over a whole plan, sorted by {!Diag.compare}.
    Defensive: functions with IR-structural errors skip the partition
    checks, and partitions with errors skip the regcomm audit (their
    metadata cannot be trusted enough to index with). *)

val validate_plan : Core.Partition.plan -> (unit, string) result
(** [Ok ()] when {!check_plan} reports no errors; otherwise the first
    error diagnostic (rule id and location included) plus a count of the
    rest.  This is what {!Core.Partition.validate} delegates to. *)

val check_trace : Interp.Trace.t -> Diag.t list
(** Packed-trace decode audit ([trace/decode]): {!Interp.Trace.check}
    surfaced as a lint rule — event fields in range, address offsets
    monotone and per-block consistent, sentinel and instruction totals
    exact.  Empty list when the trace decodes cleanly. *)

val check_account : num_pus:int -> in_order:bool -> Sim.Stats.t -> Diag.t list
(** Cycle-accounting conservation ([acct/conserve]): the recorded
    {!Sim.Account.t} breakdown must have non-negative categories summing to
    exactly [num_pus * cycles], and its budget must match the simulation the
    stats describe.  Independent of the engine's own runtime check — this
    rule re-derives the invariant from the stored record. *)

val check_deps : Core.Partition.plan -> Interp.Trace.t -> Diag.t list
(** Static dependence audit ([dep/*] rules) of {!Core.Depend} over the
    plan:

    - [dep/reg]: the analyzer's cross-task register edges are recomputed
      from {!Core.Regcomm.needed} plus an independent upward-exposure DFS
      and the two sets diffed; the analyzer's chosen criticality site must
      satisfy {!Core.Regcomm.forwardable} (and when it found none, no
      last-in-block write may be forwardable).  This half is the audit
      {!validate_plan_deps} runs, one code path for both;
    - [dep/sound]: the packed trace is walked as dynamic task instances
      ({!Sim.Memflow.observed}) and every observed cross-instance
      store→load flow must be predicted by the analyzer's memory edges —
      the static analysis is an over-approximation or it is broken.  A
      trace the walk cannot chop into instances is one [dep/sound] error.

    Assumes a structurally valid plan (gate on {!check_plan} first). *)

val check_absint : Core.Partition.plan -> Interp.Trace.t -> Diag.t list
(** Flow-sensitive refinement audit ([absint/*] rules) of
    {!Analysis.Memdep} over the plan's program:

    - [absint/sound]: every address the packed trace records must be
      contained ({!Analysis.Memdep.contains}) in the refined region of
      the corresponding static memory site — the trace grounding of the
      {!Analysis.Absint} instantiation, one level below [dep/sound]'s
      edge check;
    - [absint/refines]: site for site, the refined region must be a
      provable subset ({!Analysis.Memdep.leq}) of the flow-insensitive
      one, and the two site tables must share the same skeleton — the
      old analysis is a mandatory refinement bound, never regressed past.

    Assumes a structurally valid plan (gate on {!check_plan} first). *)

val check_deps_func :
  string ->
  Ir.Func.t ->
  live_in:Analysis.Dataflow.Regset.t array ->
  Core.Task.partition ->
  Core.Depend.reg_edge list ->
  Diag.t list
(** [check_deps_func fname f ~live_in part edges]: the [dep/reg] audit of
    one function, [edges] being the analyzer's register edges of [f]
    alone ({!Core.Depend.func_edges}).  [live_in] is the liveness
    {!Core.Regcomm.create} is given.  An edge the recomputation has and
    [edges] lacks is reported as missed, one [edges] has and the
    recomputation lacks as over-reported, each distinct edge once.
    {!check_deps} and {!validate_plan_deps} share one audit that runs it
    on every function of a plan, over that function's
    {!Core.Depend.func_edges} under a fresh memo. *)

val validate_plan_deps : Core.Partition.plan -> (unit, string) result
(** [Ok ()] when the [dep/reg] half of {!check_deps} alone — the same
    audit, no trace required — reports no errors; same error shape as
    {!validate_plan}.
    This is what {!Core.Partition.validate_deps} delegates to; the
    cost-directed feedback search runs it on every candidate plan. *)

val check_cost : Core.Partition.plan -> Diag.t list
(** Static cost-model audit ([cost/conserve]): {!Core.Cost.plan_cost}'s
    predicted shares must be a well-formed distribution
    ({!Analysis.Cost.shares_well_formed}), the scalar cost finite and
    non-negative, and the whole result bit-identical to
    {!Core.Cost.cost_with} over facts and liveness derived afresh
    ({!Core.Partition.make_facts}, {!Analysis.Dataflow.sound_live_in}) —
    determinism of every fold in the chain, whatever the plan's program
    record holds. *)

val rule_matches : pat:string -> string -> bool
(** Anchored shell-style glob match over rule ids ([*] matches any
    substring): [rule_matches ~pat:"dep/*" "dep/sound"] is [true]. *)

(** {1 Suite-wide enforcement} *)

type report = {
  workload : string;
  level : Core.Heuristics.level;
  diags : Diag.t list;
}

val acct_configs : (int * bool) list
(** The machines, [(num_pus, in_order)], that {!check_artifact} simulates
    for the [acct/conserve] gate: the 4-PU in-order and 8-PU out-of-order
    configurations of figure 5. *)

val check_artifact :
  Harness.Artifact.t -> Harness.Artifact.artifact -> Diag.t list
(** The oracle stack over one store artifact, the one function that
    {!check_suite}, the daemon's [lint] op and [Fuzz] run: {!check_plan},
    then {!check_trace}, {!check_deps}, {!check_absint} and {!check_cost},
    then {!check_account} on the {!acct_configs} machines, simulated
    through {!Harness.Artifact.sim} (memoized, so a run that already
    produced them pays nothing extra).  Gated: when {!check_plan} reports
    an error, its diagnostics are returned alone, since the later audits
    assume a valid plan.  Raises what the simulation raises. *)

val check_suite :
  ?jobs:int ->
  ?levels:Core.Heuristics.level list ->
  store:Harness.Artifact.t ->
  Workloads.Registry.entry list ->
  report list
(** {!check_artifact} on every workload at every level (default: all
    four), one {!Harness.Artifact.grid} cell per (workload, level).
    Results are in input order (workload-major). *)

val total_errors : report list -> int

val invariants : report list -> string list
(** The suite gate: one line per error diagnostic, prefixed with its
    workload and level tag.  Empty when every plan is clean; holds on any
    subset of the grid. *)

val filter_rule : string -> report list -> report list
(** Keep only the diagnostics whose rule id matches the glob (see
    {!rule_matches}) — the [msc lint --rule] filter. *)

val report_to_json : report list -> Harness.Json.t
(** Reports plus an aggregate [rule_counts] object — the diffable summary
    written to [bench/lint.json].  [rule_counts] carries a (possibly zero)
    entry for {e every} rule id registered via {!Diag.register_rule}, keys
    sorted, so diffs stay stable when a rule family is added. *)
