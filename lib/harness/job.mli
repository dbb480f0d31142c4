(** Result records of the experiment engine and their JSON.

    A {!spec} names one simulation cell [workload × heuristic level ×
    machine configuration]; the other records summarise one
    {!Artifact.artifact} (dependences, cost predictions) or one fuzz
    profile.  Every [*_to_json] here is the payload shape shared by the
    [msc --json] exports (the results object of [msc figure5 --json] is
    {!document}), the committed [bench/*.json] files and the [mscd]
    service responses.  The computations live with their callers: the
    report runners and the daemon resolve artifacts and simulations
    through an {!Artifact} store. *)

type spec = {
  workload : string;  (** a {!Workloads.Suite} name *)
  level : Core.Heuristics.level;
  num_pus : int;
  in_order : bool;
}

type result = {
  spec : spec;
  kind : Workloads.Registry.kind;
  ipc : float;
  cycles : int;
  dyn_insns : int;
  tasks : int;
  task_size : float;        (** dynamic instructions per task *)
  ct_per_task : float;      (** control transfers per task *)
  task_mispredict : float;  (** % *)
  window_span : float;      (** measured, occupancy-weighted *)
}

val result_of_stats :
  spec -> kind:Workloads.Registry.kind -> Sim.Stats.t -> result

val level_tag : Core.Heuristics.level -> string
(** Stable wire tag of a heuristic level ([bb]/[cf]/[dd]/[ts]/[fb]) —
    the encoding used by every JSON export and the service protocol. *)

val level_of_tag : string -> (Core.Heuristics.level, string) Stdlib.result
(** Inverse of {!level_tag}; [Error] names the unknown tag. *)

val result_to_json : result -> Json.t
(** One result as an element of {!document}'s "jobs" member — the payload
    shape shared by the JSON export and the service protocol. *)

val results_of_store : Artifact.t -> result list
(** The canonical perf trajectory recorded in a store: every memoized
    default-machine simulation whose pipeline used default parameters, the
    baseline variant and self-profiling, in deterministic order. *)

(** {1 Cycle-accounting breakdowns}

    A store's memoized simulations carry their {!Sim.Account.t} breakdown
    inside the recorded statistics; these records expose them as jobs for
    the [msc breakdown] subcommand and its [msc check account] entry
    ([bench/account.json]). *)

type account = {
  a_spec : spec;
  a_kind : Workloads.Registry.kind;
  a_acct : Sim.Account.t;
}

val account_of_stats :
  spec -> kind:Workloads.Registry.kind -> Sim.Stats.t -> account

(** {1 Static dependence summaries}

    Per-(workload, level) counts from the {!Core.Depend} static inter-task
    dependence analyzer, grounded against the dynamic trace: every observed
    cross-instance store→load flow ({!Sim.Memflow}) is checked against the
    static prediction.  Soundness means [d_predicted_hit = d_observed];
    the gap to [d_mem_edges] measures precision (predicted pairs that never
    materialise).  These records feed the [msc deps] subcommand and its
    [msc check deps] entry ([bench/deps.json]). *)

(** One memory site in the [d_widest] precision ranking.  [w_width] is the
    number of distinct addresses the refined region admits, [-1] when the
    region is unbounded ({!Analysis.Memdep.width} returned [None]). *)
type wide_site = {
  w_fn : string;
  w_blk : int;
  w_idx : int;
  w_store : bool;
  w_width : int;
}

type dep = {
  d_workload : string;
  d_kind : Workloads.Registry.kind;
  d_level : Core.Heuristics.level;
  d_tasks : int;           (** static tasks across the plan *)
  d_reg_edges : int;       (** cross-task register def-use edges *)
  d_mem_edges : int;       (** predicted store-task → load-task pairs *)
  d_fi_mem_edges : int;    (** same, from the flow-insensitive baseline
                               regions ({!Analysis.Memdep.fi_sites}) — the
                               gap to [d_mem_edges] is what the
                               {!Analysis.Absint} refinement pruned *)
  d_store_sites : int;     (** static store sites the regions summarise *)
  d_load_sites : int;
  d_unbounded_sites : int; (** refined sites with no finite region width *)
  d_fi_unbounded_sites : int;  (** baseline sites with no finite width *)
  d_widest : wide_site list;   (** top-5 widest refined sites, widest first
                                   (unbounded outranks any finite width) *)
  d_observed : int;        (** distinct observed store→load task pairs *)
  d_predicted_hit : int;   (** observed pairs the analyzer predicted *)
  d_dyn_flows : int;       (** dynamic load occurrences behind [d_observed] *)
}

val precision_of_summary :
  Ir.Prog.t -> Analysis.Memdep.t -> int * int * wide_site list
(** [(unbounded, fi_unbounded, widest)] over every memory site of the
    program: refined and baseline sites with no finite region width, and
    the top-5 widest refined sites.  Shared by {!dep_of_artifact} and the
    precision report. *)

val dep_of_artifact : Artifact.artifact -> dep
(** Analyze the artifact's plan and replay its trace.  Not memoized — the
    analysis is cheap next to the pipeline that produced the artifact. *)

val dep_violations : dep -> int
(** [d_observed - d_predicted_hit]; non-zero means the static analysis is
    unsound on this workload (the [dep/sound] lint rule fires). *)

val dep_to_json : dep -> Json.t
(** Integer-only counts (plus the derived [violations]); ratio metrics are
    left to readers so golden snapshots stay float-free. *)

(** {1 Static cost predictions}

    Per-(workload, level) predicted cycle-account shares from the
    {!Core.Cost} static model — no simulation involved.  These records
    feed the [msc cost] subcommand and its [msc check cost] entry
    ([bench/cost.json]); the report layer joins them against measured
    {!Sim.Account} shares on [(workload, level)]. *)

type cost = {
  co_workload : string;
  co_kind : Workloads.Registry.kind;
  co_level : Core.Heuristics.level;
  co_tasks : int;     (** static tasks across the plan *)
  co_scalar : float;  (** predicted penalties / useful-work base *)
  co_pred : Analysis.Cost.shares;
}

val cost_of_artifact : Artifact.artifact -> cost
(** Score the artifact's plan with {!Core.Cost.plan_cost}.  Not memoized —
    the model is cheap next to the pipeline that produced the artifact. *)

val cost_to_json : cost -> Json.t
(** The scalar and predicted shares as floats — cost goldens pin these
    bytes deliberately, a formatting drift is a model drift. *)

val account_to_json : account -> Json.t
(** Integer cycle counts per category plus the [budget] ([pus * cycles]);
    percentages are left to readers so golden snapshots stay float-free. *)

val accounts_to_json : account list -> Json.t
(** The [{"accounts": [...]}] object written to [bench/account.json]. *)

(** {1 Fuzz corpus summaries}

    Per-profile aggregates of a differential fuzzing run ({!Fuzz} in
    [lib/fuzz]): how many generated programs went through which oracles and
    how many passed.  These ride in {!document}'s "fuzz" member
    ([msc fuzz --json], [bench/fuzz.json]). *)

type fuzz = {
  z_seed : int;            (** corpus root seed *)
  z_profile : string;      (** {!Workloads.Synth.Profile} name *)
  z_programs : int;        (** programs generated under this profile *)
  z_levels : int;          (** heuristic levels each program went through *)
  z_lint_pass : int;       (** programs with ir/* + part/* + regcomm/* clean *)
  z_roundtrip_pass : int;  (** programs whose textual round-trip is exact *)
  z_trace_pass : int;      (** programs whose packed traces decode cleanly *)
  z_dep_pass : int;        (** programs with dep/sound + dep/reg clean *)
  z_absint_pass : int;     (** programs with absint/sound + absint/refines clean *)
  z_acct_pass : int;       (** programs with acct/conserve exact *)
  z_cost_pass : int;       (** programs with cost/conserve clean *)
  z_fb_bound_pass : int;   (** programs where fb static cost <= ts seed *)
  z_ref_checked : int;     (** programs given the sim_ref differential *)
  z_ref_pass : int;        (** ... of which were cycle-identical *)
  z_violations : int;      (** total oracle violations under this profile *)
}

val fuzz_to_json : fuzz -> Json.t
(** Integer-only counts, like accounts and deps. *)

val document : ?fuzz:fuzz list -> result list -> Json.t
(** The results object [msc figure5 --json] and [msc table1 --json]
    write: a "jobs" member listing {!result_to_json} of the results, plus
    a "fuzz" member when [fuzz] is given ([msc fuzz --json],
    [bench/fuzz.json]). *)

val bench_path : string -> string
(** Where a committed report file lives: [bench/<file>] when the current
    directory has a [bench/] directory (the repository root), else
    [<file>] in the current directory. *)
