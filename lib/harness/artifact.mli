(** The shared artifact store of the experiment engine.

    Every evaluation path (CLI subcommands, report tables, the studies,
    the daemon) needs the same expensive pipeline per [(workload,
    heuristic level)]: build the workload program, apply the {!variant}'s
    front-end transforms, select tasks with {!Core.Cost.plan_for_level},
    and interpret the partitioned program for the dynamic trace.  The store
    memoizes all of it behind a structural {!key} — the one place the
    variants and the cross-input profile are keyed — so one [msc] run
    computes each pipeline exactly once however many reports need it.

    Source programs are shared below the pipelines: the store keeps the
    program [entry.build ()] (or [build_alt ()]) returned, after the
    variant's transforms, keyed by (workload, profile input, variant), so
    each workload input is built once per store however many levels
    select from it.  No pass mutates a program it is given, so every
    program derived from a source shares its data runs.

    Interpretation is shared below the pipelines.  The store keeps the
    interpreter outcome behind each artifact's trace, keyed by a digest of
    the program, and hands {!Core.Cost.plan_for_level} a [run] that reuses
    those outcomes for its profiling runs: bb, cf and dd share one run of
    the hoisted program, and dd, ts and fb take their trace from a run
    their own selection made.  A profiling run whose trace no artifact
    holds (ts's callee-size run, the losing fb seed's) is never kept.

    Program records ({!Core.Partition.program}: the hoisted program, its
    facts and its liveness) are shared the same way, keyed by a digest of
    the program before hoisting: bb, cf, dd and fb's dd seed build on one
    record, ts and fb's ts seed on another, so each distinct program is
    hoisted, and its facts and liveness derived, once per store.  A
    pipeline reuses any landed record, but one it creates stays private
    until its plan lands, so the losing fb seed's record is never kept.

    The store is domain-safe: it is the synchronisation point for
    {!Pool}-parallel jobs.  Its tables are {!Memo} tables: the first
    requester of a key computes, later requesters block on that key alone
    until the result lands, so concurrent requests never duplicate work;
    a failed computation is not cached, and the next request retries it.
    Repeated [get]s return the physically same plan and trace.  {!grid}
    is the one fan-out over the store that every report runs on.

    On top of the pipeline artifacts the store also memoizes simulation
    statistics for {!Sim.Config.default} machine configurations (keyed by
    [(key, num_pus, in_order)]); these recorded results are what
    {!Job.results_of_store} exports as the machine-readable perf
    trajectory.  Each record carries its {!Sim.Account.t} cycle-attribution
    breakdown, so breakdown reports ([msc breakdown],
    [bench/account.json]) are memoized alongside the traces for free. *)

type variant = {
  optimize : bool;
      (** run the classical {!Opt.Pipeline} (const/copy propagation, CSE,
          peephole, DCE) first, as the paper's gcc -O2 binaries imply *)
  if_convert : bool;
      (** then the predication extension
          ({!Core.Transform.if_convert_program}) *)
}

val base_variant : variant
(** All flags off — the paper's baseline compilation. *)

type key = {
  workload : string;
  level : Core.Heuristics.level;
  params : Core.Heuristics.params;
  profile_alt : bool;
      (** profile with the workload's alternative input
          ({!Workloads.Registry.entry}[.build_alt], transformed like the
          evaluated program) instead of itself — a cross-input study; the
          paper profiles with the evaluation inputs *)
  variant : variant;
}

type artifact = {
  key : key;
  kind : Workloads.Registry.kind;
  plan : Core.Partition.plan;
  trace : Interp.Trace.t;  (** trace of [plan.prog] *)
}

type t

val create : unit -> t

val get :
  t ->
  ?params:Core.Heuristics.params ->
  ?profile_alt:bool ->
  ?variant:variant ->
  level:Core.Heuristics.level ->
  Workloads.Registry.entry ->
  artifact
(** Fetch or compute the pipeline artifact.  [params] defaults to
    {!Core.Heuristics.default}, [profile_alt] to [false], [variant] to
    {!base_variant}. *)

val prep : t -> artifact -> Sim.Engine.prep
(** Memoized {!Sim.Engine.prepare} of the artifact — the configuration-
    independent half of a simulation (register-communication analyses,
    the task walk's callee table, layout), sized by the program and shared
    across every machine configuration swept against the same plan and
    trace. *)

val sim : t -> artifact -> num_pus:int -> in_order:bool -> Sim.Stats.t
(** Memoized {!Sim.Engine.run_on} over the artifact's shared prep on a
    {!Sim.Config.default} machine with [num_pus] PUs.  While a {!grid}
    runs, the machine is one that an earlier simulation finished with, if
    one of that configuration is idle, and goes back to the store's idle
    list after the run; outside any grid it is a fresh machine, dropped
    after the run, and no lock is taken.  Either way the statistics are
    those of a fresh machine.  Callers must treat the returned statistics
    as read-only: repeated calls share one record.  Raises
    {!Sim.Dyntask.Not_closed} when the plan cannot chop the trace into
    task instances, as only an invalid plan does. *)

val grid :
  t ->
  ?jobs:int ->
  levels:Core.Heuristics.level list ->
  Workloads.Registry.entry list ->
  (artifact -> 'a) ->
  'a list
(** [grid t ~levels entries f] applies [f] to the default-parameter
    artifact ({!get}) of every (entry, level) cell, fanned out flat over
    {!Pool.map} at width [jobs].  Results are entry-major: the cells of
    the [i]-th entry are at positions [i * n] to [i * n + n - 1], in
    [levels] order, where [n] is the number of levels.  [f] runs on a
    pool worker and typically calls {!sim} itself.  While any grid runs,
    the store lends its cells' simulations the machines earlier ones
    finished with ({!sim}); when the last running grid returns, normally
    or by an exception, the store drops its idle machines, so no
    simulation scratch outlives a grid. *)

val builds : t -> int
(** Number of pipeline computations actually performed (cache misses) —
    the exactly-once property is [builds t = number of distinct keys]
    while no computation has failed. *)

val programs : t -> int
(** Number of landed program records: one per distinct program that some
    artifact's plan was built on. *)

val idle_machines : t -> int
(** Number of machines the store holds for the simulations of running
    grids: 0 whenever no grid runs. *)

val sim_results : t -> (key * (int * bool) * Sim.Stats.t) list
(** Every simulation recorded by {!sim}, sorted deterministically
    (workload, level, params, profile, variant, PUs, issue discipline). *)

val trace_bytes : t -> int
(** Total resident bytes of the store's packed traces
    ({!Interp.Trace.bytes}), each physical trace counted once however many
    keys share it: the one term of a store sized by the traces.  A store
    over the extended grid (the 18 workloads at bb through fb, every
    artifact prepared for simulation) holds 13.1 MB by
    [Obj.reachable_words], each term counted after the ones before it:
    the plans' programs 0.44 MB (0.20 MB of it their shared data runs),
    traces 9.27 MB, the rest of the plans (program records' facts and
    liveness) 0.57 MB, preps 2.56 MB, source programs and tables
    0.27 MB.  With boxed data cells and a build per pipeline it held
    16.2 MB, 3.33 MB of it data segments; when each prep kept its task
    chop, the chops took 23.2 MB. *)
