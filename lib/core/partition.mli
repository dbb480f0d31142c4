(** Whole-program task selection: the paper's [task_selection()] driver.

    Builds, for a given heuristic level, the transformed program and a closed
    per-function partition.  Profiling (for dependence frequencies and callee
    sizes) is done by running the interpreter on the program itself, playing
    the role of the paper's SPEC95 profiling runs.  Every profiling run goes
    through the [run] argument, so a caller that already holds a program's
    outcome (the artifact store) can hand it in instead of interpreting
    again.

    A plan points at a {!program} record: the hoisted program, its
    {!facts} — block frequencies, call weights, the useful-work base and
    the address analysis — and each of its functions' sound liveness
    ({!live_in}), each derived once, on first use.  Every plan built on
    the record, and every plan derived from one with {!with_parts} or
    {!with_level}, reads the same copies: the cost of the plan, its
    refinement, {!Depend.analyze}, the simulator's preparation and the
    lint audits.  {!build} takes the record from a [program] lookup, so a
    caller that keeps records (the artifact store) shares them between
    the plans of every level that compiles to the same program. *)

(** {1 Program facts} *)

type facts = {
  freqs : (string, float array) Hashtbl.t;
      (** per function, {!Analysis.Cost.block_freqs} *)
  weights : float Ir.Prog.Smap.t;  (** {!Analysis.Cost.func_weights} *)
  mem : Analysis.Memdep.t;
      (** the address analysis, at {!Interp.Run.initial_sp} *)
  useful_base : float;
      (** partition-independent useful work: Σ weight × freq × size *)
}
(** The partition-independent observations of a program that the cost
    model ({!Cost}), {!Depend.analyze} and the lint audits share.  Read
    them only: a plan's facts are shared by every plan on its {!program}
    record, across domains. *)

val make_facts : Ir.Prog.t -> facts
(** Derive the facts afresh.  Deterministic: two derivations of the same
    program are equal. *)

(** {1 Program records} *)

type program
(** A hoisted program with its {!facts} and its {!live_in} tables, each
    derived on first use by any plan built on the record. *)

val hoist : Ir.Prog.t -> program
(** [hoist prog] is a fresh record of [prog] after induction-variable
    hoisting, the base compilation every level applies, with nothing
    derived yet.  {!build}'s default [program] lookup. *)

(** {1 Plans} *)

type plan = private {
  level : Heuristics.level;
  params : Heuristics.params;
  prog : Ir.Prog.t;   (** program after this level's transformations *)
  parts : Task.partition Ir.Prog.Smap.t;  (** per-function partitions *)
  program : program;  (** the record of [prog]: its facts and liveness *)
}
(** Private: {!build} makes plans, and {!with_parts} and {!with_level} are
    the only ways to derive one plan from another.  A derived plan keeps
    its source's program record. *)

val facts : plan -> facts
(** [make_facts plan.prog], derived on the first call for any plan on the
    same {!program} record, and returned by every later call.  Safe
    across domains: concurrent first calls may each derive a copy, one is
    published with [Atomic.compare_and_set], and every caller returns the
    published copy. *)

val live_in : plan -> string -> Analysis.Dataflow.Regset.t array
(** [live_in plan fname] is {!Analysis.Dataflow.sound_live_in} of the
    named function of [plan.prog], per block.  The first call for any
    plan on the same {!program} record derives every function's table;
    later calls return the same (physically equal) tables.  Kept apart
    from {!facts}, so reading it never runs the address analysis.  Safe
    across domains like {!facts}.  Read it only.
    @raise Not_found when the program has no such function. *)

val with_parts : plan -> Task.partition Ir.Prog.Smap.t -> plan
(** The plan with other partitions of the same program record. *)

val with_level : plan -> Heuristics.level -> plan
(** The plan under another level tag (the [fb] level's [dd] seed). *)

val build :
  ?params:Heuristics.params -> ?profile_input:Ir.Prog.t ->
  ?run:(Ir.Prog.t -> Interp.Run.outcome) -> ?program:(Ir.Prog.t -> program) ->
  Heuristics.level -> Ir.Prog.t -> plan
(** Induction-variable hoisting is applied at every level (it is part of the
    paper's base Multiscalar compilation); loop unrolling and call inclusion
    only at [Task_size] (and at [Feedback], whose seed this is).

    [profile_input] supplies a *training* program (same structure, different
    data — e.g. {!Workloads.Registry.build_alt} on the workload side,
    transformed by the same front-end passes as [prog]): all profiling runs
    use it instead of the evaluated program, enabling cross-input studies of
    the profile-driven heuristics.  The paper profiles with the evaluation
    inputs; this option measures how much that choice matters.

    [run] (default {!Interp.Run.execute} with its default step bound)
    performs every profiling run: [ts] and [fb] make two (the program as
    given, for callee sizes, then after unrolling and hoisting, for
    dependence frequencies), [dd] one (after hoisting), [bb] and [cf] none.
    It must return what {!Interp.Run.execute} would for the same program;
    the plan is then the same whatever [run] is.

    [program] (default {!hoist}) makes the plan's record from the program
    this level hoists: the given one, or at [ts] and [fb] the unrolled
    one.  It must return a record of that program's hoisting, fresh or
    one an earlier plan was built on, whose facts and liveness the plan
    then shares. *)

val validate : plan -> (unit, string) result
(** Full static verification of a plan, delegated to [Lint.validate_plan]
    (the lint library registers itself here when linked; linking it is
    required — the fallback rejects every plan with a wiring error).  On
    failure the message is the first error diagnostic, rule id and location
    included, plus a count of any further errors. *)

val set_validator : (plan -> (unit, string) result) -> unit
(** Registration hook for the checker behind {!validate}.  Called by the
    lint library's initialiser; not intended for other use. *)

val validate_deps : plan -> (unit, string) result
(** Static dep/reg audit of a plan, delegated to the lint library's
    per-function register-dependence checker (no trace needed).  The
    cost-directed search ({!Cost.refine}) runs this, plus {!validate}, on
    every candidate before accepting it. *)

val set_dep_validator : (plan -> (unit, string) result) -> unit
(** Registration hook for the checker behind {!validate_deps}. *)

val dep_edges_of_profile :
  Interp.Profile.t -> fid:int -> Ir.Func.t -> Select.dep_edge list
(** Cross-block register dependences of one function, with profiled dynamic
    frequencies, sorted by decreasing frequency (§3.4: "prioritize the
    dependences using the execution frequency").  Dependences that never
    occurred dynamically but exist statically get frequency 0. *)
