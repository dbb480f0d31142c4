(** Whole-program task selection: the paper's [task_selection()] driver.

    Builds, for a given heuristic level, the transformed program and a closed
    per-function partition.  Profiling (for dependence frequencies and callee
    sizes) is done by running the interpreter on the program itself, playing
    the role of the paper's SPEC95 profiling runs. *)

type plan = {
  level : Heuristics.level;
  params : Heuristics.params;
  prog : Ir.Prog.t;   (** program after this level's transformations *)
  parts : Task.partition Ir.Prog.Smap.t;  (** per-function partitions *)
}

val build :
  ?params:Heuristics.params -> ?profile_input:Ir.Prog.t -> Heuristics.level ->
  Ir.Prog.t -> plan
(** Induction-variable hoisting is applied at every level (it is part of the
    paper's base Multiscalar compilation); loop unrolling and call inclusion
    only at [Task_size] (and at [Feedback], whose seed this is).

    [profile_input] supplies a *training* program (same structure, different
    data — e.g. {!Workloads.Registry.build_alt} on the workload side,
    transformed by the same front-end passes as [prog]): all profiling runs
    use it instead of the evaluated program, enabling cross-input studies of
    the profile-driven heuristics.  The paper profiles with the evaluation
    inputs; this option measures how much that choice matters. *)

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
