(** Differential fuzzing harness over the synthetic corpus.

    Runs {!Workloads.Synth} programs through every heuristic selection
    level and applies the verification layers built across the repo as an
    oracle stack, per program.  Each program is built, as a
    {!Workloads.Registry.of_program} entry, through a private
    {!Harness.Artifact} store: its levels share interpreter runs and preps
    as the suite's do, a failed run is not cached (each level reports its
    own crash), no fuzz program enters a shared store, and memory is
    bounded by one program's store per domain.  Every run has the
    interpreter's one step bound (30 million); fuzzing sets none of its
    own.  Each level's artifact goes through {!Lint.check_artifact}, its
    errors reported by rule family:

    - [lint]: {!Lint.check_prog} on the program, and the plan's [ir/*],
      [part/*] and [regcomm/*] rules (a plan error skips the level's
      other oracles);
    - [roundtrip]: {!Lint.check_roundtrip} — the textual dump re-parses to
      the identical program;
    - [crash]: an interpreter run raised {!Interp.Run.Runtime_error} (a
      division by zero, the step bound) while the level's artifact was
      built, or its checks raised;
    - [plan]: building the artifact raised any other exception;
    - [trace]: [trace/*] — the packed trace decodes cleanly;
    - [dep]: [dep/*] — zero [dep/sound] violations, [dep/reg] agreement;
    - [absint]: [absint/*] — every traced address inside its refined
      abstract region, and the refinement never looser than the
      flow-insensitive bound;
    - [acct]: [acct/*] — cycle conservation exact on every
      {!Lint.acct_configs} machine;
    - [cost]: [cost/*] — predicted shares conserve and rederive
      bit-identically;
    - [fb-bound]: the [fb] plan's static scalar cost never exceeds its
      [ts] seed's;
    - [ref-diff]: on a sampled subset, {!Sim_ref.Engine_ref.differential}
      over the store's prep on every {!Lint.acct_configs} machine.

    Any violation carries the [(profile, seed)] pair that regenerates the
    offending program; {!minimize} shrinks it and {!dump_reproducer}
    writes a re-parseable regression file. *)

type config = {
  seed : int;  (** corpus root seed *)
  n : int;  (** total programs, spread round-robin over [profiles] *)
  profiles : Workloads.Synth.Profile.t list;
  levels : Core.Heuristics.level list;
  ref_sample : int;
      (** run the sim_ref differential on every [ref_sample]-th program
          (0 disables it) *)
  fault_hook : (Ir.Prog.t -> Ir.Prog.t) option;
      (** debug: when set, every generated program passes through it
          before the oracle stack — how tests and [--inject-fault] seed
          known-bad programs to prove the harness catches and shrinks
          them *)
}

val default_config : config
(** seed 42, n 200, every profile, all five levels, 1-in-10 sim_ref
    sampling, no fault hook.  Every program is simulated on the
    {!Lint.acct_configs} machines. *)

type violation = {
  v_profile : string;
  v_index : int;  (** corpus position *)
  v_seed : int;  (** per-program generator seed ({!Workloads.Synth.program_seed}) *)
  v_level : string;  (** level tag, or ["-"] for program-wide oracles *)
  v_oracle : string;  (** ["lint"], ["roundtrip"], ["crash"], ["plan"],
                          ["trace"], ["dep"], ["absint"], ["acct"],
                          ["cost"], ["fb-bound"] or ["ref-diff"] *)
  v_detail : string;
}

type report = {
  p_profile : string;
  p_index : int;
  p_seed : int;
  p_violations : violation list;
  p_ref_checked : bool;
  p_funcs : int;  (** structure-space accounting for the corpus histogram *)
  p_blocks : int;
  p_insns : int;  (** static instructions *)
}

type shape = {
  s_programs : int;
  s_funcs : int;  (** summed over the profile's programs *)
  s_blocks : int;
  s_insns : int;
}

type outcome = {
  o_config : config;
  o_programs : int;
  o_checks : int;  (** program x level oracle applications *)
  o_violations : violation list;  (** corpus order *)
  o_records : Harness.Job.fuzz list;  (** one per profile, profile order *)
  o_shapes : (string * shape) list;  (** structure-space histogram *)
  o_wall_seconds : float;
}

val inject_div0 : seed:int -> Ir.Prog.t -> Ir.Prog.t
(** The canned injected fault: a deterministic (seeded) unguarded
    [div .., .., #0] inserted into one block of [main], which the [crash]
    oracle catches at the first execution. *)

val check_value : config -> profile:string -> index:int -> seed:int ->
  Ir.Prog.t -> report
(** The oracle stack over one concrete program (no generation, no fault
    hook) — what {!minimize} predicates and regression tests call. *)

val program : config -> index:int -> Ir.Prog.t
(** Program [index] of the corpus: generated from the profile the index
    picks round-robin and the seed {!Workloads.Synth.program_seed} gives
    it, then passed through the config's [fault_hook]. *)

val check_one : config -> index:int -> report
(** {!check_value} on {!program}. *)

val run : ?jobs:int -> ?progress:(done_:int -> total:int -> unit) ->
  config -> outcome
(** The whole corpus through {!check_one} on the {!Harness.Pool} domains.
    Deterministic in [config] regardless of [jobs];
    [progress] is called from the coordinating domain only. *)

val invariants : outcome -> string list
(** The corpus gate: one {!violation_text} line per oracle violation, in
    corpus order.  Empty when every program passed every oracle. *)

val records_of_reports : config -> report list -> Harness.Job.fuzz list
(** Fold per-program reports into the per-profile {!Harness.Job.fuzz}
    aggregates ([run] does this internally; exposed for the daemon, which
    streams reports). *)

val minimize : fails:(Ir.Prog.t -> bool) -> Ir.Prog.t -> Ir.Prog.t
(** Greedy shrink to a local minimum: repeatedly replace the program with
    its first {!Workloads.Synth.shrink_candidates} candidate that is still
    structurally valid, [ir/*]-clean {e and} still satisfies [fails].
    Deterministic: candidate order is fixed, first hit wins. *)

val fails_oracle : config -> oracle:string -> Ir.Prog.t -> bool
(** Does {!check_value} report at least one violation of [oracle]?  The
    standard predicate handed to {!minimize}. *)

val dump_reproducer :
  dir:string -> name:string -> Ir.Prog.t -> (string, string) result
(** Write the program to [dir/name.ir] through {!Ir.Pp.program_text},
    re-parse the written bytes and fail if they do not reproduce the
    program ([Ok path] otherwise).  [dir] is created if missing. *)

val violation_text : violation -> string
(** One-line human rendering: profile, index, seed, level, oracle, detail. *)
