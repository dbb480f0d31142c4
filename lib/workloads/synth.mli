(** Seeded, parameterized synthetic IR program generators.

    This is the corpus definition shared by the qcheck test suites
    ([test/gen.ml] is a thin shim over this module), the [msc fuzz]
    subcommand, its [msc check fuzz] entry and the daemon fuzz op: one
    generator family, spanning the structure space the partitioner and the
    static analyses must survive (call depth, loop-nest shape, branch
    density, switch fan-out, memory stride/aliasing, early returns).

    Programs are built through {!Ir.Builder}, so they are structurally valid
    by construction; every loop is counted with a constant bound and every
    division is guarded, so they terminate.  Generation is fully
    deterministic: [generate ~profile ~seed] depends only on its
    arguments. *)

module Profile : sig
  type t = {
    name : string;
    description : string;
    call_depth : int;  (** length of the non-recursive helper chain (0 = leaf programs) *)
    nest_depth : int;  (** max structural nesting depth in [main] *)
    op_budget : int;  (** construct budget for [main]'s body *)
    max_iters : int;  (** counted-loop trip bound (0 disables loops) *)
    branch_pct : int;  (** weight of if/when among constructs *)
    switch_fanout : int;  (** max switch arms (0 disables switches) *)
    mem_cells : int;  (** cells per scratch region; must be a power of two *)
    mem_stride : int;  (** element stride of region accesses *)
    regions : int;  (** distinct scratch regions *)
    alias : bool;  (** overlap the regions (aliased address spaces) *)
    early_ret_pct : int;  (** weight of guarded early returns *)
    straight_max : int;  (** straight-line run length bound *)
    use_float : bool;  (** mix in FP arithmetic, compares and conversions *)
  }

  val default : t
  (** Balanced mix mirroring the historical [test/gen.ml] generator. *)

  val all : t list
  (** The named corpus family, [default] first. *)

  val find : string -> t option
  (** Look up a profile of {!all} by name. *)
end

val program_seed : seed:int -> index:int -> int
(** Derive the per-program seed for position [index] of a corpus run rooted
    at [seed].  Shared by the CLI, benchmark and daemon drivers so the same
    [(seed, index)] always names the same program. *)

val generate : profile:Profile.t -> seed:int -> Ir.Prog.t
(** Deterministically generate one program.  The result passes
    {!Ir.Prog.validate} and terminates under {!Interp.Run.execute}. *)

val shrink_candidates : Ir.Prog.t -> Ir.Prog.t list
(** Structurally smaller variants of a program, most aggressive first:
    dropped helper functions (calls rewritten to fall through), collapsed
    branch/switch/call terminators, and dropped instruction runs.  Every
    candidate passes {!Ir.Prog.validate}; callers wanting semantic health
    (e.g. no use-before-def) must filter further.  Used by the fuzz
    minimizer's greedy shrink loop. *)
