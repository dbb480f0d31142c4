(** Static address analysis for memory dependences.

    The task-selection heuristics reason about register def-use chains;
    memory dependences between tasks are invisible to every static layer
    and only surface dynamically as squash cycles.  This module supplies
    the missing static half: a whole-program over-approximation of the
    effective addresses every [Load]/[Store] site can touch, from which
    {!Core.Depend} derives may-dependences between tasks.

    {2 Abstract domain}

    A register's abstract value is a {e strided interval}
    [{ x | lo <= x <= hi, x = lo (mod stride) }] with [min_int]/[max_int]
    standing for -inf/+inf — enough to classify the two address patterns the
    workload generators emit: affine [base + k] frames and induction
    [base + i*stride] array walks.  Anything the domain cannot track
    (division, shifts by a register amount, float round-trips, values
    loaded back from memory once the store set is imprecise) falls to the
    full interval, i.e. "may alias anything".

    {2 Soundness argument}

    Registers are architecturally global (any def anywhere in the program
    may reach any use: calls neither save nor restore), so the analysis
    joins over {e every} definition in {e every} function plus the loader
    state (all registers 0, [sp] = the initial stack pointer), iterating to
    a fixpoint with interval widening.  Memory is a single abstract cell:
    the join of the data-segment initialisation and every stored value, so
    a [Load] result over-approximates anything the program could ever have
    written.  By induction over execution steps, every runtime register
    value is contained in its abstract value, hence every runtime effective
    address [base + disp] is contained in the site's {!site.region}.  The
    [dep/sound] lint rule re-checks this claim against the recorded dynamic
    traces of the whole suite.

    {2 Flow-sensitive refinement}

    On top of the flow-insensitive result, {!analyze} runs the generic
    {!Absint} worklist engine instantiated with per-register strided
    intervals and a {e partitioned} abstract memory: one cell per disjoint
    static region (the negative half-line, data-segment objects delimited
    by address literals and initialised-run starts, the live stack below
    the loader's [sp] and the untouched tail above it).  Loads join only
    the cells their address region may touch; stores weak-update them.
    The engine solves for block-entry register states against frozen
    cells, the implied stores are folded back in, and the outer loop
    repeats until memory stabilises (cells still moving past the round
    budget are pinned to the flow-insensitive memory join, which is sound
    and forces termination).

    The refined per-site regions returned by {!sites} are clamped to the
    flow-insensitive ones: a refined region is kept only when {!leq}
    proves it a subset of the old region, otherwise the old region
    survives — so the flow-insensitive analysis remains a mandatory
    refinement bound ([absint/refines]) and the result can only get
    sharper, never stranger.  The [absint/sound] lint rule grounds the
    refined regions against recorded traces exactly like [dep/sound]
    does for the flow-insensitive ones. *)

(** {1 Values} *)

type value
(** An over-approximated set of integers (strided interval, or empty). *)

val bot : value
(** The empty set. *)

val top : value
(** Every integer ("may alias anything"). *)

val singleton : int -> value

val range : ?stride:int -> int -> int -> value
(** [range ?stride lo hi] is [{ lo, lo+stride, ... } ∩ [lo, hi]]; [stride]
    defaults to 1.  [min_int]/[max_int] denote unbounded ends.  Empty when
    [lo > hi]. *)

val join : value -> value -> value

val may_intersect : value -> value -> bool
(** Can the two sets share an element?  Over-approximate: [true] whenever
    the intervals overlap and the stride congruences are compatible; never
    [false] for sets with a real common element. *)

val leq : value -> value -> bool
(** Subset test: [leq a b] implies every element of [a] is in [b] (bound
    containment plus stride congruence).  Conservative: [false] answers
    are allowed and only cost precision, never soundness. *)

val contains : value -> int -> bool
(** Membership of a concrete machine word.  Never [false] for a word the
    abstract value covers. *)

val width : value -> int option
(** Number of concrete values in the set, when finite and representable:
    [Some 0] for {!bot}, [None] for unbounded regions (or spans so wide
    the count itself would overflow). *)

val is_top : value -> bool
val is_bot : value -> bool

val equal : value -> value -> bool
(** Structural equality of the abstract values (not set equality of [Bot]
    corner cases — normalisation makes the two coincide in practice). *)

val pp_value : Format.formatter -> value -> unit
val value_to_string : value -> string

(** {1 Whole-program analysis} *)

type t

val analyze : sp:int -> Ir.Prog.t -> t
(** Run the global fixpoint.  [sp] is the loader's initial stack-pointer
    value ({!Interp.Run.initial_sp} for real executions — this library
    cannot depend on the interpreter, so the caller passes it in). *)

val rounds : t -> int
(** Fixpoint iterations taken (diagnostics). *)

type site = {
  blk : Ir.Block.label;
  idx : int;  (** instruction index within the block *)
  store : bool;
  region : value;  (** addresses the access may touch: [base + disp] *)
}

val sites : t -> string -> site list
(** All memory-access sites of the named function, in block/index order.
    Empty for unknown functions.  Regions are the {e refined} ones: the
    flow-sensitive {!Absint} solution replayed with strong updates from
    each block's entry state, clamped per site to the flow-insensitive
    region (the refinement bound) — an unreachable block's sites carry
    {!bot}. *)

val fi_sites : t -> string -> site list
(** The flow-insensitive baseline sites: same functions, same site order
    and skeleton as {!sites}, regions computed from the whole-program
    join with block-local strong-update sharpening only.  Every region
    returned by {!sites} satisfies [leq refined fi]. *)

val partition : t -> value array
(** The disjoint static regions of the partitioned abstract memory, in
    ascending address order; their union covers every integer. *)

type ai_stats = {
  updates : int;  (** accepted state updates in the ascending pass *)
  widenings : int;  (** updates that went through widening *)
  narrowed : int;  (** states refined by the descending passes *)
  outer_rounds : int;  (** solve/accumulate iterations of the cell loop *)
  saturated_cells : int;  (** cells pinned to the flow-insensitive join *)
}

val ai_stats : t -> ai_stats
(** Diagnostics of the flow-sensitive refinement (last engine run). *)

val classify : t -> value -> [ `Data | `Stack | `Any ]
(** Coarse base-region classification of an address set: entirely inside
    the static data segment ([0, mem_top)), entirely at or above it (the
    stack grows down from [sp] far above [mem_top]), or straddling /
    unbounded. *)
