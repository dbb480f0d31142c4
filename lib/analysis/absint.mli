(** Generic worklist fixpoint engine over the interprocedural IR CFG.

    The engine is the flow-{e sensitive} counterpart of the whole-program
    join {!Memdep} starts from: it computes one abstract state per basic
    block {e entry} instead of one state per program, propagating along the
    supergraph — intra-function edges ([Jump]/[Br]/[Switch]), call edges
    ([Call (g, cont)] flows the caller's out-state into [g]'s entry), and
    return edges (every [Ret] block of [g] flows its out-state into the
    continuation block of {e every} call site of [g]).  Registers are
    architecturally global (calls neither save nor restore), so this
    context-insensitive supergraph is exactly the machine's control
    structure and needs no frame bookkeeping.

    The engine is a functor over the state lattice; {!Memdep} instantiates
    it with per-register strided intervals, but the solver itself never
    inspects states.  Client obligations:

    - [S.join] is an upper bound of its arguments;
    - [S.widen old cand] (called with [cand = join old new]) returns a
      state at least [cand] and bounds every ascending chain — the engine
      switches from plain joins to widening once a block's entry state has
      been updated 3 times, so termination is the widening operator's
      responsibility;
    - [transfer] is a sound abstract execution of one block: for any
      concrete state covered by the input, the concrete successor state is
      covered by the output;
    - [S.leq] is a sound partial-order test ([leq a b] implies every
      concrete state covered by [a] is covered by [b]); conservative
      [false] answers only reduce narrowing, never soundness.

    After the ascending pass the engine runs 2 descending
    (narrowing) passes: each block's entry state is recomputed as the join
    of its predecessors' transfer outputs (plus the entry seed) and
    accepted only when [S.leq] proves it refines the current state.  Any
    such recomputation is sound — it is one application of a sound
    transfer to sound states — so the guard only enforces monotone
    improvement and termination, not correctness. *)

module type STATE = sig
  type t

  val bot : t
  (** The unreachable state (identity of {!join}). *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old cand]: accelerate [cand] (an upper bound of [old]) to
      something that bounds ascending chains. *)

  val leq : t -> t -> bool
  (** Sound partial-order test; conservative [false] allowed. *)
end

module Make (S : STATE) : sig
  type result

  val solve :
    ?refine:(string -> Ir.Block.t -> Ir.Block.label -> S.t -> S.t) ->
    seed:(string -> S.t option) ->
    transfer:(string -> Ir.Block.t -> S.t -> S.t) ->
    Ir.Prog.t ->
    result
  (** Run the ascending worklist pass (widening past 3 updates per block)
      followed by 2 guarded descending passes.  [seed fname] is the extra
      state joined into the entry block of [fname] (the loader state for
      [main], [None] elsewhere); [transfer fname block st] abstractly
      executes one block from its entry state.  [transfer] of {!S.bot}
      should be {!S.bot} so unreachable blocks stay inert during
      narrowing.

      [refine fname block target st] filters the out-state [st] of [block]
      along its edge to [target] — the path-sensitivity hook: a client can
      narrow states using the branch condition ([Br]/[Switch]) that guards
      the edge, or return {!S.bot} for an edge it can prove untaken.  It
      must over-approximate every concrete state that flows along that
      exact edge, and is applied identically in the ascending and
      descending passes.  For interprocedural edges ([Call]/[Ret]),
      [target] is a label in the {e callee}/continuation function — a
      condition-driven client matches on [block]'s terminator and leaves
      those edges alone.  Default: identity. *)

  val entry_state : result -> string -> Ir.Block.label -> S.t
  (** The fixpoint state at a block's entry; {!S.bot} for unknown
      functions, out-of-range labels, or unreachable blocks. *)

  val func_states : result -> string -> S.t array option
  (** All block-entry states of one function, indexed by label. *)

  val updates : result -> int
  (** Total accepted state updates across the ascending pass. *)

  val widenings : result -> int
  (** Updates that went through {!S.widen}. *)

  val narrowed : result -> int
  (** States refined by the descending passes. *)
end
