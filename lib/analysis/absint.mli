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
    inspects states.  States are mutable buffers: the engine owns one per
    supergraph node and a few scratch buffers, and every operation writes
    its result into a buffer it is handed, so a step of the solve allocates
    only what the client's own operations allocate.  Client obligations:

    - [S.join_into dst src] leaves in [dst] an upper bound of the old [dst]
      and [src];
    - [S.widen_into ~old dst] (called with [dst = join old new]) leaves in
      [dst] a state at least [dst] that bounds every ascending chain — the
      engine switches from plain joins to widening once a block's entry
      state has been updated 3 times, so termination is the widening
      operator's responsibility;
    - [transfer ~src ~dst] is a sound abstract execution of one block: for
      any concrete state covered by [src], the concrete successor state is
      covered by what it leaves in [dst];
    - [S.leq] is a sound partial-order test ([leq a b] implies every
      concrete state covered by [a] is covered by [b]); conservative
      [false] answers only reduce narrowing, never soundness;
    - no operation keeps a reference to a buffer it is handed, and none
      writes to any buffer but its destination: [src], [old] and every
      buffer the engine hands out are read-only.

    After the ascending pass the engine runs 2 descending
    (narrowing) passes: each block's entry state is recomputed as the join
    of its predecessors' transfer outputs (plus the entry seed) and
    accepted only when [S.leq] proves it refines the current state.  Any
    such recomputation is sound — it is one application of a sound
    transfer to sound states — so the guard only enforces monotone
    improvement and termination, not correctness. *)

module type STATE = sig
  type t
  (** A mutable state buffer. *)

  val create : unit -> t
  (** A fresh buffer holding the unreachable state (identity of
      {!join_into}). *)

  val is_bot : t -> bool
  (** Does the buffer hold the unreachable state? *)

  val assign : t -> t -> unit
  (** [assign dst src] copies [src] into [dst]. *)

  val join_into : t -> t -> unit
  (** [join_into dst src]: [dst] becomes the join of [dst] and [src]. *)

  val widen_into : old:t -> t -> unit
  (** [widen_into ~old dst]: accelerate [dst] (an upper bound of [old]) to
      something that bounds ascending chains. *)

  val equal : t -> t -> bool

  val leq : t -> t -> bool
  (** Sound partial-order test; conservative [false] allowed. *)
end

module Make (S : STATE) : sig
  type result

  val solve :
    ?refine:
      (string -> Ir.Block.t -> Ir.Block.label -> src:S.t -> dst:S.t -> unit) ->
    ?again:(result -> bool) ->
    seed:(string -> S.t option) ->
    transfer:(string -> Ir.Block.t -> src:S.t -> dst:S.t -> unit) ->
    Ir.Prog.t ->
    result
  (** Run the ascending worklist pass (widening past 3 updates per block)
      followed by 2 guarded descending passes.  [seed fname] is the extra
      state joined into the entry block of [fname] (the loader state for
      [main], [None] elsewhere); the engine reads it as each round starts.
      [transfer fname block ~src ~dst] abstractly executes one block from
      its entry state [src] into [dst].  [transfer] of an unreachable
      [src] should leave [dst] unreachable, so unreachable blocks stay
      inert during narrowing.

      [refine fname block target ~src ~dst] filters the out-state [src] of
      [block] along its edge to [target] into [dst] — the path-sensitivity
      hook: a client can narrow states using the branch condition
      ([Br]/[Switch]) that guards the edge, or leave [dst] unreachable for
      an edge it can prove untaken.  It must over-approximate every
      concrete state that flows along that exact edge, and is applied
      identically in the ascending and descending passes.  For
      interprocedural edges ([Call]/[Ret]), [target] is a label in the
      {e callee}/continuation function — a condition-driven client matches
      on [block]'s terminator and leaves those edges alone.  Default: the
      out-state itself.

      [again r] (default: never) is called with each round's result; when
      it answers [true], the engine solves once more over the same
      supergraph and state buffers, reset to bottom, with zero counts and
      the seeds read afresh, and returns the last round's result.  A
      client whose [transfer] reads something the previous round's states
      determine (Memdep's abstract memory) updates it here.  A round's
      states are the engine's buffers, so they are valid until [again]
      returns [true]; the returned result's stay valid. *)

  val entry_state : result -> string -> Ir.Block.label -> S.t
  (** The fixpoint state at a block's entry (the engine's buffer, read-only,
      valid until the next round); an unreachable state for unknown
      functions, out-of-range labels, or unreachable blocks. *)

  val func_states : result -> string -> S.t array option
  (** All block-entry states of one function, indexed by label: the
      engine's buffers, read-only and valid until the next round. *)

  val updates : result -> int
  (** Total accepted state updates across the round's ascending pass. *)

  val widenings : result -> int
  (** Updates that went through {!S.widen_into}. *)

  val narrowed : result -> int
  (** States refined by the descending passes. *)
end
