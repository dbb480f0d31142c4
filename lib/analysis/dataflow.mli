(** Classic bit-vector dataflow over a function's CFG: liveness, and the
    cross-block register dependences that reaching definitions imply (the
    "traditional def-use dataflow equations" the paper relies on for
    register dependences).

    Register sets are bit vectors ({!Regset}): liveness costs a few words
    per block, and a fixpoint round that changes no set allocates
    nothing.  Dependence edges come from a forward search per defining
    block over the same bit vectors; no definition site or def-use pair is
    ever materialised. *)

(** Immutable sets of architectural registers, as two machine words
    (registers 0–31 and 32–63).  Initialising the module fails if
    {!Ir.Reg.count} exceeds 64.  [add], [remove], [union] and [diff]
    return an argument unchanged (physically) when the result
    equals it. *)
module Regset : sig
  type t

  val empty : t
  val all : t
  (** Every register, 0 to [Ir.Reg.count - 1]. *)

  val mem : Ir.Reg.t -> t -> bool
  (** [false] for registers outside 0–63. *)

  val add : Ir.Reg.t -> t -> t
  (** @raise Invalid_argument for a register outside 0–63. *)

  val remove : Ir.Reg.t -> t -> t
  val union : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val of_list : Ir.Reg.t list -> t

  val elements : t -> Ir.Reg.t list
  (** Ascending. *)
end

val term_uses : Ir.Block.terminator -> Ir.Reg.t list
(** Registers read by a terminator ([Br]/[Switch] conditions; [Call] reads
    the argument registers since the callee may consume them). *)

(** {1 Liveness} *)

type liveness = {
  live_in : Regset.t array;
  live_out : Regset.t array;
}

val liveness :
  ?exit_live:Regset.t -> ?call_uses:Regset.t -> Ir.Func.t -> liveness
(** Backward liveness.  [exit_live] is the set assumed live at [Ret]/[Halt];
    it defaults to all registers (a callee cannot know what its caller still
    needs — the conservative choice the paper's dead-register analysis also
    has to make at function boundaries).  [call_uses] is what a [Call]
    terminator is assumed to read; it defaults to the argument registers,
    but interprocedurally-sound analyses (registers are architecturally
    global, so a callee may read anything) should pass all registers. *)

val sound_live_in : Ir.Func.t -> Regset.t array
(** The interprocedurally sound live-in sets, per block:
    [(liveness ~call_uses:Regset.all f).live_in].  The one definition of
    the liveness that register communication's dead-register facts and
    the dependence analysis's exports read (a plan holds one table per
    function: [Core.Partition.live_in]). *)

(** {1 Cross-block dependences} *)

val block_dep_edges :
  Ir.Func.t -> (Ir.Block.label * Ir.Block.label * Ir.Reg.t) list
(** The distinct cross-block register dependences of reaching definitions,
    as (producer block, consumer block, register), in ascending order: [r]
    is defined in the producer, read before any write in the consumer
    (its upward-exposed uses, {!Ir.Reg.zero} excepted, a [Call] reading
    the argument registers), and some CFG path from the producer's end to
    the consumer's entry passes through no other block that defines [r].
    Producer and consumer differ; a definition that only reaches its own
    block around a loop is no edge.  Computed by a forward search from
    each defining block's successors that stops, per register, at blocks
    that define it. *)
