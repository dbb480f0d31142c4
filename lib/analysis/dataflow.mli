(** Classic bit-vector dataflow over a function's CFG: liveness and reaching
    definitions, plus def-use chain extraction (the "traditional def-use
    dataflow equations" the paper relies on for register dependences).

    Register sets are bit vectors ({!Regset}): liveness costs a few words
    per block, and a fixpoint round that changes no set allocates
    nothing. *)

(** Immutable sets of architectural registers, as two machine words
    (registers 0–31 and 32–63).  Initialising the module fails if
    {!Ir.Reg.count} exceeds 64.  [add], [remove], [union], [inter] and
    [diff] return an argument unchanged (physically) when the result
    equals it. *)
module Regset : sig
  type t

  val empty : t
  val mem : Ir.Reg.t -> t -> bool
  (** [false] for registers outside 0–63. *)

  val add : Ir.Reg.t -> t -> t
  (** @raise Invalid_argument for a register outside 0–63. *)

  val remove : Ir.Reg.t -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val of_list : Ir.Reg.t list -> t

  val elements : t -> Ir.Reg.t list
  (** Ascending. *)
end

type site = {
  blk : Ir.Block.label;
  idx : int;
      (** instruction index; [idx = Array.length insns] denotes the block
          terminator (only ever a use site) *)
  reg : Ir.Reg.t;
}

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

(** {1 Reaching definitions and def-use chains} *)

type defuse = {
  sites : site array;  (** all definition sites, indexed by id *)
  pairs : (site * site) list;  (** (def, use) pairs; use may be a terminator *)
}

val def_use : Ir.Func.t -> defuse

val block_dep_edges : defuse -> (Ir.Block.label * Ir.Block.label * Ir.Reg.t) list
(** Cross-block register dependences, deduplicated: producer block,
    consumer block, register. *)
