(** Basic blocks and their terminators.

    A block holds straight-line instructions plus exactly one terminator.
    Within a function, blocks are identified by their index in the function's
    block array ([label = int]). *)

type label = int

type terminator =
  | Jump of label
  | Br of Reg.t * label * label
      (** [Br (cond, if_true, if_false)]: taken when [cond] is non-zero. *)
  | Switch of Reg.t * label array * label
      (** [Switch (idx, targets, default)]: indexed jump; out-of-range values
          go to [default]. *)
  | Call of string * label
      (** [Call (callee, cont)]: call [callee]; execution resumes at block
          [cont] of the calling function after the callee returns. *)
  | Ret
  | Halt

type t = {
  label : label;
  insns : Insn.t array;
  term : terminator;
}

val iter_succs : (label -> unit) -> t -> unit
(** [iter_succs f b] calls [f] on each distinct intra-function CFG
    successor of [b] once (for [Call] this is the continuation), in this
    order: [Jump] and [Call] their one label; [Br (_, l1, l2)] [l1] then
    [l2], once if they are equal; [Switch] its distinct labels, the
    default among them, ascending; [Ret] and [Halt] none.  Allocates
    nothing beyond what [f] does.  A switch's labels are found by repeated
    minimum, so its walk takes time quadratic in its distinct labels (a
    switch of the 18 workloads or of the seed-42 synthetic corpus has at
    most 9: 8 targets and the default). *)

val successors : t -> label list
(** The labels {!iter_succs} visits, in its order. *)

val map_term :
  label:(label -> label) -> cond:(Reg.t -> Reg.t) -> terminator -> terminator
(** [map_term ~label ~cond t] is [t] with every label it names (a [Call]'s
    continuation, each of a [Switch]'s labels however often it is
    repeated) replaced by [label l], and a [Br] or [Switch] condition by
    [cond c]: the one definition of rewriting a terminator. *)

val size : t -> int
(** Static instruction count, including the terminator (counted as one
    control-transfer instruction, except fall-through [Jump]s which real
    code would not need are still counted as one). *)

val pp : Format.formatter -> t -> unit
