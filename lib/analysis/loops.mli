(** Natural loops.

    A back edge [latch -> header] (where [header] dominates [latch]) defines
    the natural loop: [header] plus all blocks that reach [latch] without
    passing through [header].  Loops with the same header are merged.

    The task-selection heuristics need to know, per block, whether it is a
    loop header or a loop end (latch), and, per edge, whether it enters or
    leaves a loop (paper §3.2: "Entry into loops, exit out of loops and
    function calls always terminate tasks"). *)

type loop = {
  header : Ir.Block.label;
  blocks : Ir.Block.label list;   (** includes the header; sorted *)
  latches : Ir.Block.label list;  (** sources of back edges, ascending *)
  static_size : int;              (** static instructions in the loop body *)
}

type t = {
  loops : loop list;
      (** by decreasing block count, equal counts by decreasing header *)
  is_header : bool array;
  is_latch : bool array;
  innermost : int array;
      (** index into [loops] of the innermost loop containing each block,
          or -1 *)
}

val compute : Ir.Func.t -> Dom.t -> Ir.Func.table -> t
(** [compute f dom preds] from [f]'s dominators ({!Dom.compute}) and its
    {!Ir.Func.pred_table}: the back edges into a header are its rows'
    predecessors it dominates, and a loop's blocks are marked walking back
    through the table from its latches.  A natural loop includes the
    unreachable blocks that reach a latch. *)

val crosses_boundary : t -> src:Ir.Block.label -> dst:Ir.Block.label -> bool
(** Does the edge enter or exit some loop (its innermost-loop membership
    differs)? *)
