(** Dominator tree (Cooper–Harvey–Kennedy iterative algorithm). *)

type t = {
  idom : int array;
      (** immediate dominator per block; the entry's idom is itself;
          -1 for unreachable blocks *)
}

val compute : Dfs.t -> Ir.Func.table -> t
(** [compute dfs preds] from the function's DFS numbering ({!Dfs.compute})
    and its {!Ir.Func.pred_table}: each reachable block's predecessors are
    met in reverse postorder, in the table's ascending order, until no
    immediate dominator changes. *)

val dominates : t -> Ir.Block.label -> Ir.Block.label -> bool
(** [dominates t a b] — does [a] dominate [b] (reflexively)? *)
