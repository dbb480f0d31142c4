(** Depth-first numbering of a function's CFG.

    The task-selection heuristics use DFS numbers to recognise retreating
    (loop back) edges: the paper's [is_a_terminal_edge] (Figure 3). *)

type t = {
  pre : int array;   (** preorder number per block; -1 if unreachable *)
  post : int array;  (** postorder number per block; -1 if unreachable *)
  rpo : Ir.Block.label array;  (** reachable blocks in reverse postorder *)
}

val compute : Ir.Func.t -> t
(** Depth first from the entry, each block's successors in
    {!Ir.Block.iter_succs} order. *)

val is_retreating : t -> src:Ir.Block.label -> dst:Ir.Block.label -> bool
(** An edge [src -> dst] is retreating when [dst]'s postorder number is at
    least [src]'s — for reducible CFGs, exactly the loop back edges. *)
