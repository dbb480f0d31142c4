(** Codependent sets for the data-dependence heuristic: "the set of basic
    blocks in all the control flow paths from the producer to the
    consumer" (paper §3.4). *)

val codependent :
  Ir.Func.t -> Ir.Func.table -> producer:Ir.Block.label ->
  consumer:Ir.Block.label -> Bytes.t
(** [codependent f preds ~producer ~consumer], given [f]'s
    {!Ir.Func.pred_table}, holds one byte per block: ['\001'] for the
    blocks lying on some path producer → consumer (both included),
    ['\000'] for the rest; all ['\000'] when the consumer is unreachable
    from the producer. *)
