(** Static code layout: assigns every block a code address (for the I-cache)
    and a dense static id (used as predictor PC and for the memory-dependence
    synchronization table). *)

type t

val create : Ir.Func.t array -> t
(** Functions indexed by fid (as in {!Interp.Trace.t}), laid out
    sequentially, one word per instruction, above the data segment. *)

val block_addr : t -> fid:int -> blk:Ir.Block.label -> int
(** Word address of the block's first instruction. *)

val block_id : t -> fid:int -> blk:Ir.Block.label -> int
(** Dense static block id, unique across functions. *)

val site_id : t -> fid:int -> blk:Ir.Block.label -> idx:int -> int
(** Dense static instruction id: the instruction's offset in the code
    layout, so every site of every block is distinct. *)

val num_blocks : t -> int
