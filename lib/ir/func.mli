(** Functions: a CFG of basic blocks with a single entry.

    Invariants (checked by {!validate}):
    - [blocks.(i).label = i] for all [i];
    - the entry block is block 0;
    - every successor label is in range;
    - every register an instruction names, and every branch or switch
      condition, is a valid register ({!Reg.is_valid});
    - every block is either reachable from the entry or the function has been
      through {!drop_unreachable}. *)

type t = {
  name : string;
  blocks : Block.t array;
}

val entry : Block.label

val block : t -> Block.label -> Block.t
val num_blocks : t -> int

val successors : t -> Block.label -> Block.label list
(** [Block.successors] of the block with this label. *)

type table = {
  first : int array;
      (** [num_blocks + 1] offsets: block [l]'s row is
          [adj.(first.(l))] .. [adj.(first.(l + 1) - 1)] *)
  adj : Block.label array;  (** every row, in block order *)
}
(** A compressed adjacency table of the CFG: one row per block, all rows in
    one array.  Built by {!Block.iter_succs}, so every edge [b -> s]
    appears once however often the terminator names [s]. *)

val pred_table : t -> table
(** Row [l] holds the predecessors of block [l], ascending, unreachable
    ones included. *)

val succ_table : t -> table
(** Row [l] holds the successors of block [l] in {!Block.iter_succs}
    order. *)

val predecessors : t -> Block.label list array
(** {!pred_table}'s rows as lists. *)

val static_size : t -> int
(** Total static instruction count (including terminators). *)

val callees : t -> string list
(** Names of functions called, without duplicates. *)

val drop_unreachable : t -> t
(** Remove blocks not reachable from the entry, relabelling the rest. *)

val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
