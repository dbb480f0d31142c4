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

val predecessors : t -> Block.label list array
(** Predecessor lists for all blocks, computed in one pass. *)

val static_size : t -> int
(** Total static instruction count (including terminators). *)

val callees : t -> string list
(** Names of functions called, without duplicates. *)

val drop_unreachable : t -> t
(** Remove blocks not reachable from the entry, relabelling the rest. *)

val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
