(** Parseable textual form of programs (the format {!Parse.program} reads). *)

val program_text : Prog.t -> string
(** Serialise a program; [Parse.program (program_text p)] round-trips. *)

val dot_of_func : ?partition:(Block.label -> int) -> Func.t -> string
(** Graphviz dot of a function's CFG.  With [partition], blocks are coloured
    by task index (the value returned for each block's label). *)
