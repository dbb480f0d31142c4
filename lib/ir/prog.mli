(** Whole programs: a set of functions, a designated [main], and initial
    memory contents (the data segment).

    The data segment is a list of runs, each a base address and the
    unboxed values of consecutive cells of one kind.  Runs are in program
    order, and where two overlap the later one wins.  Every run is
    maximal: none continues the run before it at the next address with
    the same kind, so one run prints as one [data] line ({!Pp}).  {!runs}
    is the one definition of that merge; {!Builder.finish} and
    {!Parse.program} both apply it. *)

module Smap : Map.S with type key = string

type cells = Ints of int array | Flts of float array

type t = {
  funcs : Func.t Smap.t;
  main : string;
  mem_init : (int * cells) list;  (** initial memory, as maximal runs *)
  mem_top : int;  (** first address above the static data segment *)
}

val length : cells -> int

val runs : (int * cells) list -> (int * cells) list
(** [runs pieces] merges program-order pieces into maximal runs in linear
    time: a piece that starts where the previous one ends, with the same
    kind, joins it; empty pieces are dropped; overlapping pieces stay in
    order. *)

val find : t -> string -> Func.t
(** @raise Not_found if the function does not exist. *)

val has_func : t -> string -> bool
val func_names : t -> string list
val static_size : t -> int

val map_funcs : (Func.t -> Func.t) -> t -> t

val validate : t -> (unit, string) result
(** Per-function validation plus: [main] exists, every callee exists. *)

val pp : Format.formatter -> t -> unit
