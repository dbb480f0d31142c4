(** Runtime values of the IR machine: tagged integers and floats. *)

type t =
  | Int of int
  | Flt of float

val zero : t

val is_true : t -> bool
(** Branch truth: nonzero integer or nonzero float. *)

val to_int : t -> int
(** Integer view; floats are truncated. *)

val to_float : t -> float

val equal : t -> t -> bool
val to_string : t -> string
