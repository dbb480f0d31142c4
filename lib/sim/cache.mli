(** Set-associative LRU caches and the two-level hierarchy of §4.2.

    A cache's tags and LRU ages are allocated a page of 64 sets at a time,
    when a probe first names a set in the page ({!Occ.Pages}), so a cache
    costs what a run touches of it. *)

val slot : block_words:int -> slots:int -> int -> int
(** [slot ~block_words ~slots addr] is the slot, in \[0, [slots]), of the
    [block_words]-word block holding word address [addr]: the block is
    [addr / block_words] rounded down, the slot its non-negative remainder
    modulo [slots].  A cache's set, and the engines' D-cache/ARB bank.
    Negative addresses map too; non-negative ones map as with truncating
    division. *)

type t

val create : sets:int -> ways:int -> block_words:int -> t
(** Raises [Invalid_argument] unless [sets >= 1], [1 <= ways <= 256] (LRU
    ages take a byte per way) and [block_words >= 1]. *)

val access : t -> int -> bool
(** Word-address access; returns hit, updates LRU, fills on miss.  The
    set is {!slot}'s; the tag is the block divided by the sets, rounded
    down. *)

val accesses : t -> int
val misses : t -> int

(** A two-level data/instruction hierarchy; returns access latency. *)
module Hierarchy : sig
  type h

  val create : Config.t -> h
  (** Shares one L2 between the I- and D-side L1s. *)

  val reset : h -> unit
  (** Back to the state {!create} made: in each of the three caches every
      set empty, its touched pages dropped ({!Occ.Pages.reset}), both
      counters 0. *)

  val dload : h -> int -> int
  (** Latency of a data access at the given word address. *)

  val ifetch : h -> int -> int
  (** Latency of an instruction fetch at the given word address (0 when the
      line is already resident, i.e. the common hit case costs nothing extra
      beyond the pipeline's fetch stage). *)

  val l1d : h -> t
  val l1i : h -> t
  val l2 : h -> t
end
