(** Flat occupancy windows, generation-stamped scratch maps and
    first-touch tables — the data layer of the event-driven simulator core
    (DESIGN.md §10).

    A {!Slots.t} models a banked resource with a per-cycle capacity (ARB
    bank ports, ring injection slots) as rows of byte counts over a
    sliding window of cycles.  Probes are O(1) byte reads and
    {!Slots.find_free} jumps over fully booked regions in one scan — the
    event-queue replacement for the old per-cycle [Hashtbl.mem] loops.
    The owner raises a floor below which it never probes again; the rows
    keep only the cycles from the floor up, sliding in place, so their
    size follows the widest window in use rather than the length of the
    run.

    An {!Intmap.t} is an open-addressing [int -> int] map whose {!Intmap.clear}
    is O(1) (generation bump), so per-task and per-flight scratch maps can
    be reused without allocating or rehashing in the steady state.

    A {!Pages.t} is a fixed-length table that allocates a page of it only
    when the page is first touched, so the machine's large tables (the
    L2's tags and ages, the 64K-entry predictors) cost what a run touches
    rather than what the machine holds. *)

module Slots : sig
  type t

  val create : rows:int -> hint:int -> t
  (** [rows] resources, each a window of initially [hint] cycles (at least
      64) starting at cycle 0, which is also the initial floor. *)

  val raise_floor : t -> int -> unit
  (** Promise that no probe names a cycle below the given one again;
      reservations below it are forgotten.  Raises [Invalid_argument]
      if it is below the current floor. *)

  val reset : t -> unit
  (** Back to the state {!create} made: every reservation dropped and the
      window and floor at cycle 0.  A row keeps the length it grew to,
      which no probe can observe. *)

  val capacity : t -> int
  (** Cycles each row holds now.  A row slides when a reservation falls
      past its end and grows (to twice the span) only when the span from
      the floor to that reservation fills half of it. *)

  val count : t -> row:int -> int -> int
  (** Reservations currently held at (row, cycle); 0 beyond the window. *)

  val take : t -> row:int -> int -> unit
  (** Add one reservation at (row, cycle), sliding or growing the rows if
      needed.  At most 255 per (row, cycle). *)

  val find_free : t -> row:int -> cap:int -> from:int -> int
  (** Earliest cycle [>= from] with fewer than [cap] reservations. *)

  val reserve : t -> row:int -> cap:int -> from:int -> int
  (** [find_free] then [take]; returns the reserved cycle.

      Every probe ([count], [take], [find_free], [reserve]) raises
      [Invalid_argument] on a cycle below the floor. *)
end

module Intmap : sig
  type t

  val create : int -> t
  (** Capacity hint (entries); the table grows past it on demand. *)

  val clear : t -> unit
  (** O(1): invalidates every entry by bumping the generation. *)

  val cardinal : t -> int

  val find : t -> int -> int
  (** Value for the key, or [-1] when absent.  Stored values must be
      non-negative. *)

  val mem : t -> int -> bool

  val set : t -> int -> int -> unit
  (** Insert or replace.  The value must be non-negative. *)

  val iter : t -> (int -> int -> unit) -> unit
end

module Pages : sig
  type 'p t
  (** A fixed-length table of rows, each of the same number of entries
      (its width), held as pages of 64 rows behind a page index.  ['p]
      is a page: [Bytes.t] for byte entries, [int array] for int
      entries.  Every slot of the index starts as one shared empty page
      that is never written; the first {!page} call that names a page
      allocates it, filled with the table's initial row. *)

  val bytes : rows:int -> init:string -> Bytes.t t
  (** [rows] rows of [String.length init] byte entries, each row starting
      as [init].  Allocates only the page index. *)

  val ints : rows:int -> width:int -> init:int -> int array t
  (** [rows] rows of [width] int entries, each starting as [init].
      Allocates only the page index. *)

  val page : 'p t -> int -> 'p
  (** The page holding the given row, allocated on first touch.  The
      row's entries start at {!offset} in it. *)

  val offset : 'p t -> int -> int
  (** Index in its page of the given row's first entry:
      [(row mod 64) * width]. *)

  val reset : 'p t -> unit
  (** Back to the state {!bytes} or {!ints} made: every slot of the index
      is the shared empty page again, so the touched pages are dropped,
      not kept, and a later {!page} allocates afresh. *)
end
