(** Packed dynamic execution traces.

    A trace is the exact sequence of basic-block instances the program
    executed, with the memory addresses each block instance touched.  The
    Multiscalar timing model replays traces; the paper's simulator is
    execution-driven, but over a deterministic program the two produce the
    same dynamic stream (see DESIGN.md, substitutions).

    Every dynamic event is ONE word encoding [(fid, blk, addr_offset)]
    (12 + 16 + 34 bits of a 63-bit OCaml int), and all effective addresses
    live in one shared pool.  An event's address count is the difference
    between its offset and the next event's (a sentinel word closes the
    last event).  Addresses are packed two per word while every address
    fits 31 unsigned bits (true for the whole workload suite); the pool
    transparently widens to one word per address the first time an address
    does not fit, so exotic programs lose compactness, never correctness.

    Both word sequences are held as chunks of {!chunk} words: word [i] is
    [cs.(i / chunk).(i mod chunk)], every chunk but the last holds exactly
    [chunk] words and the last holds the rest.  So random access —
    [Sim.Dyntask] peeks at event [j+1] — stays O(1) at one more array load,
    and the {!Builder} writes each word once, never copying it to grow.

    Function names are interned: a block is identified by [(fid, blk)]. *)

type t = {
  prog : Ir.Prog.t;
  fnames : string array;  (** function name per fid *)
  funcs : Ir.Func.t array;  (** function body per fid *)
  packed : int array array;
      (** [n_events + 1] event words in chunks; the last word is a sentinel
          carrying the total address count.  Use the accessors below to
          decode. *)
  apool : int array array;
      (** shared effective-address pool (packed or wide), in chunks *)
  awide : bool;  (** pool layout: one address per word instead of two *)
  n_events : int;
  n_addrs : int;  (** addresses recorded across all events *)
  dyn_insns : int;  (** total dynamic instruction count *)
  sizes : int array array;
      (** memoized [Ir.Block.size]: [sizes.(fid).(blk)], so per-event size
          lookups never re-fetch [Ir.Func.block] *)
  alloc_words : int;
      (** heap words the builder allocated in total, chunk index growth
          and the trimmed last chunks included (the packed build's churn
          figure) *)
}

val chunk : int
(** Words per chunk of [packed] and [apool]: 256. *)

val max_funcs : int
(** Functions a trace can name: 4096, the fid field's 12 bits. *)

val max_blocks : int
(** Blocks per function a trace can name: 65536, the block field's 16
    bits. *)

val fid : t -> string -> int
(** @raise Not_found for unknown function names. *)

val num_events : t -> int

(** {1 Event accessors}

    [i] is an event index in [[0, num_events t)]; none of these allocate. *)

val get_fid : t -> int -> int
val get_blk : t -> int -> Ir.Block.label

val addr_offset : t -> int -> int
(** Index of the event's first address in the shared pool. *)

val addr_count : t -> int -> int
(** Addresses the event recorded (one per executed memory instruction, in
    instruction order). *)

val addr_at : t -> int -> int
(** Decode one address by {e pool} index (compose with {!addr_offset} to
    walk an event's addresses with a running cursor). *)

val iter_addrs : t -> int -> (int -> unit) -> unit
(** Apply to each address of event [i], in instruction order. *)

val block_at : t -> int -> Ir.Block.t
(** Static block of event [i]. *)

val size_at : t -> int -> int
(** Dynamic instructions contributed by event [i] (insns + terminator),
    served from the memoized [sizes] table. *)

(** {1 Memory accounting} *)

type mem_stats = {
  events : int;
  addrs : int;
  heap_words : int;
      (** resident heap words of the packed representation, chunk headers
          and chunk indexes included *)
  boxed_words : int;
      (** resident words the legacy boxed representation (one record plus
          one address array per event) would occupy *)
  build_alloc_words : int;  (** words the packed builder allocated *)
  boxed_alloc_words : int;
      (** words the legacy list-accumulate-and-reverse-fill producer
          allocated while building *)
}

val stats : t -> mem_stats

val bytes : t -> int
(** Resident heap bytes: packed event words + address pool + size table,
    array headers and chunk indexes included. *)

(** {1 Self-check} *)

val check : t -> (unit, string) result
(** Decode audit for the lint gate.  First the chunk layout the accessors
    assume: every chunk but the last holds exactly {!chunk} words, the
    event words total [n_events + 1] and the pool's total [n_addrs] when
    wide, [ceil (n_addrs / 2)] when narrow.  Then event fields in range,
    address offsets monotone and consistent with each block's static
    memory-instruction count, sentinel equal to the pool population,
    memoized sizes equal to [Ir.Block.size], and [dyn_insns] equal to the
    sum of event sizes. *)

(** {1 Building} *)

module Builder : sig
  type trace := t

  type t
  (** A packed trace being built: O(1) appends into the newest chunk of
      each word sequence, a fresh chunk when it fills, no per-event
      allocation and no growth copy. *)

  val create : unit -> t

  val start_event : t -> fid:int -> blk:Ir.Block.label -> unit
  (** Open the next event; subsequent {!push_addr}s attach to it.
      @raise Invalid_argument if [fid] or [blk] exceeds the packed field
      widths ({!max_funcs} functions / {!max_blocks} blocks). *)

  val push_addr : t -> int -> unit
  (** Record one effective address for the open event. *)

  val last_event_addrs : t -> int array
  (** Addresses of the currently open event (observer support). *)

  val finish :
    t ->
    prog:Ir.Prog.t ->
    fnames:string array ->
    funcs:Ir.Func.t array ->
    dyn_insns:int ->
    trace
  (** Seal the buffer: append the sentinel, trim the last chunk of each word
      sequence and its chunk index to what they hold (no other word is
      copied), and memoize the per-block size table. *)
end
