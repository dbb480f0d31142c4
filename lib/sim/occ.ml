(* Flat occupancy structures for the event-driven simulator core.

   The engine's resource model is "reserve the earliest free slot at or
   after cycle [t]": D-cache/ARB bank ports, ring injection bandwidth.
   The pre-event core kept these as tuple-keyed hashtables ((bank, cycle)
   -> unit), paying an allocation and a polymorphic hash per probe and
   advancing cycle by cycle.  Here a resource is a row of byte counts:
   probing is one byte read, and finding the next free slot skips over a
   fully booked region in a tight scan instead of re-hashing each cycle.

   A row is a sliding window, not a history.  Its byte 0 holds cycle
   [origin]; the owner raises a [floor] below which it promises never to
   probe again (the engine: the first assignment cycle of the task it is
   about to time, which only rises), and everything below the floor is
   dead.  When a reservation falls past the end of the rows they slide
   the live part [floor, ...) down to byte 0 in place, or — when the span
   from the floor to the new cycle fills half a row — grow to twice that
   span.  So a row's size follows the longest window one task needs, not
   the length of the run, and each slide moves the origin by more than
   half a row, which keeps the copying O(1) per simulated cycle.  A probe
   below the floor raises [Invalid_argument]; every byte read is inside
   [0, len).

   [Intmap] is the companion scratch map: open-addressing int -> int with
   O(1) whole-map invalidation by generation stamp, so the per-task /
   per-flight maps of the old core (local store forwarding, ARB
   footprints, per-flight store maps) become steady-state-allocation-free
   reusable buffers.

   [Pages] is the first-touch table behind the caches and predictors:
   a page index whose slots all start as one shared empty page, and pages
   of 64 rows allocated, filled with the initial row, the first time a
   row in them is named.  A paper-grid run touches on average 7 of the
   L2's 1,024 pages and 23 to 254 of each predictor's 1,024, so most of
   the index never leaves the sentinel.  If a run did touch every page,
   the table would cost its flat size plus a header per page and the
   index. *)

module Slots = struct
  type t = {
    mutable rows : Bytes.t array;
    mutable len : int;  (* bytes per row *)
    mutable origin : int;  (* cycle held at byte 0 of every row *)
    mutable floor : int;  (* lowest cycle a probe may name; origin <= floor *)
  }

  let create ~rows ~hint =
    let hint = max 64 hint in
    {
      rows = Array.init rows (fun _ -> Bytes.make hint '\000');
      len = hint;
      origin = 0;
      floor = 0;
    }

  let capacity t = t.len

  let raise_floor t cycle =
    if cycle < t.floor then
      invalid_arg
        (Printf.sprintf "Occ.Slots.raise_floor: %d is below the floor %d" cycle
           t.floor);
    t.floor <- cycle

  let check t time =
    if time < t.floor then
      invalid_arg
        (Printf.sprintf "Occ.Slots: cycle %d is below the floor %d" time t.floor)

  (* make [time] (>= origin + len) addressable: keep the live bytes
     [floor, origin + len), at byte 0 of the same rows or of rows twice the
     span from the floor to [time] *)
  let make_room t time =
    let span = time - t.floor + 1 in
    let shift = t.floor - t.origin in
    let keep = max 0 (t.len - shift) in
    if 2 * span > t.len then begin
      let len = max (2 * t.len) (2 * span) in
      for r = 0 to Array.length t.rows - 1 do
        let b = Bytes.make len '\000' in
        if keep > 0 then Bytes.blit t.rows.(r) shift b 0 keep;
        t.rows.(r) <- b
      done;
      t.len <- len
    end
    else
      for r = 0 to Array.length t.rows - 1 do
        let b = t.rows.(r) in
        if keep > 0 then Bytes.blit b shift b 0 keep;
        Bytes.fill b keep (t.len - keep) '\000'
      done;
    t.origin <- t.floor

  (* back to the state [create] made: every row zeroed (a row keeps the
     length it grew to), origin and floor at cycle 0 *)
  let reset t =
    for r = 0 to Array.length t.rows - 1 do
      Bytes.fill t.rows.(r) 0 t.len '\000'
    done;
    t.origin <- 0;
    t.floor <- 0

  let count t ~row time =
    check t time;
    let b = t.rows.(row) in
    let i = time - t.origin in
    if i >= t.len then 0 else Char.code (Bytes.unsafe_get b i)

  let take t ~row time =
    check t time;
    if time - t.origin >= t.len then make_room t time;
    let b = t.rows.(row) in
    let i = time - t.origin in
    Bytes.unsafe_set b i (Char.chr (Char.code (Bytes.unsafe_get b i) + 1))

  (* earliest cycle >= [from] whose count is below [cap] — the next free
     event on this resource; everything in between is fully booked and is
     jumped over without per-cycle bookkeeping *)
  let find_free t ~row ~cap ~from =
    check t from;
    let b = t.rows.(row) in
    let limit = t.len in
    let i = ref (from - t.origin) in
    while !i < limit && Char.code (Bytes.unsafe_get b !i) >= cap do incr i done;
    t.origin + !i

  (* find_free + take in one step *)
  let reserve t ~row ~cap ~from =
    let c = find_free t ~row ~cap ~from in
    take t ~row c;
    c
end

module Intmap = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamps : int array;  (* slot live iff stamps.(i) = gen *)
    mutable mask : int;
    mutable gen : int;
    mutable card : int;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create hint =
    let cap = pow2 (max 16 (2 * hint)) 16 in
    {
      keys = Array.make cap 0;
      vals = Array.make cap 0;
      stamps = Array.make cap 0;
      mask = cap - 1;
      gen = 1;
      card = 0;
    }

  let clear t =
    t.gen <- t.gen + 1;
    t.card <- 0

  let cardinal t = t.card

  let hash k = (k * 0x2545F4914F6CDD1D) land max_int

  (* value for [key], or -1 when absent; stored values must be >= 0 *)
  let find t key =
    let mask = t.mask in
    let i = ref (hash key land mask) in
    let r = ref (-2) in
    while !r = -2 do
      if t.stamps.(!i) <> t.gen then r := -1
      else if t.keys.(!i) = key then r := t.vals.(!i)
      else i := (!i + 1) land mask
    done;
    !r

  let mem t key = find t key >= 0

  let rec set t key v =
    let mask = t.mask in
    let i = ref (hash key land mask) in
    let placed = ref false in
    let done_ = ref false in
    while not !done_ do
      if t.stamps.(!i) <> t.gen then begin
        (* fresh slot *)
        t.keys.(!i) <- key;
        t.vals.(!i) <- v;
        t.stamps.(!i) <- t.gen;
        t.card <- t.card + 1;
        placed := true;
        done_ := true
      end
      else if t.keys.(!i) = key then begin
        t.vals.(!i) <- v;
        done_ := true
      end
      else i := (!i + 1) land mask
    done;
    if !placed && 2 * t.card > mask then grow t

  and grow t =
    let old_keys = t.keys and old_vals = t.vals and old_stamps = t.stamps in
    let old_gen = t.gen in
    let ncap = 2 * (t.mask + 1) in
    t.keys <- Array.make ncap 0;
    t.vals <- Array.make ncap 0;
    t.stamps <- Array.make ncap 0;
    t.mask <- ncap - 1;
    t.gen <- 1;
    t.card <- 0;
    Array.iteri
      (fun i s -> if s = old_gen then set t old_keys.(i) old_vals.(i))
      old_stamps

  (* iterate live (key, value) pairs, unspecified order *)
  let iter t f =
    for i = 0 to t.mask do
      if t.stamps.(i) = t.gen then f t.keys.(i) t.vals.(i)
    done
end

module Pages = struct
  let page_bits = 6
  let rows_per_page = 1 lsl page_bits

  type 'p t = {
    index : 'p array;  (* page p, or [empty] until first touched *)
    empty : 'p;
    rows : int;
    width : int;
    fresh : int -> 'p;  (* a page of that many rows holding the initial row *)
  }

  let create ~rows ~width ~empty ~fresh =
    if rows < 1 || width < 1 then
      invalid_arg
        (Printf.sprintf "Occ.Pages: %d rows of %d entries" rows width);
    let pages = (rows + rows_per_page - 1) / rows_per_page in
    { index = Array.make pages empty; empty; rows; width; fresh }

  let bytes ~rows ~init =
    let width = String.length init in
    create ~rows ~width ~empty:Bytes.empty ~fresh:(fun n ->
        let b = Bytes.create (n * width) in
        for r = 0 to n - 1 do
          Bytes.blit_string init 0 b (r * width) width
        done;
        b)

  let ints ~rows ~width ~init =
    create ~rows ~width ~empty:[||] ~fresh:(fun n ->
        Array.make (n * width) init)

  (* the last page holds only the rows that exist *)
  let touch t p =
    let pg = t.fresh (min rows_per_page (t.rows - (p lsl page_bits))) in
    t.index.(p) <- pg;
    pg

  let[@inline] page t row =
    let p = row lsr page_bits in
    let pg = t.index.(p) in
    if pg != t.empty then pg else touch t p

  let[@inline] offset t row = (row land (rows_per_page - 1)) * t.width

  (* every slot of the index the shared empty page again: a reset table
     holds what a new one holds, and the next run allocates the pages it
     touches afresh *)
  let reset t = Array.fill t.index 0 (Array.length t.index) t.empty
end
