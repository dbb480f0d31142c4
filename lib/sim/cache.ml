(* Set-associative cache model, LRU replacement.

   Tags and ages are first-touch tables (Occ.Pages), paged by set, 64 sets
   to a page: [create] allocates only the two page indexes (1,024 slots
   each for the 65,536-set L2), and a set's page is allocated when a probe
   first names a set in it.  A paper-grid run touches 317 of the L2's
   sets on average, on at most 21 of its pages.  An age is below
   [ways], so the ages take one byte per way ([create] rejects more than
   256 ways); only the tags need a word.

   Every word address, negative ones included, maps to its block by floor
   division and the block to its set (or bank, {!slot}) by a non-negative
   remainder and to its tag by floor division; non-negative addresses map
   as they would with truncating division.  [min_int] marks an empty way:
   it is the tag of no address except [min_int] itself in a cache of one
   one-word set. *)

let[@inline] fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1

let[@inline] fmod a b =
  let r = a mod b in
  if r < 0 then r + b else r

let slot ~block_words ~slots addr = fmod (fdiv addr block_words) slots

let empty_way = min_int

type t = {
  sets : int;
  ways : int;
  block_words : int;
  tags : int array Occ.Pages.t;  (* per set, [ways] tags *)
  ages : Bytes.t Occ.Pages.t;  (* per set, [ways] LRU ages, 0 = most recent *)
  mutable accesses : int;
  mutable misses : int;
}

let create ~sets ~ways ~block_words =
  if sets < 1 || ways < 1 || ways > 256 || block_words < 1 then
    invalid_arg
      (Printf.sprintf
         "Cache.create: %d sets of %d ways of %d words (need at least 1 set, \
          1 to 256 ways, at least 1 word)"
         sets ways block_words);
  {
    sets;
    ways;
    block_words;
    tags = Occ.Pages.ints ~rows:sets ~width:ways ~init:empty_way;
    ages = Occ.Pages.bytes ~rows:sets ~init:(String.init ways Char.chr);
    accesses = 0;
    misses = 0;
  }

let[@inline] age ages i = Char.code (Bytes.get ages i)

let touch ages base ways way =
  let a = age ages (base + way) in
  for w = base to base + ways - 1 do
    let aw = age ages w in
    if aw < a then Bytes.set ages w (Char.unsafe_chr (aw + 1))
  done;
  Bytes.set ages (base + way) '\000'

let access t addr =
  t.accesses <- t.accesses + 1;
  let block = fdiv addr t.block_words in
  let set = fmod block t.sets in
  let tag = fdiv block t.sets in
  let tags = Occ.Pages.page t.tags set in
  let ages = Occ.Pages.page t.ages set in
  let base = Occ.Pages.offset t.tags set in
  let ways = t.ways in
  let found = ref (-1) in
  for w = 0 to ways - 1 do
    if tags.(base + w) = tag then found := w
  done;
  if !found >= 0 then begin
    touch ages base ways !found;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 0 to ways - 1 do
      if age ages (base + w) > age ages (base + !victim) then victim := w
    done;
    tags.(base + !victim) <- tag;
    touch ages base ways !victim;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

let reset t =
  Occ.Pages.reset t.tags;
  Occ.Pages.reset t.ages;
  t.accesses <- 0;
  t.misses <- 0

module Hierarchy = struct
  type h = {
    cfg : Config.t;
    l1d_ : t;
    l1i_ : t;
    l2_ : t;
  }

  let create (cfg : Config.t) =
    {
      cfg;
      l1d_ =
        create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
          ~block_words:cfg.Config.l1_block_words;
      l1i_ =
        create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
          ~block_words:cfg.Config.l1_block_words;
      l2_ =
        create ~sets:cfg.Config.l2_sets ~ways:cfg.Config.l2_ways
          ~block_words:cfg.Config.l1_block_words;
    }

  let through h l1 addr =
    if access l1 addr then h.cfg.Config.l1_latency
    else if access h.l2_ addr then
      h.cfg.Config.l1_latency + h.cfg.Config.l2_latency
    else
      h.cfg.Config.l1_latency + h.cfg.Config.l2_latency
      + h.cfg.Config.mem_latency

  let reset h =
    reset h.l1d_;
    reset h.l1i_;
    reset h.l2_

  let dload h addr = through h h.l1d_ addr

  let ifetch h addr =
    let lat = through h h.l1i_ addr in
    if lat = h.cfg.Config.l1_latency then 0 else lat

  let l1d h = h.l1d_
  let l1i h = h.l1i_
  let l2 h = h.l2_
end
