(* Set-associative cache model, LRU replacement.

   Tags and ages live in two flat arrays indexed [set * ways + way]: a
   simulation run creates three caches (two L1s and the L2) and probes
   them once per load and per block fetch, so the per-set subarrays of the
   obvious representation cost an extra indirection per probe and tens of
   thousands of small allocations per run.  An age is below [ways], so the
   ages take one byte per way ([create] rejects more than 256 ways); only
   the tags need a word. *)

type t = {
  sets : int;
  ways : int;
  block_words : int;
  (* tags.(set * ways + way); lru ages, 0 = most recent *)
  tags : int array;
  lru : Bytes.t;
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
  let lru = Bytes.create (sets * ways) in
  for s = 0 to sets - 1 do
    for w = 0 to ways - 1 do
      Bytes.set lru ((s * ways) + w) (Char.chr w)
    done
  done;
  {
    sets;
    ways;
    block_words;
    tags = Array.make (sets * ways) (-1);
    lru;
    accesses = 0;
    misses = 0;
  }

let[@inline] age t i = Char.code (Bytes.get t.lru i)

let touch t base way =
  let lru = t.lru in
  let a = age t (base + way) in
  for w = base to base + t.ways - 1 do
    let aw = age t w in
    if aw < a then Bytes.set lru w (Char.unsafe_chr (aw + 1))
  done;
  Bytes.set lru (base + way) '\000'

let access t addr =
  t.accesses <- t.accesses + 1;
  let block = addr / t.block_words in
  let set = block mod t.sets in
  let tag = block / t.sets in
  let base = set * t.ways in
  let tags = t.tags in
  let found = ref (-1) in
  for w = 0 to t.ways - 1 do
    if tags.(base + w) = tag then found := w
  done;
  if !found >= 0 then begin
    touch t base !found;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 0 to t.ways - 1 do
      if age t (base + w) > age t (base + !victim) then victim := w
    done;
    tags.(base + !victim) <- tag;
    touch t base !victim;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

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

  let dload h addr = through h h.l1d_ addr

  let ifetch h addr =
    let lat = through h h.l1i_ addr in
    if lat = h.cfg.Config.l1_latency then 0 else lat

  let l1d h = h.l1d_
  let l1i h = h.l1i_
  let l2 h = h.l2_
end
