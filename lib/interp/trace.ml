(* Packed dynamic traces: one word per event, one shared address pool, both
   held as fixed-size chunks.

   Event word layout (63-bit OCaml int, all fields unsigned):

     bits 50..61  fid          (12 bits, 4096 functions)
     bits 34..49  blk          (16 bits, 65536 blocks per function)
     bits  0..33  addr_offset  (34 bits into the shared address pool)

   Event word n_events is a sentinel whose addr_offset is the total address
   count, so addr_count i = offset (i+1) - offset i without a separate
   per-event count field.

   The address pool stores two addresses per word (31 unsigned bits each)
   until an address that does not fit shows up, at which point the whole
   pool is re-encoded one address per word ([awide]).  The workload suite
   never widens (addresses stay below the 2^20 stack base plus small
   offsets); the fallback keeps arbitrary generated programs exact.

   Both word sequences are chunked: word i is
   cs.(i lsr chunk_bits).(i land chunk_mask), every chunk but the last
   holds exactly [chunk] words and the last holds the rest.  The builder
   writes each word once into its newest chunk and allocates the next
   chunk when a word does not fit, so growth copies nothing and leaves no
   outgrown array behind; sealing trims the last chunk and the chunk
   index.  A chunk is 256 words: with 1,024 every small run (the fuzz
   corpus) paid for two mostly empty chunks. *)

let fid_bits = 12
let blk_bits = 16
let off_bits = 34
let fid_shift = off_bits + blk_bits
let max_funcs = 1 lsl fid_bits
let max_blocks = 1 lsl blk_bits
let max_off = 1 lsl off_bits
let narrow_bits = 31
let narrow_limit = 1 lsl narrow_bits
let narrow_mask = narrow_limit - 1

let encode ~fid ~blk ~off = (fid lsl fid_shift) lor (blk lsl off_bits) lor off
let word_fid w = w lsr fid_shift
let word_blk w = (w lsr off_bits) land (max_blocks - 1)
let word_off w = w land (max_off - 1)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1
let[@inline] word cs i = cs.(i lsr chunk_bits).(i land chunk_mask)

type t = {
  prog : Ir.Prog.t;
  fnames : string array;
  funcs : Ir.Func.t array;
  packed : int array array;
  apool : int array array;
  awide : bool;
  n_events : int;
  n_addrs : int;
  dyn_insns : int;
  sizes : int array array;
  alloc_words : int;
}

let fid t name =
  let n = Array.length t.fnames in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal t.fnames.(i) name then i
    else find (i + 1)
  in
  find 0

let num_events t = t.n_events
let get_fid t i = word_fid (word t.packed i)
let get_blk t i = word_blk (word t.packed i)
let addr_offset t i = word_off (word t.packed i)

let addr_count t i =
  word_off (word t.packed (i + 1)) - word_off (word t.packed i)

let addr_at t k =
  if t.awide then word t.apool k
  else (word t.apool (k lsr 1) lsr (narrow_bits * (k land 1))) land narrow_mask

let iter_addrs t i f =
  let base = addr_offset t i in
  for k = base to base + addr_count t i - 1 do
    f (addr_at t k)
  done

let block_at t i = Ir.Func.block t.funcs.(get_fid t i) (get_blk t i)
let size_at t i = t.sizes.(get_fid t i).(get_blk t i)

(* --- memory accounting ---------------------------------------------------- *)

type mem_stats = {
  events : int;
  addrs : int;
  heap_words : int;
  boxed_words : int;
  build_alloc_words : int;
  boxed_alloc_words : int;
}

(* an array of arrays, headers included *)
let nested_words a =
  Array.fold_left
    (fun acc row -> acc + 1 + Array.length row)
    (1 + Array.length a) a

let heap_words t =
  nested_words t.packed + nested_words t.apool + nested_words t.sizes

let bytes t = heap_words t * (Sys.word_size / 8)

let stats t =
  (* the legacy layout: an [event array] of pointers to 3-field records,
     each holding a per-event [int array] of addresses (the empty-address
     case shared one static [||]) *)
  let nonzero = ref 0 in
  for i = 0 to t.n_events - 1 do
    if addr_count t i > 0 then incr nonzero
  done;
  let boxed_words = 1 + (5 * t.n_events) + !nonzero + t.n_addrs in
  (* plus the two list-accumulation passes the legacy producer ran through:
     one 3-word cons cell per event and per address *)
  let boxed_alloc_words = boxed_words + (3 * t.n_events) + (3 * t.n_addrs) in
  {
    events = t.n_events;
    addrs = t.n_addrs;
    heap_words = heap_words t;
    boxed_words;
    build_alloc_words = t.alloc_words;
    boxed_alloc_words;
  }

(* --- self-check ------------------------------------------------------------ *)

let mem_insns (b : Ir.Block.t) =
  Array.fold_left
    (fun acc insn -> if Ir.Insn.is_mem insn then acc + 1 else acc)
    0 b.Ir.Block.insns

(* The layout every accessor assumes of [len] words held as chunks: as many
   chunks as [len] needs, each but the last holding exactly [chunk] words
   and the last the rest. *)
let check_chunks what cs len =
  let n = Array.length cs in
  let want = (len + chunk - 1) lsr chunk_bits in
  if n <> want then
    Some
      (Printf.sprintf "%s: %d chunks for %d words, expected %d" what n len
         want)
  else begin
    let bad = ref None in
    Array.iteri
      (fun c a ->
        let expect = if c < n - 1 then chunk else len - (c lsl chunk_bits) in
        if !bad = None && Array.length a <> expect then
          bad :=
            Some
              (Printf.sprintf "%s: chunk %d of %d holds %d words, expected %d"
                 what c n (Array.length a) expect))
      cs;
    !bad
  end

let check t =
  let pool_words = if t.awide then t.n_addrs else (t.n_addrs + 1) / 2 in
  match
    ( check_chunks "event words" t.packed (t.n_events + 1),
      check_chunks "address pool" t.apool pool_words )
  with
  | Some e, _ | None, Some e -> Error e
  | None, None -> begin
    let err = ref None in
    let report e = if !err = None then err := Some e in
    let nfuncs = Array.length t.funcs in
    let insns = ref 0 in
    for i = 0 to t.n_events - 1 do
      let f = get_fid t i and b = get_blk t i in
      if f < 0 || f >= nfuncs then
        report (Printf.sprintf "event %d: fid %d out of range" i f)
      else if b < 0 || b >= Ir.Func.num_blocks t.funcs.(f) then
        report
          (Printf.sprintf "event %d: block L%d out of range for %s" i b
             t.fnames.(f))
      else begin
        let blk = Ir.Func.block t.funcs.(f) b in
        let count = addr_count t i in
        if count < 0 then
          report
            (Printf.sprintf "event %d: address offsets not monotone (%d)" i
               count)
        else if count <> mem_insns blk then
          report
            (Printf.sprintf
               "event %d: %d addresses for %d memory instructions (%s/L%d)" i
               count (mem_insns blk) t.fnames.(f) b);
        if t.sizes.(f).(b) <> Ir.Block.size blk then
          report
            (Printf.sprintf "size table stale at %s/L%d: %d <> %d"
               t.fnames.(f) b
               t.sizes.(f).(b)
               (Ir.Block.size blk));
        insns := !insns + Ir.Block.size blk
      end
    done;
    (match !err with
    | Some _ -> ()
    | None ->
      if addr_offset t 0 <> 0 && t.n_events > 0 then
        report
          (Printf.sprintf "first event at address offset %d, expected 0"
             (addr_offset t 0));
      if addr_offset t t.n_events <> t.n_addrs then
        report
          (Printf.sprintf "sentinel offset %d, pool has %d addresses"
             (addr_offset t t.n_events) t.n_addrs);
      if !insns <> t.dyn_insns then
        report
          (Printf.sprintf "event sizes sum to %d, trace has %d" !insns
             t.dyn_insns));
    match !err with None -> Ok () | Some e -> Error e
  end

(* --- builder --------------------------------------------------------------- *)

module Builder = struct
  (* A word sequence being appended to: [index.(0 .. used - 1)] are its
     chunks, each full but the newest; the index doubles when it fills. *)
  type words = { mutable index : int array array; mutable used : int }

  type buf = {
    events : words;
    mutable n : int;
    mutable pool : words;
    mutable na : int;
    mutable wide : bool;
    mutable allocated : int;
  }

  type t = buf

  let index_initial = 8
  let no_words () = { index = [||]; used = 0 }

  let create () =
    {
      events = no_words ();
      n = 0;
      pool = no_words ();
      na = 0;
      wide = false;
      allocated = 0;
    }

  (* The chunk holding word [p] of [ws], where [p] is at most one past the
     last word written: the first word past the newest chunk allocates the
     next one, and room for it in the index. *)
  let chunk_of b ws p =
    let c = p lsr chunk_bits in
    if c < ws.used then ws.index.(c)
    else begin
      if c = Array.length ws.index then begin
        let cap = max index_initial (2 * c) in
        let index = Array.make cap [||] in
        Array.blit ws.index 0 index 0 c;
        ws.index <- index;
        b.allocated <- b.allocated + cap + 1
      end;
      let fresh = Array.make chunk 0 in
      ws.index.(c) <- fresh;
      ws.used <- c + 1;
      b.allocated <- b.allocated + chunk + 1;
      fresh
    end

  let start_event b ~fid ~blk =
    if fid < 0 || fid >= max_funcs then
      invalid_arg
        (Printf.sprintf "Trace.Builder.start_event: fid %d exceeds %d bits"
           fid fid_bits);
    if blk < 0 || blk >= max_blocks then
      invalid_arg
        (Printf.sprintf "Trace.Builder.start_event: block %d exceeds %d bits"
           blk blk_bits);
    (chunk_of b b.events b.n).(b.n land chunk_mask) <-
      encode ~fid ~blk ~off:b.na;
    b.n <- b.n + 1

  let decode_addr b k =
    if b.wide then word b.pool.index k
    else
      (word b.pool.index (k lsr 1) lsr (narrow_bits * (k land 1)))
      land narrow_mask

  (* re-encode the pool one address per word, into fresh chunks *)
  let widen b =
    let wide = no_words () in
    for k = 0 to b.na - 1 do
      (chunk_of b wide k).(k land chunk_mask) <- decode_addr b k
    done;
    b.pool <- wide;
    b.wide <- true

  let push_addr b v =
    if b.na >= max_off then
      invalid_arg "Trace.Builder.push_addr: address pool exceeds 2^34";
    if (not b.wide) && (v < 0 || v >= narrow_limit) then widen b;
    if b.wide then (chunk_of b b.pool b.na).(b.na land chunk_mask) <- v
    else begin
      let w = b.na lsr 1 in
      let cs = chunk_of b b.pool w in
      let j = w land chunk_mask in
      cs.(j) <- cs.(j) lor (v lsl (narrow_bits * (b.na land 1)))
    end;
    b.na <- b.na + 1

  let last_event_addrs b =
    if b.n = 0 then [||]
    else begin
      let base = word_off (word b.events.index (b.n - 1)) in
      Array.init (b.na - base) (fun k -> decode_addr b (base + k))
    end

  (* [len] words of [ws] as a trace holds them: the last chunk and the
     index trimmed to what they hold *)
  let seal b ws len =
    let last = ws.used - 1 in
    if last >= 0 then begin
      let rest = len - (last lsl chunk_bits) in
      if rest < chunk then begin
        ws.index.(last) <- Array.sub ws.index.(last) 0 rest;
        b.allocated <- b.allocated + rest + 1
      end
    end;
    if ws.used = Array.length ws.index then ws.index
    else begin
      b.allocated <- b.allocated + ws.used + 1;
      Array.sub ws.index 0 ws.used
    end

  let finish b ~prog ~fnames ~funcs ~dyn_insns =
    (chunk_of b b.events b.n).(b.n land chunk_mask) <-
      encode ~fid:0 ~blk:0 ~off:b.na;
    let packed = seal b b.events (b.n + 1) in
    let apool = seal b b.pool (if b.wide then b.na else (b.na + 1) / 2) in
    let sizes =
      Array.map
        (fun f ->
          Array.init (Ir.Func.num_blocks f) (fun l ->
              Ir.Block.size (Ir.Func.block f l)))
        funcs
    in
    {
      prog;
      fnames;
      funcs;
      packed;
      apool;
      awide = b.wide;
      n_events = b.n;
      n_addrs = b.na;
      dyn_insns;
      sizes;
      alloc_words = b.allocated;
    }
end
