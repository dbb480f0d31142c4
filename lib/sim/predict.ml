(* Control-flow predictors.  The paper sizes their tables in bits (2-bit
   counters, 2-bit confidence plus a 2-bit target number), so each entry
   takes one byte.  A machine has three 64K-entry tables and a run
   touches part of each (on the paper grid, 23 to 254 of a table's 1,024
   pages on average), so the tables are first-touch byte pages (Occ.Pages,
   64 entries to a page): creating one allocates its page index, an
   entry's page is allocated, holding the initial counter, when a
   prediction first indexes it, and a reset drops the touched pages.  The
   return-address stack is a fixed ring that overwrites its oldest slot
   when full. *)

let mix pc = (pc * 2654435761) land max_int

module Gshare = struct
  type t = {
    mask : int;
    hist_mask : int;
    mutable hist : int;
    table : Bytes.t Occ.Pages.t;  (* 2-bit counters, initialised weakly taken *)
  }

  let create (cfg : Config.t) =
    {
      mask = cfg.Config.predictor_entries - 1;
      hist_mask = (1 lsl cfg.Config.predictor_bits) - 1;
      hist = 0;
      table = Occ.Pages.bytes ~rows:cfg.Config.predictor_entries ~init:"\002";
    }

  let predict_and_update t ~pc ~taken =
    let idx = (mix pc lxor t.hist) land t.mask in
    let page = Occ.Pages.page t.table idx in
    let i = Occ.Pages.offset t.table idx in
    let counter = Char.code (Bytes.get page i) in
    let predicted = counter >= 2 in
    let correct = predicted = taken in
    Bytes.set page i
      (Char.unsafe_chr
         (if taken then min 3 (counter + 1) else max 0 (counter - 1)));
    t.hist <- ((t.hist lsl 1) lor (if taken then 1 else 0)) land t.hist_mask;
    correct

  let reset t =
    t.hist <- 0;
    Occ.Pages.reset t.table
end

module Target = struct
  type t = {
    mask : int;
    hist_mask : int;
    use_history : bool;
    mutable hist : int;
    (* one byte per entry: counter lsl 2 | target (2-bit confidence, 2-bit
       target number) *)
    table : Bytes.t Occ.Pages.t;
  }

  let create ?(use_history = true) (cfg : Config.t) =
    {
      mask = cfg.Config.predictor_entries - 1;
      hist_mask = (1 lsl cfg.Config.predictor_bits) - 1;
      use_history;
      hist = 0;
      table = Occ.Pages.bytes ~rows:cfg.Config.predictor_entries ~init:"\000";
    }

  let predict_and_update t ~pc ~actual =
    let idx =
      (if t.use_history then mix pc lxor t.hist else mix pc) land t.mask
    in
    let page = Occ.Pages.page t.table idx in
    let i = Occ.Pages.offset t.table idx in
    let e = Char.code (Bytes.get page i) in
    let counter = e lsr 2 and target = e land 3 in
    let correct = target = actual land 3 && actual < 4 in
    let e' =
      if target = actual land 3 then (min 3 (counter + 1) lsl 2) lor target
      else if counter > 0 then ((counter - 1) lsl 2) lor target
      else actual land 3
    in
    Bytes.set page i (Char.unsafe_chr e');
    (* path history: fold the chosen target and the task pc in *)
    t.hist <- ((t.hist lsl 2) lxor mix pc lxor actual) land t.hist_mask;
    correct

  let reset t =
    t.hist <- 0;
    Occ.Pages.reset t.table
end

module Ras = struct
  type t = {
    slots : int array;
    mutable top : int;  (* slot the next push writes *)
    mutable size : int;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Predict.Ras.create: capacity below 1";
    { slots = Array.make capacity 0; top = 0; size = 0 }

  let push t v =
    let cap = Array.length t.slots in
    t.slots.(t.top) <- v;
    t.top <- (t.top + 1) mod cap;
    if t.size < cap then t.size <- t.size + 1

  let pop_or t default =
    if t.size = 0 then default
    else begin
      let cap = Array.length t.slots in
      t.top <- (t.top + cap - 1) mod cap;
      t.size <- t.size - 1;
      t.slots.(t.top)
    end

  let pop t = if t.size = 0 then None else Some (pop_or t 0)
  let depth t = t.size

  let reset t =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.top <- 0;
    t.size <- 0
end
