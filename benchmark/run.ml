(* The performance ledger: four workloads, their end-to-end metrics, a
   traced run per workload for the per-layer metrics, and [compare] for
   two sets of runs.  See benchmark/README.md.

   Every timed pass runs in a fresh child process (this executable
   re-executed), so no store, trace or scheduler state carries from one
   pass to the next and each pass pays the cold start a user pays. *)

module Json = Harness.Json
module Sample = Bench_kit.Sample
module Span = Bench_kit.Span

type workload = Paper_grid | Fb_search | Fuzz_corpus | Mscd_zipf

let workloads =
  [
    ("paper-grid", Paper_grid);
    ("fb-search", Fb_search);
    ("fuzz-corpus", Fuzz_corpus);
    ("mscd-zipf", Mscd_zipf);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* smoke scale keeps every code path but shrinks the corpus and the batch *)
type scale = Full | Smoke

let fuzz_n = function Full -> 44 | Smoke -> 11
let mscd_requests = function Full -> 1000 | Smoke -> 50
let scale_arg = function Full -> "full" | Smoke -> "smoke"
let scale_of = function "smoke" -> Smoke | _ -> Full

(* --- metrics ---------------------------------------------------------------- *)

type metric = { name : string; unit : string; higher_better : bool }

let m ?(higher = false) name unit = { name; unit; higher_better = higher }

let end_to_end =
  [ m "setup_s" "s"; m "peak_rss_mb" "MB"; m "alloc_mw" "Mw"; m "retained_mb" "MB" ]

(* Timed runs also print and record the median pass time, but it is no
   end-to-end metric: on a shared two-core host it swings by up to 50 %
   between runs of identical work, wider than any bound could hold. *)
let timed_extra = [ m "wall_s" "s" ]

(* span names whose self time, allocation and call count are reported *)
let layers =
  [
    "workloads.build"; "core.select"; "core.cost_fb"; "core.plan_cost";
    "core.depend"; "interp.execute"; "sim.prepare"; "sim.run"; "fuzz.check";
  ]

let per_layer =
  [
    m "pass.wall_s" "s";
    m "trace.wall_s" "s";
    m "trace.overhead_s" "s";
    m ~higher:true "trace.busy_frac" "frac";
    m ~higher:true "item.count" "count";
    m "item.p50_ms" "ms";
    m "item.tail_ms" "ms";
    m ~higher:true "item.tail_pct" "%";
  ]
  @ List.concat_map
      (fun l -> [ m (l ^ "_share") "frac"; m (l ^ "_alloc_mw") "Mw"; m (l ^ "_calls") "count" ])
      layers
  @ [
      m "core.tasks" "count";
      m "core.depend_mem_edges_fi" "count";
      m "core.depend_mem_edges_ab" "count";
      m "interp.steps" "count";
      m "interp.trace_mb" "MB";
      m "sim.cycles" "count";
      m ~higher:true "sim.kips" "insn/ms";
      m ~higher:true "sim.ipc_geomean" "IPC";
      m "harness.builds" "count";
      m "harness.sims" "count";
      m "harness.trace_mb" "MB";
      m "sched.tasks" "count";
      m "sched.steals" "count";
      m "sched.parks" "count";
      m "fuzz.checks" "count";
      m ~higher:true "service.dedup_ratio" "frac";
      m ~higher:true "service.server_share" "frac";
    ]

(* --- small helpers ------------------------------------------------------------ *)

let out_dir = "benchmark/out"
let golden_dir = "benchmark/golden"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))

let write_file path text =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let seconds_since t0 = float_of_int (Span.now_ns () - t0) /. 1e9

let num = function
  | Some (Json.Float x) -> x
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let int_of j = int_of_float (num j)

let vm_hwm_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_int (int_of_string kb) *. 1024.0 /. 1e6
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* words allocated by every domain of the process so far *)
let process_words () =
  let q = Gc.quick_stat () in
  q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* words allocated since [since], then — after a full major GC — the
   live heap and the process's peak RSS *)
let heap_figures ~since =
  Gc.full_major ();
  [
    ("alloc_mw", (process_words () -. since) /. 1e6);
    ("retained_mb", heap_mb (Gc.stat ()).Gc.live_words);
    ("peak_rss_mb", vm_hwm_mb ());
  ]

(* Run [f] and measure it the way every pass is measured; [f]'s result is
   the only thing it keeps alive while the heap is measured. *)
let measure f =
  Gc.full_major ();
  let w0 = process_words () in
  let t0 = Span.now_ns () in
  let v = f () in
  let wall = seconds_since t0 in
  (v, ("wall_s", wall) :: heap_figures ~since:w0)

let fields kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* --- goldens ------------------------------------------------------------------- *)

(* One attempted operation per golden line; a line that differs (or is
   missing on either side) is a failed one.  A mismatch leaves the
   produced text beside the outputs for diffing. *)
let check_golden ~bless (name, text) =
  let path = Filename.concat golden_dir name in
  if bless then begin
    write_file path text;
    (0, 0)
  end
  else
    match read_file path with
    | None ->
      Printf.eprintf "benchmark: missing golden %s\n%!" path;
      (1, 1)
    | Some golden ->
      let g = Array.of_list (String.split_on_char '\n' golden) in
      let t = Array.of_list (String.split_on_char '\n' text) in
      let n = max (Array.length g) (Array.length t) in
      let bad = ref 0 in
      for i = 0 to n - 1 do
        if i >= Array.length g || i >= Array.length t || not (String.equal g.(i) t.(i))
        then incr bad
      done;
      if !bad > 0 then begin
        let actual = Filename.concat out_dir (name ^ ".actual") in
        write_file actual text;
        Printf.eprintf "benchmark: %s differs from %s in %d lines (see %s)\n%!" name
          path !bad actual
      end;
      (n, !bad)

let check_goldens ~bless texts =
  List.fold_left
    (fun (a, f) t ->
      let a', f' = check_golden ~bless t in
      (a + a', f + f'))
    (0, 0) texts

let digest_texts texts =
  Digest.to_hex (Digest.string (String.concat "\000" (List.concat_map (fun (n, t) -> [ n; t ]) texts)))

(* --- child processes ----------------------------------------------------------- *)

type child = { pid : int; to_child : out_channel; from_child : in_channel }

let live_children = ref []

let spawn args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  live_children := pid :: !live_children;
  { pid; to_child = Unix.out_channel_of_descr in_w; from_child = Unix.in_channel_of_descr out_r }

let send c line =
  output_string c.to_child (line ^ "\n");
  flush c.to_child

(* wait for the child to exit cleanly; its last stdout line *)
let reap c =
  let last = ref "" in
  (try
     while true do
       let l = input_line c.from_child in
       if String.trim l <> "" then last := l
     done
   with End_of_file -> ());
  close_in_noerr c.from_child;
  close_out_noerr c.to_child;
  let status = snd (Unix.waitpid [] c.pid) in
  live_children := List.filter (( <> ) c.pid) !live_children;
  match status with
  | Unix.WEXITED 0 -> !last
  | _ -> failwith (Printf.sprintf "child %d failed" c.pid)

(* the result line of a child that ran its pass *)
let finish c =
  let last = reap c in
  match Json.parse last with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "child %d: unreadable result (%s)" c.pid e)

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

(* spawn a child and time it until it reports ready *)
let spawn_ready args =
  let t0 = Span.now_ns () in
  let c = spawn args in
  (match input_line c.from_child with
  | "ready" -> ()
  | l -> failwith ("child did not start: " ^ l)
  | exception End_of_file -> failwith "child exited before it was ready");
  (c, seconds_since t0)

(* --- the child side ------------------------------------------------------------ *)

let untraced_body w ~seed ~scale =
  match w with
  | Paper_grid -> Pass.paper_grid
  | Fb_search -> Pass.fb_search
  | Fuzz_corpus -> Pass.fuzz_corpus ~n:(fuzz_n scale) ~seed
  | Mscd_zipf -> invalid_arg "mscd-zipf has no batch pass"

let traced_body w ~seed ~scale =
  match w with
  | Paper_grid -> Pass.paper_grid_traced
  | Fb_search -> Pass.fb_search_traced
  | Fuzz_corpus -> Pass.fuzz_corpus_traced ~n:(fuzz_n scale) ~seed
  | Mscd_zipf -> invalid_arg "mscd-zipf traces its replay"

let jobs_of = function Paper_grid | Mscd_zipf -> Pass.grid_jobs () | Fb_search | Fuzz_corpus -> 1

(* per-layer metrics of a traced child: layer self-time shares of the
   busy time, allocation, calls, and the item latency distribution *)
let layer_metrics w ~wall spans =
  let timed = List.filter (fun s -> not (String.starts_with ~prefix:"check." s.Span.name)) spans in
  let rows = Span.table timed in
  let busy_ns =
    List.fold_left (fun acc r -> if r.Span.r_name = "pass" then acc else acc + r.Span.self_ns) 0 rows
  in
  let row name = List.find_opt (fun r -> r.Span.r_name = name) rows in
  let share r = if busy_ns = 0 then 0.0 else float_of_int r.Span.self_ns /. float_of_int busy_ns in
  let per_layer =
    List.concat_map
      (fun l ->
        match row l with
        | None -> [ (l ^ "_share", 0.0); (l ^ "_alloc_mw", 0.0); (l ^ "_calls", 0.0) ]
        | Some r ->
          [
            (l ^ "_share", share r);
            (l ^ "_alloc_mw", r.Span.self_words /. 1e6);
            (l ^ "_calls", float_of_int r.Span.calls);
          ])
      layers
  in
  let items =
    List.filter_map
      (fun s -> if s.Span.name = "item" then Some (float_of_int (s.Span.stop_ns - s.Span.start_ns) /. 1e6) else None)
      timed
  in
  let sim_ms = match row "sim.run" with Some r -> float_of_int r.Span.self_ns /. 1e6 | None -> 0.0 in
  ( [ ("trace.busy_frac", float_of_int busy_ns /. 1e9 /. (float_of_int (jobs_of w) *. wall)) ]
    @ per_layer,
    items,
    sim_ms,
    rows )

let layer_table_text rows =
  let total = List.fold_left (fun acc r -> acc + r.Span.self_ns) 0 rows in
  Printf.sprintf "%-18s %8s %10s %10s %7s %10s\n" "span" "calls" "total_s" "self_s" "self%" "self_Mw"
  ^ String.concat ""
      (List.map
         (fun r ->
           Printf.sprintf "%-18s %8d %10.3f %10.3f %6.1f%% %10.2f\n" r.Span.r_name r.Span.calls
             (float_of_int r.Span.total_ns /. 1e9) (float_of_int r.Span.self_ns /. 1e9)
             (100.0 *. float_of_int r.Span.self_ns /. float_of_int (max 1 total))
             (r.Span.self_words /. 1e6))
         rows)

let item_metrics items_ms =
  let p50 = if items_ms = [] then 0.0 else Sample.median items_ms in
  let pct, tail =
    match Sample.tail items_ms with
    | Some (p, v) -> (float_of_int p, v)
    | None -> (100.0, List.fold_left Float.max 0.0 items_ms)
  in
  [
    ("item.count", float_of_int (List.length items_ms));
    ("item.p50_ms", p50);
    ("item.tail_ms", tail);
    ("item.tail_pct", pct);
  ]

let sim_kips counts sim_ms =
  match List.assoc_opt "sim.insns" counts with
  | Some insns when sim_ms > 0.0 -> [ ("sim.kips", insns /. sim_ms /. 1e3) ]
  | _ -> [ ("sim.kips", 0.0) ]

let write_trace w spans rows =
  let name = workload_name w in
  write_file
    (Filename.concat out_dir ("trace-" ^ name ^ ".json"))
    (Json.to_string ~indent:false (Span.chrome_json spans));
  let table = layer_table_text rows in
  write_file (Filename.concat out_dir ("layers-" ^ name ^ ".txt")) table;
  prerr_string (name ^ " traced pass, per span:\n" ^ table)

(* Set up, report ready, then wait for the parent: [Some bless] to run
   the pass, [None] when the spawn only measured set-up.  A child that
   fans out starts its scheduler's domains as part of its set-up. *)
let wait_go ~jobs =
  if jobs > 1 then ignore (Harness.Pool.scheduler ~jobs);
  print_endline "ready";
  match input_line stdin with
  | "go" -> Some false
  | "go-bless" -> Some true
  | _ | (exception End_of_file) -> None

let emit j = print_endline (Json.to_string ~indent:false j)

(* the goldens of an outcome whose input has them *)
let check_outcome ~bless (o : Pass.outcome) =
  if o.Pass.pinned then check_goldens ~bless o.Pass.texts else (0, 0)

let child_pass w ~seed ~scale =
  match wait_go ~jobs:(jobs_of w) with
  | None -> ()
  | Some bless ->
    let o, figures = measure (untraced_body w ~seed ~scale) in
    let gold_a, gold_f = check_outcome ~bless o in
    let made, bad = o.Pass.post () in
    emit
      (Json.Obj
         [
           ("measured", fields figures);
           ("counts", fields o.Pass.counts);
           ("digest", Json.String (digest_texts o.Pass.texts));
           ("attempted", Json.Int (gold_a + made));
           ("failed", Json.Int (gold_f + bad));
         ])

let child_traced w ~seed ~scale =
  if wait_go ~jobs:(jobs_of w) <> None then begin
    Span.enable ();
    let t0 = Span.now_ns () in
    let o = Span.record "pass" (traced_body w ~seed ~scale) in
    let wall = seconds_since t0 in
    let made, bad = o.Pass.post () in
    let gold_a, gold_f = check_outcome ~bless:false o in
    let spans = Span.collect () in
    let lm, items, sim_ms, rows = layer_metrics w ~wall spans in
    write_trace w spans rows;
    (* on one domain the spans must account for the pass: uninstrumented
       time would be work the per-layer table cannot place *)
    let uncovered = jobs_of w = 1 && List.assoc "trace.busy_frac" lm < 0.9 in
    if uncovered then prerr_endline "benchmark: spans cover less than 90% of the traced pass";
    emit
      (Json.Obj
         [
           ("wall_s", Json.Float wall);
           ("metrics", fields (lm @ item_metrics items @ sim_kips o.Pass.counts sim_ms @ o.Pass.counts));
           ("digest", Json.String (digest_texts o.Pass.texts));
           ("attempted", Json.Int (gold_a + made + 1));
           ("failed", Json.Int (gold_f + bad + Bool.to_int uncovered));
         ])
  end

let child_replay ~seed ~scale ~traced =
  if wait_go ~jobs:(jobs_of Mscd_zipf) <> None then begin
    if traced then Span.enable ();
    let t0 = Span.now_ns () in
    let results, counts =
      Span.record "pass" (fun () -> Mscd.replay ~seed ~requests:(mscd_requests scale))
    in
    let wall = seconds_since t0 in
    let lm =
      if not traced then []
      else begin
        let spans = Span.collect () in
        let lm, _, sim_ms, rows = layer_metrics Mscd_zipf ~wall spans in
        write_trace Mscd_zipf spans rows;
        lm @ sim_kips counts sim_ms @ counts
      end
    in
    emit
      (Json.Obj
         [
           ("wall_s", Json.Float wall);
           ("metrics", fields lm);
           ( "keys",
             Json.Obj (List.map (fun (k, r) -> (k, Json.String (Digest.to_hex (Digest.string r)))) results) );
         ])
  end

(* the daemon host: the server [msc daemon -j 2] runs, measured from its
   first accept to its drain *)
let child_serve ~socket =
  let srv = Service.Server.create ~jobs:(jobs_of Mscd_zipf) ~socket () in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Service.Server.request_stop srv));
  print_endline "ready";
  let w0 = process_words () in
  Service.Server.serve srv;
  let figures = heap_figures ~since:w0 in
  (* the caches stay reachable: the daemon's retained heap is what they hold *)
  ignore (Sys.opaque_identity srv);
  emit (Json.Obj [ ("measured", fields figures) ])

(* --- the parent side ------------------------------------------------------------ *)

type run_result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let measured j k = num (Option.bind (Json.member "measured" j) (Json.member k))
let member_num j obj k = num (Option.bind (Json.member obj j) (Json.member k))
let fields_of j obj =
  match Json.member obj j with
  | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, num (Some v))) kvs
  | _ -> []
let str j k = match Json.member k j with Some (Json.String s) -> s | _ -> ""

(* keep starting passes while the next one would end within half a pass
   of the deadline; always at least one *)
let timed_loop ~seconds pass =
  let t0 = Span.now_ns () in
  let durations = ref [] in
  let rec go acc =
    let p0 = Span.now_ns () in
    let r = pass ~first:(acc = []) in
    durations := seconds_since p0 :: !durations;
    let acc = r :: acc in
    let est = Sample.median !durations in
    if seconds_since t0 +. (est /. 2.0) < seconds then go acc else List.rev acc
  in
  go []

(* one measured pass of either kind of child *)
type pass = {
  setup : float;
  wall : float;
  figures : Json.t;  (** peak RSS, allocation and retained heap, as measured *)
  pass_attempted : int;
  pass_failed : int;
  digest : string;  (** of the outputs: every pass of a run must agree *)
}

(* More samples do not steady set-up time: its median over 25 set-ups
   spread between runs as widely as over 5, since the host's slow phases
   outlast a run. *)
let min_setups = 5

(* passes until [seconds] is used, topped up with set-up-only spawns to
   [min_setups] set-up samples; each metric is the median over passes *)
let timed_run ~seconds ~pass ~setup_only =
  let passes = timed_loop ~seconds pass in
  let setups =
    List.map (fun p -> p.setup) passes
    @ List.init (max 0 (min_setups - List.length passes)) (fun _ -> setup_only ())
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  let med f = Sample.median (List.map f passes) in
  let failed = sum (fun p -> p.pass_failed) in
  let digests = List.sort_uniq compare (List.map (fun p -> p.digest) passes) in
  {
    correct = failed = 0 && List.length digests = 1;
    attempted = sum (fun p -> p.pass_attempted);
    failed;
    metrics =
      ("setup_s", Sample.median setups)
      :: ("wall_s", med (fun p -> p.wall))
      :: List.map
           (fun k -> (k, med (fun p -> num (Json.member k p.figures))))
           [ "peak_rss_mb"; "alloc_mw"; "retained_mb" ];
  }

let batch_args w ~seed ~scale extra =
  [ "child"; extra; workload_name w; string_of_int seed; scale_arg scale ]

(* The input seed of a timed batch run.  Which fuzz corpus a seed draws
   moves the pass's peak RSS by 26 % and its allocation by 12 % (quartile
   spread over ten seeds, 110 programs), wider than any bound the ledger
   allows; so timed runs measure the golden seed's corpus and the traced
   run measures, and checks, the run's own seed's corpus. *)
let timed_seed w ~seed = match w with Fuzz_corpus -> Pass.golden_seed | _ -> seed

let batch_timed w ~seed ~seconds ~scale ~bless =
  let seed = timed_seed w ~seed in
  timed_run ~seconds
    ~pass:(fun ~first ->
      let c, setup = spawn_ready (batch_args w ~seed ~scale "pass") in
      send c (if bless && first then "go-bless" else "go");
      let j = finish c in
      let figures = Option.value ~default:Json.Null (Json.member "measured" j) in
      {
        setup;
        wall = num (Json.member "wall_s" figures);
        figures;
        pass_attempted = int_of (Json.member "attempted" j);
        pass_failed = int_of (Json.member "failed" j);
        digest = str j "digest";
      })
    ~setup_only:(fun () ->
      let c, setup = spawn_ready (batch_args w ~seed ~scale "pass") in
      send c "quit";
      ignore (reap c);
      setup)

(* --- mscd-zipf runs ----------------------------------------------------------------- *)

let socket_seq = ref 0

(* start a daemon child and time it until its socket answers [stats] *)
let start_daemon () =
  incr socket_seq;
  mkdir_p out_dir;
  let socket = Printf.sprintf "%s/mscd-%d-%d.sock" out_dir (Unix.getpid ()) !socket_seq in
  let t0 = Span.now_ns () in
  let c, _ = spawn_ready [ "child"; "serve"; socket ] in
  ignore (Mscd.server_stats ~socket);
  (c, socket, seconds_since t0)

let stop_daemon (c, socket) =
  Mscd.shutdown ~socket;
  finish c

type daemon_pass = {
  setup : float;
  wall : float;
  replies : Mscd.reply array;
  bad : int;  (** failed or inconsistent replies *)
  results : (string, string) Hashtbl.t;  (** key -> result of its first reply *)
  stats : Json.t;  (** the daemon's [stats], when asked for *)
  figures : Json.t;  (** the daemon's own measurements *)
}

(* one batch on a fresh daemon; its figures cover the batch alone unless
   [stats] adds a [stats] request after it *)
let daemon_pass ~seed ~scale ~stats =
  let c, socket, setup = start_daemon () in
  let ops = Mscd.batch ~seed ~requests:(mscd_requests scale) in
  let replies, wall = Mscd.run_batch ~socket ops in
  let bad, results = Mscd.inconsistent ops replies in
  let stats = if stats then Mscd.server_stats ~socket else Json.Null in
  let figures = stop_daemon (c, socket) in
  { setup; wall; replies; bad; results; stats; figures }

(* the golden probe keys, answered by a daemon of their own so that no
   measured daemon serves them *)
let daemon_probes ~bless =
  let c, socket, _ = start_daemon () in
  let checks = check_goldens ~bless [ ("mscd-probes.txt", Mscd.probe_text ~socket) ] in
  ignore (stop_daemon (c, socket));
  checks

let mscd_timed ~seed ~seconds ~scale ~bless =
  let r =
    timed_run ~seconds
      ~pass:(fun ~first:_ ->
        let p = daemon_pass ~seed ~scale ~stats:false in
        let answers = List.sort compare (Hashtbl.fold (fun k r acc -> (k, r) :: acc) p.results []) in
        {
          setup = p.setup;
          wall = p.wall;
          figures = Option.value ~default:Json.Null (Json.member "measured" p.figures);
          pass_attempted = Array.length p.replies;
          pass_failed = p.bad;
          digest =
            Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun (k, r) -> k ^ "\t" ^ r) answers)));
        })
      ~setup_only:(fun () ->
        let c, socket, setup = start_daemon () in
        ignore (stop_daemon (c, socket));
        setup)
  in
  let made, bad = daemon_probes ~bless in
  { r with correct = r.correct && bad = 0; attempted = r.attempted + made; failed = r.failed + bad }

(* --- traced runs ------------------------------------------------------------------- *)

let run_child args =
  let c, _ = spawn_ready args in
  send c "go";
  finish c

let batch_traced w ~seed ~scale =
  let a = run_child (batch_args w ~seed ~scale "pass") in
  let t = run_child [ "child"; "traced"; workload_name w; string_of_int seed; scale_arg scale ] in
  let wall_a = measured a "wall_s" and wall_t = num (Json.member "wall_s" t) in
  let same = String.equal (str a "digest") (str t "digest") in
  if not same then prerr_endline "benchmark: traced pass output differs from the untraced pass";
  let sum k = int_of (Json.member k a) + int_of (Json.member k t) in
  let failed = sum "failed" + if same then 0 else 1 in
  {
    correct = failed = 0;
    attempted = sum "attempted" + 1;
    failed;
    metrics =
      [ ("pass.wall_s", wall_a); ("trace.wall_s", wall_t); ("trace.overhead_s", wall_t -. wall_a) ]
      @ fields_of t "metrics"
      @ List.filter (fun (k, _) -> String.starts_with ~prefix:"harness." k || String.starts_with ~prefix:"sched." k)
          (fields_of a "counts");
  }

let mscd_traced ~seed ~scale =
  let p = daemon_pass ~seed ~scale ~stats:true in
  let replay traced =
    run_child [ "child"; (if traced then "replay-traced" else "replay"); string_of_int seed; scale_arg scale ]
  in
  let b = replay false in
  let t = replay true in
  let keys j = match Json.member "keys" j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let daemon_keys =
    Hashtbl.fold (fun k r acc -> (k, Json.String (Digest.to_hex (Digest.string r))) :: acc) p.results []
    |> List.sort compare
  in
  let mismatched =
    List.length
      (List.filter
         (fun (k, d) -> List.assoc_opt k (keys t) <> Some d || List.assoc_opt k (keys b) <> Some d)
         daemon_keys)
  in
  if mismatched > 0 then
    Printf.eprintf "benchmark: %d daemon responses differ from the in-process replay\n%!" mismatched;
  let replies = Array.to_list p.replies in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 replies in
  let n = float_of_int (List.length replies) in
  let wall_b = num (Json.member "wall_s" b) and wall_t = num (Json.member "wall_s" t) in
  let failed = p.bad + mismatched in
  let sched k = member_num p.stats "sched" k in
  {
    correct = failed = 0;
    attempted = List.length replies + List.length daemon_keys;
    failed;
    metrics =
      [ ("pass.wall_s", p.wall); ("trace.wall_s", wall_t); ("trace.overhead_s", wall_t -. wall_b) ]
      @ fields_of t "metrics"
      @ item_metrics (List.map (fun r -> r.Mscd.latency_us /. 1e3) replies)
      @ [
          ("service.dedup_ratio", float_of_int (List.length (List.filter (fun r -> r.Mscd.dedup) replies)) /. n);
          ("service.server_share", total (fun r -> r.Mscd.server_us) /. Float.max 1e-9 (total (fun r -> r.Mscd.latency_us)));
          ("harness.builds", num (Json.member "pipeline_builds" p.stats));
          ("sched.tasks", sched "tasks");
          ("sched.steals", sched "steals");
          ("sched.parks", sched "parks");
        ];
  }

(* --- one run -------------------------------------------------------------------- *)

(* what a run prints and records; its result line keeps [reported] only *)
let listed ~trace = if trace then per_layer else end_to_end @ timed_extra
let reported ~trace = if trace then per_layer else end_to_end

let run_one w ~seed ~seconds ~trace ~scale ~bless =
  let r =
    match (w, trace) with
    | Mscd_zipf, false -> mscd_timed ~seed ~seconds ~scale ~bless
    | Mscd_zipf, true -> mscd_traced ~seed ~scale
    | _, false -> batch_timed w ~seed ~seconds ~scale ~bless
    | _, true -> batch_traced w ~seed ~scale
  in
  (* the metric list of this mode, in order; absent ones read 0 *)
  { r with metrics = List.map (fun mt -> (mt.name, Option.value ~default:0.0 (List.assoc_opt mt.name r.metrics))) (listed ~trace) }

let unit_of name =
  match List.find_opt (fun mt -> mt.name = name) (end_to_end @ timed_extra @ per_layer) with
  | Some mt -> mt.unit
  | None -> ""

let print_row w ~trace r =
  Printf.printf "%-11s %s  %s\n" (workload_name w)
    (if trace then "traced" else "timed ")
    (String.concat "  "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g %s" k v (unit_of k)) r.metrics));
  Printf.printf "%-11s %s  correct=%b attempted=%d failed=%d\n%!" (workload_name w)
    (if trace then "traced" else "timed ") r.correct r.attempted r.failed

(* The result line: every reported metric of [runs] with its unit.  Runs
   of one workload name their metrics bare: its timed and traced metrics
   never share a name.  Runs of several workloads prefix each name with
   the workload and a dot. *)
let result_line runs =
  let one = List.length (List.sort_uniq compare (List.map (fun (w, _, _) -> w) runs)) = 1 in
  let metrics =
    List.concat_map
      (fun (w, trace, r) ->
        List.map
          (fun mt ->
            ( (if one then mt.name else workload_name w ^ "." ^ mt.name),
              Json.Obj
                [ ("value", Json.Float (List.assoc mt.name r.metrics)); ("unit", Json.String mt.unit) ] ))
          (reported ~trace))
      runs
  in
  let all = List.map (fun (_, _, r) -> r) runs in
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.correct) all));
         ("attempted", Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 all));
         ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 all));
         ("metrics", Json.Obj metrics);
       ])

let append_out path w ~seed ~seconds ~trace r =
  let line =
    Json.Obj
      [
        ("workload", Json.String (workload_name w));
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", fields r.metrics);
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string ~indent:false line ^ "\n");
  close_out oc

(* --- BENCHMARK.json ---------------------------------------------------------------- *)

let benchmark_json () =
  match Option.map Json.parse (read_file "BENCHMARK.json") with
  | Some (Ok j) -> j
  | Some (Error e) -> failwith ("BENCHMARK.json: " ^ e)
  | None -> failwith "cannot read BENCHMARK.json in the current directory"

(* a metric list of BENCHMARK.json: name, unit, higher is better *)
let listed_metrics k =
  match Json.member k (benchmark_json ()) with
  | Some (Json.List ms) -> List.map (fun mj -> (str mj "name", str mj "unit", str mj "better" = "higher")) ms
  | _ -> []

let bounds () =
  match Json.member "end_to_end" (benchmark_json ()) with
  | Some (Json.List ms) -> List.map (fun mj -> (str mj "name", num (Json.member "bound" mj))) ms
  | _ -> []

(* how long a run measures unless --seconds says otherwise *)
let run_seconds () =
  match Json.member "run_seconds" (benchmark_json ()) with
  | Some (Json.Int s) -> float_of_int s
  | _ -> failwith "BENCHMARK.json: no run_seconds"

(* --- compare ------------------------------------------------------------------------- *)

let load_set path =
  match read_file path with
  | None -> failwith ("compare: cannot read " ^ path)
  | Some s ->
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else match Json.parse line with Ok j -> Some j | Error e -> failwith (path ^ ": " ^ e))
      (String.split_on_char '\n' s)

(* verdict for one metric: unresolved when either side's noise band is
   wider than the bound (unless every B run beats every A run),
   regressed when B's median is worse than A's by more than the bound *)
let verdict ~bound ~higher a b =
  let worse x y = if higher then y < x else y > x in
  let ma = Sample.median a and mb = Sample.median b in
  let delta = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
  let worse_by = if higher then -.delta else delta in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> worse y x) a) b in
  match bound with
  | None -> ("-", delta)
  | Some bound ->
    if Float.max (Sample.spread a) (Sample.spread b) > bound && not all_better then ("unresolved", delta)
    else if worse_by > bound then ("regressed", delta)
    else ("ok", delta)

let compare_sets path_a path_b =
  let bounds = bounds () in
  let a = load_set path_a and b = load_set path_b in
  let lengths set = List.sort_uniq compare (List.map (fun j -> num (Json.member "seconds" j)) set) in
  if lengths a <> lengths b then
    print_endline "warning: the two sets' runs measured for different lengths (--seconds)";
  let regressed = ref 0 in
  let groups =
    List.sort_uniq compare (List.map (fun j -> (str j "workload", Json.member "trace" j = Some (Json.Bool true))) (a @ b))
  in
  List.iter
    (fun (w, trace) ->
      let runs set =
        List.filter (fun j -> str j "workload" = w && (Json.member "trace" j = Some (Json.Bool true)) = trace) set
      in
      let ra = runs a and rb = runs b in
      Printf.printf "\n%s (%s): %d runs vs %d runs\n" w (if trace then "traced" else "timed") (List.length ra)
        (List.length rb);
      Printf.printf "  %-28s %-9s %12s %12s %12s | %12s %12s %12s %8s  %s\n" "metric" "unit" "A q1" "A median"
        "A q3" "B q1" "B median" "B q3" "delta" "verdict";
      if ra <> [] && rb <> [] then
        List.iter
          (fun mt ->
            let vals set = List.map (fun j -> member_num j "metrics" mt.name) set in
            let va = vals ra and vb = vals rb in
            let bound = if trace then None else List.assoc_opt mt.name bounds in
            let v, delta = verdict ~bound ~higher:mt.higher_better va vb in
            if v = "regressed" then incr regressed;
            let a1, a2, a3 = Sample.quartiles va and b1, b2, b3 = Sample.quartiles vb in
            Printf.printf "  %-28s %-9s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g %+7.2f%%  %s\n" mt.name mt.unit a1 a2
              a3 b1 b2 b3 (100.0 *. delta) v)
          (listed ~trace))
    groups;
  if !regressed > 0 then exit 1

(* --- smoke: every workload at minimum scale, goldens checked ------------------------- *)

(* The runner's metric lists must be BENCHMARK.json's.  The result line
   of a workload's timed run, of its traced run and of both must name
   exactly BENCHMARK.json's end-to-end metrics, its per-layer metrics and
   both, with their units. *)
let check_metric_names runs =
  let e2e = listed_metrics "end_to_end" and pl = listed_metrics "per_layer" in
  let ours ms = List.map (fun mt -> (mt.name, mt.unit, mt.higher_better)) ms in
  let lists_ok = e2e = ours end_to_end && pl = ours per_layer in
  if not lists_ok then prerr_endline "benchmark: BENCHMARK.json metric lists differ from the runner's";
  let names ms = List.sort compare (List.map (fun (n, u, _) -> (n, u)) ms) in
  let emitted runs =
    match Result.map (Json.member "metrics") (Json.parse (result_line runs)) with
    | Ok (Some (Json.Obj kvs)) -> List.sort compare (List.map (fun (k, v) -> (k, str v "unit")) kvs)
    | _ -> []
  in
  let lines_ok =
    List.for_all
      (fun (_, w) ->
        let pick t = List.filter (fun (w', t', _) -> w' = w && t' = t) runs in
        let timed = pick false and traced = pick true in
        emitted timed = names e2e && emitted traced = names pl && emitted (timed @ traced) = names (e2e @ pl))
      workloads
  in
  if not lines_ok then prerr_endline "benchmark: a result line's metrics differ from BENCHMARK.json's";
  lists_ok && lines_ok

(* --- command line -------------------------------------------------------------------- *)

let usage =
  "run.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \       run.exe compare A.jsonl B.jsonl\n\
  \       run.exe smoke | bless\n\
   workloads: paper-grid fb-search fuzz-corpus mscd-zipf"

let main_run args =
  let workload = ref None and seed = ref Pass.golden_seed and seconds = ref None and trace = ref None
  and out = ref None in
  let spec =
    [
      ("--workload", Arg.String (fun s ->
           match List.assoc_opt s workloads with
           | Some w -> workload := Some w
           | None -> raise (Arg.Bad ("unknown workload " ^ s))), "W one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S measuring time per run (default: run_seconds in BENCHMARK.json)" );
      ("--trace", Arg.Int (fun t -> trace := Some (t <> 0)), "0|1 timed or traced run (default: both)");
      ("--out", Arg.String (fun s -> out := Some s), "FILE append each run's result as a JSON line");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) (Array.of_list (Sys.executable_name :: args)) spec
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> prerr_endline msg; exit 2);
  let seconds = match !seconds with Some s -> s | None -> run_seconds () in
  let ws = match !workload with Some w -> [ w ] | None -> List.map snd workloads in
  let modes = match !trace with Some t -> [ t ] | None -> [ false; true ] in
  (* a single run must end well within three minutes *)
  if !workload <> None then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> prerr_endline "benchmark: run exceeded its time limit"; kill_children (); exit 3));
    ignore (Unix.alarm 170)
  end;
  mkdir_p out_dir;
  let runs =
    List.concat_map
      (fun w ->
        List.map
          (fun trace ->
            let r = run_one w ~seed:!seed ~seconds ~trace ~scale:Full ~bless:false in
            print_row w ~trace r;
            Option.iter (fun p -> append_out p w ~seed:!seed ~seconds ~trace r) !out;
            (w, trace, r))
          modes)
      ws
  in
  print_endline (result_line runs)

(* smoke and bless: every workload at minimum scale (one pass, fuzz n 11,
   50 daemon requests) on the golden seed, timed then traced; bless
   rewrites the goldens of both scales from the untraced passes instead
   of checking them *)
let smoke ~bless =
  mkdir_p out_dir;
  let scales = if bless then [ Smoke; Full ] else [ Smoke ] in
  let runs =
    List.concat_map
      (fun scale ->
        List.concat_map
          (fun (_, w) ->
            List.map
              (fun trace ->
                let r = run_one w ~seed:Pass.golden_seed ~seconds:0.0 ~trace ~scale ~bless in
                print_row w ~trace r;
                (w, trace, r))
              (if bless then [ false ] else [ false; true ]))
          workloads)
      scales
  in
  let names_ok = bless || check_metric_names runs in
  if not (names_ok && List.for_all (fun (_, _, r) -> r.correct) runs) then exit 1

let () =
  at_exit kill_children;
  let args = List.tl (Array.to_list Sys.argv) in
  try
    match args with
    | [ "child"; "pass"; w; seed; scale ] ->
      child_pass (List.assoc w workloads) ~seed:(int_of_string seed) ~scale:(scale_of scale)
    | [ "child"; "traced"; w; seed; scale ] ->
      child_traced (List.assoc w workloads) ~seed:(int_of_string seed) ~scale:(scale_of scale)
    | [ "child"; ("replay" | "replay-traced") as mode; seed; scale ] ->
      child_replay ~seed:(int_of_string seed) ~scale:(scale_of scale) ~traced:(mode = "replay-traced")
    | [ "child"; "serve"; socket ] -> child_serve ~socket
    | [ "compare"; a; b ] -> compare_sets a b
    | [ "smoke" ] -> smoke ~bless:false
    | [ "bless" ] -> smoke ~bless:true
    | _ -> main_run args
  with
  | Failure msg | Sys_error msg ->
    prerr_endline ("benchmark: " ^ msg);
    exit 2
  | Unix.Unix_error (e, fn, _) ->
    prerr_endline ("benchmark: " ^ fn ^ ": " ^ Unix.error_message e);
    exit 2
