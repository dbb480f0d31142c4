(* Tests for the unified experiment engine: JSON round-trips, the domain
   pool (order preservation, serial fallback, error propagation), the
   artifact store's exactly-once memoization, parallel/serial equivalence
   of the report tables that run through it, and the results export. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 0.0) (* exact *)

(* --- Json ------------------------------------------------------------------ *)

let sample_json =
  Harness.Json.(
    Obj
      [
        ("name", String "compress \"alt\"\n");
        ("ipc", Float 1.625);
        ("tiny", Float 3.5e-9);
        ("third", Float (1.0 /. 3.0));
        ("whole", Float 2.0);
        ("count", Int 42);
        ("neg", Int (-7));
        ("flag", Bool true);
        ("nothing", Null);
        ("xs", List [ Int 1; Float 0.1; String "x"; List []; Obj [] ]);
      ])

let test_json_roundtrip () =
  let s = Harness.Json.to_string sample_json in
  (match Harness.Json.parse s with
   | Ok v -> checkb "roundtrip equal" true (v = sample_json)
   | Error e -> Alcotest.fail e);
  (* compact form parses to the same tree *)
  match Harness.Json.parse (Harness.Json.to_string ~indent:false sample_json) with
  | Ok v -> checkb "compact roundtrip" true (v = sample_json)
  | Error e -> Alcotest.fail e

let test_json_float_stays_float () =
  (* whole-valued floats must not collapse to Int on re-parse *)
  match Harness.Json.parse (Harness.Json.to_string (Harness.Json.Float 2.0)) with
  | Ok (Harness.Json.Float x) -> checkf "value" 2.0 x
  | Ok _ -> Alcotest.fail "re-parsed as a non-float"
  | Error e -> Alcotest.fail e

let test_json_errors () =
  let bad s =
    match Harness.Json.parse s with Ok _ -> false | Error _ -> true
  in
  checkb "garbage" true (bad "{nope}");
  checkb "trailing" true (bad "[1] tail");
  checkb "unterminated" true (bad "\"abc");
  checkb "empty" true (bad "")

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = List.init 57 (fun i -> i) in
  let expected = List.map (fun x -> (x * x) + 1 ) xs in
  checkb "serial" true
    (Harness.Pool.map ~jobs:1 (fun x -> (x * x) + 1) xs = expected);
  checkb "parallel 2" true
    (Harness.Pool.map ~jobs:2 (fun x -> (x * x) + 1) xs = expected);
  checkb "parallel 8" true
    (Harness.Pool.map ~jobs:8 (fun x -> (x * x) + 1) xs = expected);
  checkb "more jobs than items" true
    (Harness.Pool.map ~jobs:8 (fun x -> x) [ 1; 2 ] = [ 1; 2 ]);
  checkb "empty" true (Harness.Pool.map ~jobs:4 (fun x -> x) [] = [])

let test_pool_error_propagates () =
  Alcotest.check_raises "exception resurfaces" (Failure "boom") (fun () ->
      ignore
        (Harness.Pool.map ~jobs:2
           (fun x -> if x = 3 then failwith "boom" else x)
           [ 1; 2; 3; 4 ]))

let test_pool_scheduler_width_one () =
  (* a one-CPU host asks for the resident scheduler at width 1 *)
  let t = Harness.Pool.scheduler ~jobs:1 in
  checkb "resident" true (Harness.Pool.scheduler ~jobs:1 == t);
  checki "runs a task" 42 (Sched.run t (fun () -> 6 * 7))

let test_pool_default_jobs () =
  (match Sys.getenv_opt "HARNESS_JOBS" with
  | Some _ -> checkb "positive" true (Harness.Pool.default_jobs () >= 1)
  | None ->
    (* match the machine: oversubscribing a single core with extra domains
       only adds minor-GC synchronisation overhead *)
    checkb "defaults to the domain count" true
      (Harness.Pool.default_jobs () = Domain.recommended_domain_count ()));
  (* the env override is clamped and validated; restore the variable
     afterwards so this test cannot change its siblings' width *)
  let saved = Sys.getenv_opt "HARNESS_JOBS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "HARNESS_JOBS" v
    | None -> Unix.putenv "HARNESS_JOBS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      let recommended = Domain.recommended_domain_count () in
      Unix.putenv "HARNESS_JOBS" "1";
      checki "explicit 1" 1 (Harness.Pool.default_jobs ());
      Unix.putenv "HARNESS_JOBS" (string_of_int (recommended + 7));
      checki "clamped to recommended" recommended (Harness.Pool.default_jobs ());
      let rejects v =
        Unix.putenv "HARNESS_JOBS" v;
        match Harness.Pool.default_jobs () with
        | _ -> checkb (Printf.sprintf "rejects %S" v) true false
        | exception Failure _ -> ()
      in
      rejects "0";
      rejects "-3";
      rejects "three";
      (* blank means unset (the `HARNESS_JOBS= cmd` idiom) *)
      Unix.putenv "HARNESS_JOBS" "";
      checki "blank falls back" recommended (Harness.Pool.default_jobs ()))

(* --- Memo ------------------------------------------------------------------ *)

let test_memo_concurrent_once () =
  (* eight domains requesting ten keys in rotated orders: each key is
     computed once, every requester gets that one value, and exactly one
     requester per key reports having computed it *)
  let m = Harness.Memo.create 16 in
  let keys = 10 in
  let computed = Array.init keys (fun _ -> Atomic.make 0) in
  let compute k () =
    Atomic.incr computed.(k);
    (* stay in flight long enough for other requesters to join *)
    for _ = 1 to 20_000 do
      Domain.cpu_relax ()
    done;
    ref k
  in
  let request d =
    List.init keys (fun i ->
        let k = (i + d) mod keys in
        (k, Harness.Memo.find_or_compute m k (compute k)))
  in
  let results =
    List.concat_map Domain.join
      (List.init 8 (fun d -> Domain.spawn (fun () -> request d)))
  in
  for k = 0 to keys - 1 do
    checki
      (Printf.sprintf "key %d computed once" k)
      1 (Atomic.get computed.(k));
    let got =
      List.filter_map (fun (k', r) -> if k' = k then Some r else None) results
    in
    let first = fst (List.hd got) in
    checkb "one shared value" true
      (List.for_all (fun (v, _) -> v == first) got);
    checki "one computing requester" 1
      (List.length (List.filter (fun (_, joined) -> not joined) got))
  done;
  checki "every key landed" keys (List.length (Harness.Memo.bindings m))

let test_memo_failure_not_cached () =
  (* a failing computation delivers its exception to everyone who joined
     it; the key is then free, and the next request computes again *)
  let m = Harness.Memo.create 4 in
  let started = Atomic.make false and release = Atomic.make false in
  let arrived = Atomic.make 0 and late = Atomic.make 0 in
  let outcome f =
    match f () with
    | v, _ -> Ok v
    | exception Failure msg -> Error msg
  in
  let owner =
    Domain.spawn (fun () ->
        outcome (fun () ->
            Harness.Memo.find_or_compute m "k" (fun () ->
                Atomic.set started true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done;
                failwith "boom")))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiters =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            outcome (fun () ->
                Harness.Memo.find_or_compute m "k" (fun () ->
                    Atomic.incr late;
                    0))))
  in
  while Atomic.get arrived < 3 do
    Domain.cpu_relax ()
  done;
  (* let the waiters block on the in-flight key before it fails *)
  Unix.sleepf 0.5;
  Atomic.set release true;
  checkb "owner sees the failure" true (Domain.join owner = Error "boom");
  List.iter
    (fun w ->
      checkb "waiter sees the failure" true (Domain.join w = Error "boom"))
    waiters;
  checki "no waiter computed" 0 (Atomic.get late);
  checki "failure not bound" 0 (List.length (Harness.Memo.bindings m));
  checkb "next request computes again" true
    (Harness.Memo.find_or_compute m "k" (fun () -> 42) = (42, false));
  checkb "then it is cached" true
    (Harness.Memo.find_or_compute m "k" (fun () -> 0) = (42, true))

let test_memo_find () =
  (* [find] never computes: absent keys stay absent, and a requester of an
     in-flight key waits for its value *)
  let m = Harness.Memo.create 4 in
  checkb "absent" true (Harness.Memo.find m "k" = None);
  checki "nothing bound" 0 (List.length (Harness.Memo.bindings m));
  let started = Atomic.make false and release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Harness.Memo.find_or_compute m "k" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            7))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiter = Domain.spawn (fun () -> Harness.Memo.find m "k") in
  Unix.sleepf 0.2;
  Atomic.set release true;
  checkb "owner computed" true (Domain.join owner = (7, false));
  checkb "waiter joined the in-flight value" true (Domain.join waiter = Some 7);
  checkb "landed" true (Harness.Memo.find m "k" = Some 7)

(* --- Artifact store -------------------------------------------------------- *)

let test_artifact_physical_equality () =
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let a1 =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let a2 =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  checkb "same plan (==)" true (a1.Harness.Artifact.plan == a2.Harness.Artifact.plan);
  checkb "same trace (==)" true
    (a1.Harness.Artifact.trace == a2.Harness.Artifact.trace);
  checki "one pipeline build" 1 (Harness.Artifact.builds store);
  (* a different key is a different pipeline *)
  let a3 =
    Harness.Artifact.get store ~level:Core.Heuristics.Basic_block entry
  in
  checkb "distinct plan" true (a3.Harness.Artifact.plan != a1.Harness.Artifact.plan);
  checki "two pipeline builds" 2 (Harness.Artifact.builds store)

let test_sim_memoized () =
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let art =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let s1 = Harness.Artifact.sim store art ~num_pus:4 ~in_order:false in
  let s2 = Harness.Artifact.sim store art ~num_pus:4 ~in_order:false in
  checkb "same stats record (==)" true (s1 == s2);
  checki "still one pipeline build" 1 (Harness.Artifact.builds store);
  checki "one recorded sim" 1 (List.length (Harness.Artifact.sim_results store))

let test_artifact_concurrent_once () =
  (* eight domains racing on one key must compute it exactly once and agree
     on the physical result *)
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let plans =
    Harness.Pool.map ~jobs:8
      (fun _ ->
        (Harness.Artifact.get store ~level:Core.Heuristics.Basic_block entry)
          .Harness.Artifact.plan)
      (List.init 8 (fun i -> i))
  in
  checki "one build under contention" 1 (Harness.Artifact.builds store);
  match plans with
  | first :: rest -> checkb "all physically equal" true (List.for_all (fun p -> p == first) rest)
  | [] -> Alcotest.fail "no results"

(* One interpretation per distinct program: bb, cf and dd run the same
   hoisted program, and fb's refined plan keeps its seed's program, so
   their artifacts share one physical trace; sharing changes no plan. *)
let plan_dump (plan : Core.Partition.plan) =
  Format.asprintf "%a@.%a" Ir.Prog.pp plan.Core.Partition.prog
    (fun ppf parts ->
      Ir.Prog.Smap.iter (fun _ p -> Format.fprintf ppf "%a@." Core.Task.pp p) parts)
    plan.Core.Partition.parts

let test_artifact_shared_runs () =
  let store = Harness.Artifact.create () in
  let entries = [ Workloads.Suite.find "compress"; Workloads.Suite.find "fpppp" ] in
  let levels = Core.Heuristics.extended_levels in
  let arts = Harness.Artifact.grid store ~jobs:1 ~levels entries Fun.id in
  checki "one pipeline per cell" 10 (Harness.Artifact.builds store);
  List.iter
    (fun (entry : Workloads.Registry.entry) ->
      let name = entry.Workloads.Registry.name in
      let at level =
        List.find
          (fun (a : Harness.Artifact.artifact) ->
            a.Harness.Artifact.key.Harness.Artifact.workload = name
            && a.Harness.Artifact.key.Harness.Artifact.level = level)
          arts
      in
      let trace level = (at level).Harness.Artifact.trace in
      checkb (name ^ ": cf shares bb's trace") true
        (trace Core.Heuristics.Control_flow == trace Core.Heuristics.Basic_block);
      checkb (name ^ ": dd shares bb's trace") true
        (trace Core.Heuristics.Data_dependence == trace Core.Heuristics.Basic_block);
      let prog level = (at level).Harness.Artifact.plan.Core.Partition.prog in
      let seed =
        if compare (prog Core.Heuristics.Feedback) (prog Core.Heuristics.Task_size) = 0
        then Core.Heuristics.Task_size
        else Core.Heuristics.Data_dependence
      in
      checkb (name ^ ": fb shares its seed's trace") true
        (trace Core.Heuristics.Feedback == trace seed);
      List.iter
        (fun level ->
          checkb
            (Printf.sprintf "%s %s: plan as built without the store" name
               (Core.Heuristics.level_name level))
            true
            (plan_dump (at level).Harness.Artifact.plan
            = plan_dump
                (Core.Cost.plan_for_level level (entry.Workloads.Registry.build ()))))
        levels)
    entries;
  let distinct =
    List.fold_left
      (fun acc (a : Harness.Artifact.artifact) ->
        if List.memq a.Harness.Artifact.trace acc then acc
        else a.Harness.Artifact.trace :: acc)
      [] arts
  in
  checki "trace bytes count each shared trace once"
    (List.fold_left (fun acc tr -> acc + Interp.Trace.bytes tr) 0 distinct)
    (Harness.Artifact.trace_bytes store)

(* --- parallel/serial equivalence of the report tables ---------------------- *)

let small_suite () =
  [ Workloads.Suite.find "compress"; Workloads.Suite.find "li" ]

let test_table1_parallel_matches_serial () =
  let serial =
    Report.Table1.run ~store:(Harness.Artifact.create ()) ~jobs:1
      (small_suite ())
  in
  let parallel =
    Report.Table1.run ~store:(Harness.Artifact.create ()) ~jobs:2
      (small_suite ())
  in
  checkb "identical rows" true (serial = parallel)

let test_figure5_store_matches_direct () =
  (* a fresh store per pass computes every cell itself; a reused one
     serves the second pass from its caches *)
  let entries = [ Workloads.Suite.find "compress" ] in
  let direct =
    Report.Figure5.run ~store:(Harness.Artifact.create ()) ~jobs:1 entries
  in
  let store = Harness.Artifact.create () in
  let cached = Report.Figure5.run ~store ~jobs:1 entries in
  checkb "identical rows" true (direct = cached);
  (* one pipeline per heuristic level, reused across all four machine
     configurations *)
  checki "four pipeline builds" 4 (Harness.Artifact.builds store);
  checki "sixteen recorded sims" 16
    (List.length (Harness.Artifact.sim_results store));
  (* a second pass is served entirely from the cache *)
  let again = Report.Figure5.run ~store ~jobs:1 entries in
  checkb "cache-served pass identical" true (cached = again);
  checki "still four pipeline builds" 4 (Harness.Artifact.builds store)

(* --- job records + export -------------------------------------------------- *)

(* compress at cf on two machines, through the engine *)
let run_batch store =
  Report.Breakdown.run ~store ~levels:[ Core.Heuristics.Control_flow ]
    ~pus:[ 4; 8 ]
    [ Workloads.Suite.find "compress" ]

let parse_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Harness.Json.parse (String.trim contents) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let test_job_run_and_json_roundtrip () =
  let store = Harness.Artifact.create () in
  let runs = run_batch store in
  checki "one pipeline for both configs" 1 (Harness.Artifact.builds store);
  (* a variant pipeline is recorded by the store but is not part of the
     exported trajectory *)
  let conv =
    Harness.Artifact.get store
      ~variant:{ Harness.Artifact.base_variant with if_convert = true }
      ~level:Core.Heuristics.Control_flow (Workloads.Suite.find "compress")
  in
  ignore (Harness.Artifact.sim store conv ~num_pus:4 ~in_order:false);
  checki "three recorded sims" 3
    (List.length (Harness.Artifact.sim_results store));
  let results = Harness.Job.results_of_store store in
  let expected =
    List.map
      (fun (r : Report.Breakdown.row) ->
        Harness.Job.result_of_stats
          { Harness.Job.workload = r.workload; level = r.level;
            num_pus = r.num_pus; in_order = r.in_order }
          ~kind:r.kind r.stats)
      runs
  in
  checkb "recorded = run results" true (results = expected);
  checkb "positive ipc" true
    (List.for_all (fun r -> r.Harness.Job.ipc > 0.0) results);
  (* the document's "jobs" member survives a trip through its text *)
  let j = Harness.Job.document results in
  match Harness.Json.parse (Harness.Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    checkb "jobs member" true
      (Harness.Json.member "jobs" parsed
       = Some (Harness.Json.List (List.map Harness.Job.result_to_json results)))

let test_job_export_file () =
  let store = Harness.Artifact.create () in
  ignore (run_batch store);
  let results = Harness.Job.results_of_store store in
  let path = Filename.temp_file "harness_results" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Harness.Json.to_file path (Harness.Job.document results);
      checkb "file holds the document" true
        (parse_file path = Harness.Job.document results))

(* --- stats ----------------------------------------------------------------- *)

let test_geomean () =
  checkf "empty" 0.0 (Harness.Stat.geomean []);
  checkf "singleton" 4.0 (Harness.Stat.geomean [ 4.0 ]);
  Alcotest.check (Alcotest.float 1e-12) "pair" 2.0
    (Harness.Stat.geomean [ 1.0; 4.0 ]);
  (* values are clamped at 1e-9 before the logarithm *)
  Alcotest.check (Alcotest.float 1e-12) "clamped"
    (exp ((log 1e-9 +. log 1.0) /. 2.0))
    (Harness.Stat.geomean [ 0.0; 1.0 ]);
  checkf "mean empty" 0.0 (Harness.Stat.mean []);
  checkf "mean" 2.5 (Harness.Stat.mean [ 1.0; 4.0 ])

let () =
  Alcotest.run "harness"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float stays float" `Quick
            test_json_float_stays_float;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_pool_map_order;
          Alcotest.test_case "errors" `Quick test_pool_error_propagates;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
          Alcotest.test_case "scheduler at width 1" `Quick
            test_pool_scheduler_width_one;
        ] );
      ( "memo",
        [
          Alcotest.test_case "concurrent once" `Quick test_memo_concurrent_once;
          Alcotest.test_case "find" `Quick test_memo_find;
          Alcotest.test_case "failure not cached" `Quick
            test_memo_failure_not_cached;
        ] );
      ( "artifact store",
        [
          Alcotest.test_case "physical equality" `Quick
            test_artifact_physical_equality;
          Alcotest.test_case "sim memoized" `Quick test_sim_memoized;
          Alcotest.test_case "shared runs" `Quick test_artifact_shared_runs;
          Alcotest.test_case "concurrent once" `Quick
            test_artifact_concurrent_once;
        ] );
      ( "parallel = serial",
        [
          Alcotest.test_case "table1" `Slow test_table1_parallel_matches_serial;
          Alcotest.test_case "figure5 store" `Slow
            test_figure5_store_matches_direct;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "run + json" `Quick test_job_run_and_json_roundtrip;
          Alcotest.test_case "export file" `Quick test_job_export_file;
        ] );
      ( "stats",
        [ Alcotest.test_case "geomean" `Quick test_geomean ] );
    ]
