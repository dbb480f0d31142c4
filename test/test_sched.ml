(* The scheduler: futures, queue order and counters, stress (no lost or
   duplicated results across workers), exactly-once artifact builds
   through the scheduler, cross-width determinism of the job engine, and
   the latency histogram. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Scheduler ------------------------------------------------------- *)

let with_sched ~domains f =
  let t = Sched.create ~domains () in
  Fun.protect ~finally:(fun () -> Sched.shutdown t) (fun () -> f t)

let test_sched_map_order () =
  with_sched ~domains:2 (fun t ->
      let xs = List.init 100 Fun.id in
      checkb "input order" true
        (Sched.map t (fun x -> x * 2) xs = List.map (fun x -> x * 2) xs);
      checkb "empty" true (Sched.map t Fun.id [] = []))

let test_sched_nested_map () =
  with_sched ~domains:2 (fun t ->
      (* fan-out from inside a task: the worker must help, not deadlock *)
      let grid =
        Sched.map t
          (fun row -> Sched.map t (fun col -> (row * 10) + col) [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ]
      in
      checkb "nested results" true
        (grid
        = [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]))

let test_sched_error () =
  with_sched ~domains:2 (fun t ->
      Alcotest.check_raises "lowest-index failure resurfaces"
        (Failure "boom-3") (fun () ->
          ignore
            (Sched.map t
               (fun x ->
                 if x mod 5 = 3 then failwith (Printf.sprintf "boom-%d" x)
                 else x)
               (List.init 20 Fun.id))))

let test_sched_queue_order () =
  (* one worker: injected tasks start oldest first, and each one's nested
     fan-out runs newest first before the next injected task starts *)
  with_sched ~domains:1 (fun t ->
      let log = ref [] in
      let note s = log := s :: !log in
      let outer o =
        note o;
        ignore (Sched.map t (fun i -> note (Printf.sprintf "%s.%d" o i)) [ 1; 2 ])
      in
      ignore (Sched.map t outer [ "o1"; "o2"; "o3" ]);
      Alcotest.(check (list string))
        "depth-first joins, top-level tasks in submission order"
        [ "o1"; "o1.2"; "o1.1"; "o2"; "o2.2"; "o2.1"; "o3"; "o3.2"; "o3.1" ]
        (List.rev !log);
      let st = Sched.stats t in
      checki "tasks" 9 st.Sched.tasks;
      checki "injected" 3 st.Sched.injected;
      checki "local" 6 st.Sched.local;
      checki "steals" 0 st.Sched.steals)

let test_sched_stress () =
  (* 1000 mixed tiny/large tasks: every result present, correct and
     counted exactly once, with counters consistent *)
  with_sched ~domains:3 (fun t ->
      let n = 1000 in
      let executions = Atomic.make 0 in
      let work x =
        Atomic.incr executions;
        if x mod 7 = 0 then begin
          (* large task: real work plus a nested fan-out *)
          let sub = Sched.map t (fun i -> i * i) [ 1; 2; 3; 4; 5 ] in
          List.fold_left ( + ) x sub
        end
        else x * 3
      in
      let expect x =
        if x mod 7 = 0 then x + 1 + 4 + 9 + 16 + 25 else x * 3
      in
      let xs = List.init n Fun.id in
      let got = Sched.map t work xs in
      checkb "all results correct" true (got = List.map expect xs);
      checki "each submitted task ran exactly once" n (Atomic.get executions);
      let nested = List.length (List.filter (fun x -> x mod 7 = 0) xs) * 5 in
      checkb "scheduler executed them all" true
        ((Sched.stats t).Sched.tasks >= n + nested))

let test_sched_releases_stolen_tasks () =
  (* a task run by a worker other than its submitter, and everything its
     body captured, must become garbage once it has run: no queue may
     keep pointing at a task it handed out *)
  with_sched ~domains:2 (fun t ->
      let made = ref 0 and collected = Atomic.make 0 in
      let nested_map () =
        (* reachable only through the inner tasks' closures *)
        let block = Array.make 64 1 in
        Gc.finalise (fun _ -> Atomic.incr collected) block;
        incr made;
        let before = (Sched.stats t).Sched.steals in
        let inner j =
          (* hold this worker until the other one has taken a sibling
             this worker submitted, or a second has passed *)
          let deadline = Unix.gettimeofday () +. 1.0 in
          while
            (Sched.stats t).Sched.steals = before
            && Unix.gettimeofday () < deadline
          do
            Domain.cpu_relax ()
          done;
          block.(j) + j
        in
        ignore (Sched.map t (fun () -> Sched.map t inner [ 0; 1; 2; 3 ]) [ () ]);
        (Sched.stats t).Sched.steals > before
      in
      let rec until_stolen tries =
        if (not (nested_map ())) && tries > 1 then until_stolen (tries - 1)
      in
      until_stolen 20;
      checkb "a task was stolen" true ((Sched.stats t).Sched.steals > 0);
      Gc.full_major ();
      Gc.full_major ();
      checki "every captured block collected" !made (Atomic.get collected))

let test_pool_exactly_once_across_workers () =
  (* hammer one artifact key from a parallel map: the store's memo must
     admit exactly one build no matter how the tasks interleave across
     the workers *)
  let store = Harness.Artifact.create () in
  let entry = Workloads.Suite.find "compress" in
  let arts =
    Harness.Pool.map ~jobs:4
      (fun _ ->
        Harness.Artifact.get store ~level:Core.Heuristics.Task_size entry)
      (List.init 16 Fun.id)
  in
  checki "one pipeline build" 1 (Harness.Artifact.builds store);
  (match arts with
  | first :: rest ->
    List.iter
      (fun a ->
        checkb "physically shared" true
          (a.Harness.Artifact.plan == first.Harness.Artifact.plan))
      rest
  | [] -> assert false)

(* --- determinism across widths --------------------------------------- *)

let test_job_run_deterministic_across_jobs () =
  let entries =
    [ Workloads.Suite.find "compress"; Workloads.Suite.find "li" ]
  in
  let json_at jobs =
    let store = Harness.Artifact.create () in
    ignore (Report.Figure5.run ~store ~jobs entries);
    Harness.Json.to_string
      (Harness.Job.document (Harness.Job.results_of_store store))
  in
  let serial = json_at 1 in
  checkb "jobs=2 byte-identical" true (json_at 2 = serial);
  checkb "jobs=recommended byte-identical" true
    (json_at (Domain.recommended_domain_count ()) = serial);
  checkb "repeat byte-identical" true (json_at 2 = serial)

let test_pool_map_deterministic_qcheck =
  QCheck.Test.make ~count:30 ~name:"Pool.map equals List.map at any width"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = (x * 31) + (x mod 5) in
      Harness.Pool.map ~jobs f xs = List.map f xs)

(* --- histogram ------------------------------------------------------- *)

let test_histogram_basics () =
  let module H = Harness.Stat.Histogram in
  let h = H.create () in
  checki "empty count" 0 (H.count h);
  checkb "empty percentile" true (H.percentile h 50.0 = 0.0);
  List.iter (H.add h) [ 1.0; 10.0; 100.0; 1000.0 ];
  checki "count" 4 (H.count h);
  checkb "mean exact" true (H.mean h = (1.0 +. 10.0 +. 100.0 +. 1000.0) /. 4.0);
  checkb "p0 is min" true (H.percentile h 0.0 = 1.0);
  checkb "p100 near max" true (H.percentile h 100.0 >= 900.0);
  (* single sample: every percentile is that sample (clamped range) *)
  let one = H.create () in
  H.add one 250.0;
  checkb "single sample p50" true (H.percentile one 50.0 = 250.0);
  (* merge equals feeding one histogram *)
  let a = H.create () and b = H.create () and all = H.create () in
  List.iter
    (fun v ->
      H.add all v;
      if v < 50.0 then H.add a v else H.add b v)
    (List.init 100 (fun i -> float_of_int (i + 1)));
  let m = H.merge a b in
  checki "merge count" (H.count all) (H.count m);
  checkb "merge sum" true (H.total_sum m = H.total_sum all);
  checkb "merge percentiles" true
    (List.for_all
       (fun p -> H.percentile m p = H.percentile all p)
       [ 10.0; 50.0; 90.0; 99.0 ])

let test_histogram_quantile_error_qcheck =
  QCheck.Test.make ~count:100
    ~name:"histogram p50/p90/p99 within one log-bucket of exact"
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0.5 1e7))
    (fun samples ->
      let module H = Harness.Stat.Histogram in
      let h = H.create () in
      List.iter (H.add h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact =
            sorted.(max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))
          in
          let est = H.percentile h p in
          if exact <= 1.0 then
            (* underflow bucket: no resolution below 1.0 by design *)
            est <= 1.0
          else
            (* one log-bucket of relative error, with float slack *)
            let tol = Float.pow 2.0 (1.0 /. 8.0) *. 1.000001 in
            est <= exact *. tol && est >= exact /. tol)
        [ 50.0; 90.0; 99.0 ])

let test_histogram_monotone_qcheck =
  QCheck.Test.make ~count:100 ~name:"histogram percentile monotone in p"
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0.0 1e6))
    (fun samples ->
      let module H = Harness.Stat.Histogram in
      let h = H.create () in
      List.iter (H.add h) samples;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (H.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vs)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "map order" `Quick test_sched_map_order;
          Alcotest.test_case "nested map" `Quick test_sched_nested_map;
          Alcotest.test_case "error propagation" `Quick test_sched_error;
          Alcotest.test_case "queue order and counters" `Quick
            test_sched_queue_order;
          Alcotest.test_case "stress 1000 mixed tasks" `Slow test_sched_stress;
          Alcotest.test_case "exactly-once artifact builds" `Slow
            test_pool_exactly_once_across_workers;
          Alcotest.test_case "stolen tasks release their closures" `Quick
            test_sched_releases_stolen_tasks;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "job engine across widths" `Slow
            test_job_run_deterministic_across_jobs;
          qc test_pool_map_deterministic_qcheck;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          qc test_histogram_quantile_error_qcheck;
          qc test_histogram_monotone_qcheck;
        ] );
    ]
