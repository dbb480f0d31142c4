(* Work-stealing scheduler: deque/injector semantics, futures, stress
   (no lost or duplicated results under stealing), exactly-once artifact
   builds through the scheduler, cross-width determinism of the job
   engine, and the latency histogram. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Deque ----------------------------------------------------------- *)

let test_deque_lifo_fifo () =
  let d = Sched.Deque.create ~capacity:2 ~dummy:0 () in
  checkb "empty pop" true (Sched.Deque.pop d = None);
  checkb "empty steal" true (Sched.Deque.steal d = None);
  (* push past the initial capacity to exercise grow *)
  for i = 1 to 100 do
    Sched.Deque.push d i
  done;
  checki "size" 100 (Sched.Deque.size d);
  checkb "owner pops LIFO" true (Sched.Deque.pop d = Some 100);
  checkb "thief steals FIFO" true (Sched.Deque.steal d = Some 1);
  checkb "steal advances" true (Sched.Deque.steal d = Some 2);
  checkb "pop still LIFO" true (Sched.Deque.pop d = Some 99);
  checki "size after" 96 (Sched.Deque.size d)

let test_deque_last_element () =
  let d = Sched.Deque.create ~dummy:0 () in
  Sched.Deque.push d 7;
  checkb "single element pops" true (Sched.Deque.pop d = Some 7);
  checkb "then empty" true (Sched.Deque.pop d = None);
  Sched.Deque.push d 8;
  checkb "single element steals" true (Sched.Deque.steal d = Some 8);
  checkb "then empty for owner" true (Sched.Deque.pop d = None)

let test_deque_concurrent_drain () =
  (* one owner pushing/popping, several thieves stealing: every element
     must surface exactly once across all parties *)
  let n = 20_000 and thieves = 3 in
  let d = Sched.Deque.create ~dummy:(-1) () in
  let stolen = Array.make thieves [] in
  let stop = Atomic.make false in
  let doms =
    Array.init thieves (fun t ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Sched.Deque.steal d with
              | Some v -> acc := v :: !acc
              | None -> Domain.cpu_relax ()
            done;
            (* final sweep so nothing is left when the owner finishes *)
            let rec sweep () =
              match Sched.Deque.steal d with
              | Some v ->
                acc := v :: !acc;
                sweep ()
              | None -> ()
            in
            sweep ();
            stolen.(t) <- !acc))
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Sched.Deque.push d i;
    if i mod 3 = 0 then
      match Sched.Deque.pop d with
      | Some v -> popped := v :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Sched.Deque.pop d with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let all = Array.fold_left (fun acc l -> l @ acc) !popped stolen in
  checki "every element exactly once" n (List.length all);
  let sorted = List.sort_uniq compare all in
  checki "no duplicates" n (List.length sorted);
  checkb "exact element set" true (sorted = List.init n Fun.id)

(* --- Injector -------------------------------------------------------- *)

let test_injector_fifo () =
  let q = Sched.Injector.create () in
  checkb "empty" true (Sched.Injector.is_empty q);
  checkb "empty pop" true (Sched.Injector.pop q = None);
  List.iter (Sched.Injector.push q) [ 1; 2; 3 ];
  checki "size" 3 (Sched.Injector.size q);
  checkb "fifo 1" true (Sched.Injector.pop q = Some 1);
  checkb "fifo 2" true (Sched.Injector.pop q = Some 2);
  checkb "fifo 3" true (Sched.Injector.pop q = Some 3);
  checkb "drained" true (Sched.Injector.is_empty q)

let test_injector_mpmc () =
  let producers = 4 and per = 5_000 in
  let q = Sched.Injector.create () in
  let consumed = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let done_producing = Atomic.make 0 in
  let prods =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Sched.Injector.push q ((p * per) + i)
            done;
            Atomic.incr done_producing))
  in
  let cons =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Sched.Injector.pop q with
              | Some v ->
                Atomic.incr consumed;
                ignore (Atomic.fetch_and_add sum v)
              | None ->
                if
                  Atomic.get done_producing = producers
                  && Sched.Injector.is_empty q
                then continue := false
                else Domain.cpu_relax ()
            done))
  in
  Array.iter Domain.join prods;
  Array.iter Domain.join cons;
  let n = producers * per in
  checki "all consumed" n (Atomic.get consumed);
  checki "exact payload sum" (n * (n - 1) / 2) (Atomic.get sum)

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

let test_sched_cancellation () =
  with_sched ~domains:1 (fun t ->
      let token = Sched.Token.create () in
      let gate = Atomic.make false in
      (* occupy the single worker so the cancelled task stays queued *)
      let blocker =
        Sched.submit t (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done)
      in
      let victim = Sched.submit ~token t (fun () -> 42) in
      Sched.Token.cancel token;
      Atomic.set gate true;
      ignore (Sched.await blocker);
      Alcotest.check_raises "cancelled" Sched.Cancelled (fun () ->
          ignore (Sched.await victim));
      checkb "peek failed" true (Sched.peek victim = `Failed))

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
  (* a thief cannot clear the deque slot it took a task from, so the slot
     keeps pointing at the task after it has run; what the task's body
     captured must still become garbage *)
  with_sched ~domains:2 (fun t ->
      let made = ref 0 and collected = Atomic.make 0 in
      let nested_map () =
        (* reachable only through the inner tasks' closures *)
        let block = Array.make 64 1 in
        Gc.finalise (fun _ -> Atomic.incr collected) block;
        incr made;
        let before = (Sched.stats t).Sched.steals in
        let inner j =
          (* hold this worker until the other one has stolen a sibling
             from its deque, or a second has passed *)
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

let test_pool_exactly_once_under_stealing () =
  (* hammer one artifact key from a parallel map: the store's memo must
     admit exactly one build no matter how the tasks interleave *)
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
      ( "deque",
        [
          Alcotest.test_case "lifo/fifo" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "last element race" `Quick test_deque_last_element;
          Alcotest.test_case "concurrent drain" `Quick
            test_deque_concurrent_drain;
        ] );
      ( "injector",
        [
          Alcotest.test_case "fifo" `Quick test_injector_fifo;
          Alcotest.test_case "mpmc" `Quick test_injector_mpmc;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "map order" `Quick test_sched_map_order;
          Alcotest.test_case "nested map" `Quick test_sched_nested_map;
          Alcotest.test_case "error propagation" `Quick test_sched_error;
          Alcotest.test_case "cancellation" `Quick test_sched_cancellation;
          Alcotest.test_case "stress 1000 mixed tasks" `Slow test_sched_stress;
          Alcotest.test_case "exactly-once artifact builds" `Slow
            test_pool_exactly_once_under_stealing;
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
