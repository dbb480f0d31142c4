(* The benchmark's measurement kit: the statistics every reported number
   goes through, the daemon batch's Zipf shares, and span self-time
   accounting. *)

module Sample = Bench_kit.Sample
module Span = Bench_kit.Span

let checkf = Alcotest.(check (float 1e-12))
let checki = Alcotest.(check int)

let check3 msg (a, b, c) (x, y, z) =
  checkf (msg ^ " q1") a x;
  checkf (msg ^ " q2") b y;
  checkf (msg ^ " q3") c z

(* reference values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  check3 "1..4" (1.25, 2.5, 3.75) (Sample.quartiles [ 4.; 2.; 1.; 3. ]);
  check3 "1..10" (2.75, 5.5, 8.25) (Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  check3 "odd" (1.0, 3.0, 5.0) (Sample.quartiles [ 5.; 1.; 3. ]);
  check3 "pair" (0.5, 5.0, 9.5) (Sample.quartiles [ 2.; 8. ]);
  check3 "single" (7.0, 7.0, 7.0) (Sample.quartiles [ 7. ]);
  checkf "median even" 2.5 (Sample.median [ 4.; 1.; 3.; 2. ]);
  checkf "median odd" 3.0 (Sample.median [ 5.; 1.; 3. ]);
  checkf "spread" ((3.75 -. 1.25) /. 2.5) (Sample.spread [ 1.; 2.; 3.; 4. ])

(* the highest percentile with at least ten samples above it *)
let test_tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail n = Sample.tail (List.rev (upto n)) in
  Alcotest.(check (option (pair int (float 0.)))) "1000 samples" (Some (99, 990.)) (tail 1000);
  Alcotest.(check (option (pair int (float 0.)))) "110 samples" (Some (90, 99.)) (tail 110);
  Alcotest.(check (option (pair int (float 0.)))) "11 samples" (Some (9, 1.)) (tail 11);
  Alcotest.(check (option (pair int (float 0.)))) "10 samples" None (tail 10);
  (* the rule itself: >= 10 above at p, < 10 above at p + 1 *)
  List.iter
    (fun n ->
      match tail n with
      | None -> Alcotest.fail "expected a tail"
      | Some (p, v) ->
        let above = n - int_of_float v in
        Alcotest.(check bool) (Printf.sprintf "n=%d ten beyond" n) true (above >= 10);
        let rank' = (((p + 1) * n) + 99) / 100 in
        Alcotest.(check bool) (Printf.sprintf "n=%d highest" n) true (n - rank' < 10))
    [ 11; 18; 37; 72; 110; 999; 1000; 1001 ]

(* the daemon batch: Zipf shares apportioned exactly, order shuffled per seed *)
let test_zipf () =
  let c = Sample.zipf_counts ~n:720 ~s:1.1 ~total:1000 in
  checki "sums to the total" 1000 (Array.fold_left ( + ) 0 c);
  Alcotest.(check bool) "hotter ranks never get fewer" true
    (Array.for_all Fun.id (Array.init 719 (fun r -> c.(r) >= c.(r + 1))));
  let w = Array.init 720 (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1)) in
  let sum = Array.fold_left ( +. ) 0.0 w in
  Alcotest.(check bool) "each count within one of its share" true
    (Array.for_all Fun.id (Array.mapi (fun r k -> Float.abs (float_of_int k -. (w.(r) /. sum *. 1000.)) < 1.0) c));
  Alcotest.(check (array int)) "deterministic" c (Sample.zipf_counts ~n:720 ~s:1.1 ~total:1000);
  let order seed = Sample.permutation (Random.State.make [| seed |]) 1000 in
  Alcotest.(check (array int)) "same seed, same order" (order 7) (order 7);
  Alcotest.(check bool) "other seed, other order" true (order 7 <> order 8);
  Alcotest.(check (list int)) "a permutation" (List.init 1000 Fun.id)
    (List.sort compare (Array.to_list (order 7)))

(* the daemon's popularity ranks: every round of 90 holds each of the 90
   (workload, level) groups once, and the seed decides the rest *)
let test_dealt () =
  let deal seed = Sample.dealt (Random.State.make [| seed |]) ~groups:90 ~size:8 in
  let d = deal 7 in
  Alcotest.(check (list int)) "a permutation" (List.init 720 Fun.id)
    (List.sort compare (Array.to_list d));
  for round = 0 to 7 do
    Alcotest.(check (list int))
      (Printf.sprintf "round %d has every group" round)
      (List.init 90 Fun.id)
      (List.sort compare (List.init 90 (fun i -> d.((round * 90) + i) / 8)))
  done;
  Alcotest.(check (array int)) "same seed, same ranks" d (deal 7);
  Alcotest.(check bool) "other seed, other ranks" true (d <> deal 8)

let span ?(parent = -1) id start_ns stop_ns words =
  { Span.id; parent; name = Printf.sprintf "s%d" id; domain = 0; start_ns; stop_ns; words }

let row name rows = List.find (fun r -> r.Span.r_name = name) rows

(* a [0,100] with children b [10,40] and c [50,90]; c has child d [60,70] *)
let test_self_time () =
  let rows =
    Span.table
      [
        span 0 0 100 50.;
        span ~parent:0 1 10 40 10.;
        span ~parent:0 2 50 90 20.;
        span ~parent:2 3 60 70 5.;
      ]
  in
  checki "a self" 30 (row "s0" rows).Span.self_ns;
  checki "b self" 30 (row "s1" rows).Span.self_ns;
  checki "c self" 30 (row "s2" rows).Span.self_ns;
  checki "d self" 10 (row "s3" rows).Span.self_ns;
  checki "a total" 100 (row "s0" rows).Span.total_ns;
  checkf "a self words" 20. (row "s0" rows).Span.self_words;
  checkf "c self words" 15. (row "s2" rows).Span.self_words

(* recorded spans nest on their domain and self times add up to the root *)
let test_record () =
  Span.enable ();
  let busy () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  Span.record "outer" (fun () ->
      busy ();
      Span.record "inner" (fun () -> Span.record "leaf" busy);
      Span.record "inner" busy);
  let spans = Span.collect () in
  let by name = List.filter (fun s -> s.Span.name = name) spans in
  let outer = List.hd (by "outer") in
  Alcotest.(check bool) "inner under outer" true
    (List.for_all (fun s -> s.Span.parent = outer.Span.id) (by "inner"));
  let leaf = List.hd (by "leaf") in
  Alcotest.(check bool) "leaf under first inner" true
    (leaf.Span.parent = (List.hd (by "inner")).Span.id);
  let rows = Span.table spans in
  checki "inner calls" 2 (row "inner" rows).Span.calls;
  checki "self times sum to the root"
    (outer.Span.stop_ns - outer.Span.start_ns)
    (List.fold_left (fun acc r -> acc + r.Span.self_ns) 0 rows);
  Alcotest.(check bool) "allocation attributed" true ((row "outer" rows).Span.self_words > 0.)

let () =
  Alcotest.run "benchmark"
    [
      ( "sample",
        [
          Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "zipf batch determinism" `Quick test_zipf;
          Alcotest.test_case "dealt popularity ranks" `Quick test_dealt;
        ] );
      ( "span",
        [
          Alcotest.test_case "self-time subtraction" `Quick test_self_time;
          Alcotest.test_case "nested recording" `Quick test_record;
        ] );
    ]
