(* Tests for the task-size transforms: loop unrolling (generic and counted
   with induction coalescing), call-inclusion marking, and induction-variable
   hoisting. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let params = Core.Heuristics.default
let result prog = Ir.Value.to_int (Interp.Run.execute prog).Interp.Run.result

(* --- counted unrolling --------------------------------------------------- *)

let test_counted_unroll_semantics () =
  (* trip counts around the unroll factor: zero, one, non-multiples *)
  List.iter
    (fun n ->
      let prog = Gen.square_sum_program n in
      let prog' = Core.Transform.unroll_program params prog in
      checkb "still valid" true (Ir.Prog.validate prog' = Ok ());
      checki (Printf.sprintf "trip %d" n) (Gen.square_sum_spec n)
        (result prog'))
    [ 0; 1; 2; 3; 4; 5; 7; 10; 23 ]

(* main before and after unrolling the whole program *)
let unrolled prog =
  ( Ir.Prog.find prog "main",
    Ir.Prog.find (Core.Transform.unroll_program params prog) "main" )

let test_counted_unroll_grows () =
  let f, f' = unrolled (Gen.square_sum_program 10) in
  checkb "more blocks after unrolling" true
    (Ir.Func.num_blocks f' > Ir.Func.num_blocks f);
  (* the loop should now be at least LOOP_THRESH instructions or have been
     expanded by the capped factor *)
  let loops = Gen.loops f' in
  let lo = List.hd loops.Analysis.Loops.loops in
  checkb "loop expanded" true
    (lo.Analysis.Loops.static_size
     > (List.hd (Gen.loops f).Analysis.Loops.loops)
         .Analysis.Loops.static_size)

let test_counted_unroll_single_carried_write () =
  (* induction coalescing: the carried register is written exactly once in
     the unrolled body, near the top *)
  let _, f' = unrolled (Gen.square_sum_program 10) in
  let loops = Gen.loops f' in
  let lo = List.hd loops.Analysis.Loops.loops in
  let r = Ir.Reg.tmp 1 (* square_sum's induction register *) in
  let writes =
    List.fold_left
      (fun acc l ->
        Array.fold_left
          (fun acc i -> if List.mem r (Ir.Insn.defs i) then acc + 1 else acc)
          acc (Ir.Func.block f' l).Ir.Block.insns)
      0 lo.Analysis.Loops.blocks
  in
  checki "one write to the carried induction register" 1 writes

let test_generic_unroll_semantics () =
  (* a short bottom-test loop is not counted-canonical: generic path *)
  let make () =
    let pb = Ir.Builder.program () in
    let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 in
    Ir.Builder.func pb "main" (fun b ->
        Ir.Builder.li b t0 0;
        Ir.Builder.do_while b (fun b ->
            Ir.Builder.addi b t0 t0 3;
            Ir.Builder.bin b Ir.Insn.Lt t1 t0 (Ir.Insn.Imm 50);
            t1);
        Ir.Builder.mov b Ir.Reg.rv t0);
    Ir.Builder.finish pb ~main:"main"
  in
  let prog = make () in
  let f, f' = unrolled prog in
  checkb "blocks grew" true (Ir.Func.num_blocks f' > Ir.Func.num_blocks f);
  checki "same result" (result prog)
    (result (Core.Transform.unroll_program params prog))

let test_unroll_skips_big_loops () =
  (* a loop over LOOP_THRESH instructions must be left alone *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 4)
        ~step:1 (fun b ->
          for _ = 1 to 40 do
            Ir.Builder.addi b t1 t1 1
          done);
      Ir.Builder.mov b Ir.Reg.rv t1);
  let f, f' = unrolled (Ir.Builder.finish pb ~main:"main") in
  checki "unchanged" (Ir.Func.num_blocks f) (Ir.Func.num_blocks f')

(* --- body terminators on the induction register --------------------------- *)

(* A counted loop over t0: [trips] iterations from [start] by [step], its
   exclusive bound [slack] short of start + trips * step.  Its body
   branches on t0 itself, which every copy of a rewritten body must read
   as its own value: a [Br] on t0 (when [cmp] is [None]) or on t0 [cmp] c,
   adding [taken] or [other] to t1, or a [Switch] on t0 adding its arm's
   weight (past the arms, [default]'s).  The result is t1 plus t0's exit
   value. *)
type body =
  | Br of { cmp : (Ir.Insn.binop * int) option; taken : int; other : int }
  | Switch of { arms : int array; default : int }

type loop = { start : int; trips : int; step : int; slack : int; body : body }

let loop_program l =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 and t2 = Ir.Reg.tmp 2 in
  let add n b = Ir.Builder.addi b t1 t1 n in
  let bound =
    l.start + (l.trips * l.step) - (if l.step > 0 then l.slack else -l.slack)
  in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t1 0;
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm l.start)
        ~below:(Ir.Insn.Imm bound) ~step:l.step (fun b ->
          match l.body with
          | Br { cmp = None; taken; other } ->
            Ir.Builder.if_ b t0 (add taken) (add other)
          | Br { cmp = Some (op, c); taken; other } ->
            Ir.Builder.bin b op t2 t0 (Ir.Insn.Imm c);
            Ir.Builder.if_ b t2 (add taken) (add other)
          | Switch { arms; default } ->
            Ir.Builder.switch_ b t0 (Array.map add arms)
              ~default:(add default));
      Ir.Builder.bin b Ir.Insn.Add Ir.Reg.rv t1 (Ir.Insn.Reg t0));
  Ir.Builder.finish pb ~main:"main"

let show_loop l =
  Printf.sprintf "start %d, %d trips, step %d, slack %d, %s" l.start l.trips
    l.step l.slack
    (match l.body with
    | Br { cmp; taken; other } ->
      Printf.sprintf "br %s ? %d : %d"
        (match cmp with
        | None -> "t0"
        | Some (op, c) ->
          Ir.Insn.to_string
            (Ir.Insn.Bin (op, Ir.Reg.tmp 2, Ir.Reg.tmp 0, Ir.Insn.Imm c)))
        taken other
    | Switch { arms; default } ->
      Printf.sprintf "switch t0 [%s] default %d"
        (String.concat "; " (Array.to_list (Array.map string_of_int arms)))
        default)

(* The loops this test began with, over t0 in [0, 10): a [Br] counting the
   iterations with t0 <> 0 (9), and a [Switch] weighting t0 = 0, 1, 2 and
   the rest 1, 10, 100 and 1000 (7111), each plus t0's exit value. *)
let fixed_loops =
  [
    ( { start = 0; trips = 10; step = 1; slack = 0;
        body = Br { cmp = None; taken = 1; other = 0 } },
      19 );
    ( { start = 0; trips = 10; step = 1; slack = 0;
        body = Switch { arms = [| 1; 10; 100 |]; default = 1000 } },
      7121 );
  ]

let gen_loop =
  let open QCheck.Gen in
  let* start = int_range (-20) 20 in
  let* trips = int_range 0 40 in
  let* magnitude = int_range 1 3 in
  let* step = oneofl [ magnitude; -magnitude ] in
  let* slack = int_bound (magnitude - 1) in
  let weight = int_range 0 9 in
  let* body =
    oneof
      [
        (let* cmp =
           oneof
             [
               return None;
               map2
                 (fun op c -> Some (op, c))
                 (oneofl Ir.Insn.[ Lt; Le; Eq; Ne; Gt; Ge ])
                 (int_range (-30) 30);
             ]
         in
         map2 (fun taken other -> Br { cmp; taken; other }) weight weight);
        map2
          (fun arms default -> Switch { arms; default })
          (array_size (int_range 1 4) weight)
          weight;
      ]
  in
  return { start; trips; step; slack; body }

(* Every rewrite that runs the induction rewrite on the loop must keep
   the program's result *)
let rewrites prog =
  [
    ("hoisted", Core.Transform.hoist_program prog);
    ("unrolled", Core.Transform.unroll_program params prog);
    ( "unrolled at loop_thresh 60",
      Core.Transform.unroll_program
        { params with Core.Heuristics.loop_thresh = 60 }
        prog );
    ( "ts plan",
      (Core.Cost.plan_for_level Core.Heuristics.Task_size prog)
        .Core.Partition.prog );
  ]

let rewrites_agree l =
  let prog = loop_program l in
  let expect = result prog in
  List.for_all (fun (_, p) -> result p = expect) (rewrites prog)

let prop_branches_on_induction =
  QCheck.Test.make ~name:"random loops branching on induction" ~count:300
    (QCheck.make ~print:show_loop gen_loop)
    rewrites_agree

let test_body_terminators_read_copy_value () =
  List.iter
    (fun (l, expect) ->
      let prog = loop_program l and name = show_loop l in
      checki (name ^ ": source") expect (result prog);
      let f, f' = unrolled prog in
      checkb (name ^ ": grows") true
        (Ir.Func.num_blocks f' > Ir.Func.num_blocks f);
      List.iter
        (fun (what, p) -> checki (name ^ ": " ^ what) expect (result p))
        (rewrites prog))
    fixed_loops;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 33 |])
    prop_branches_on_induction

(* --- call inclusion ------------------------------------------------------ *)

let test_mark_included_calls () =
  let prog = Gen.fib_program 5 in
  let f = Ir.Prog.find prog "main" in
  let small _ = 10.0 in
  let large _ = 500.0 in
  let marked = Core.Transform.mark_included_calls ~call_thresh:30
      ~callee_size:small f
  in
  checkb "small callee marked" true (Array.exists (fun x -> x) marked);
  let unmarked = Core.Transform.mark_included_calls ~call_thresh:30
      ~callee_size:large f
  in
  checkb "large callee unmarked" true
    (Array.for_all (fun x -> not x) unmarked)

(* --- induction hoisting -------------------------------------------------- *)

let test_hoist_moves_increment () =
  let prog = Gen.square_sum_program 12 in
  let f' = Ir.Prog.find (Core.Transform.hoist_program prog) "main" in
  (* the latch must no longer end with the increment; some body block must
     start with a mov of the induction register *)
  let loops = Gen.loops f' in
  let lo = List.hd loops.Analysis.Loops.loops in
  let latch = List.hd lo.Analysis.Loops.latches in
  let latch_insns = (Ir.Func.block f' latch).Ir.Block.insns in
  let ends_with_add =
    Array.length latch_insns > 0
    &&
    match latch_insns.(Array.length latch_insns - 1) with
    | Ir.Insn.Bin (Ir.Insn.Add, r, r', Ir.Insn.Imm _) -> r = r'
    | _ -> false
  in
  checkb "increment no longer last in latch" false ends_with_add;
  checki "semantics preserved" (Gen.square_sum_spec 12)
    (result (Core.Transform.hoist_program prog))

let test_hoist_exit_value () =
  (* the induction register is read after the loop: its exit value must
     survive hoisting (square_sum adds n*1000) *)
  List.iter
    (fun n ->
      checki
        (Printf.sprintf "exit value %d" n)
        (Gen.square_sum_spec n)
        (result (Core.Transform.hoist_program (Gen.square_sum_program n))))
    [ 0; 1; 5; 9 ]

let test_hoist_skips_loops_with_calls () =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "leaf" (fun b -> Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 3)
        ~step:1 (fun b -> Ir.Builder.call b "leaf");
      Ir.Builder.mov b Ir.Reg.rv t0);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let f = Ir.Prog.find prog "main" in
  let f' = Ir.Prog.find (Core.Transform.hoist_program prog) "main" in
  checkb "left untouched" true (f.Ir.Func.blocks = f'.Ir.Func.blocks)

let test_hoist_program_no_cross_clobber () =
  (* regression: a hoist copy register free in the callee but live in the
     caller must not be clobbered (the perl bug) *)
  let e = Workloads.Suite.find "perl" in
  let prog = e.Workloads.Registry.build () in
  let base = result prog in
  checki "hoist_program preserves cross-function liveness" base
    (result (Core.Transform.hoist_program prog))

(* --- if-conversion (predication extension) -------------------------------- *)

let diamond_with_work () =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 and t2 = Ir.Reg.tmp 2 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t2 0;
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 40)
        ~step:1 (fun b ->
          Ir.Builder.bin b Ir.Insn.And t1 t0 (Ir.Insn.Imm 1);
          Ir.Builder.if_ b t1
            (fun b -> Ir.Builder.bin b Ir.Insn.Add t2 t2 (Ir.Insn.Reg t0))
            (fun b -> Ir.Builder.bin b Ir.Insn.Sub t2 t2 (Ir.Insn.Reg t0)));
      Ir.Builder.mov b Ir.Reg.rv t2);
  Ir.Builder.finish pb ~main:"main"

let count_branches prog =
  Ir.Prog.Smap.fold
    (fun _ f acc ->
      Array.fold_left
        (fun acc (b : Ir.Block.t) ->
          match b.Ir.Block.term with
          | Ir.Block.Br _ -> acc + 1
          | _ -> acc)
        acc f.Ir.Func.blocks)
    prog.Ir.Prog.funcs 0

let test_if_convert_removes_branch () =
  let prog = diamond_with_work () in
  let base = result prog in
  let prog' = Core.Transform.if_convert_program prog in
  checkb "branch count drops" true (count_branches prog' < count_branches prog);
  checki "same result" base (result prog');
  (* cmovs were introduced *)
  let has_cmov =
    Ir.Prog.Smap.exists
      (fun _ f ->
        Array.exists
          (fun (b : Ir.Block.t) ->
            Array.exists
              (fun i -> match i with Ir.Insn.Cmov _ -> true | _ -> false)
              b.Ir.Block.insns)
          f.Ir.Func.blocks)
      prog'.Ir.Prog.funcs
  in
  checkb "cmov introduced" true has_cmov

let test_if_convert_skips_memory_arms () =
  (* arms with stores must not be converted *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 in
  let cell = Ir.Builder.alloc pb 1 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 1;
      Ir.Builder.if_ b t0
        (fun b ->
          Ir.Builder.li b t1 cell;
          Ir.Builder.store b t0 t1 0)
        (fun b -> Ir.Builder.nop b);
      Ir.Builder.li b Ir.Reg.rv 0);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let prog' = Core.Transform.if_convert_program prog in
  checki "branch kept" (count_branches prog) (count_branches prog')

let test_if_convert_workloads_preserved () =
  let preserved name prog =
    let base = Interp.Run.execute prog in
    let o = Interp.Run.execute (Core.Transform.if_convert_program prog) in
    checkb name true (Ir.Value.equal base.Interp.Run.result o.Interp.Run.result)
  in
  List.iter
    (fun name -> preserved name ((Workloads.Suite.find name).Workloads.Registry.build ()))
    [ "go"; "hydro2d"; "compress" ];
  (* synthetic programs with nested diamonds: the inner one, converted
     first, leaves a cmov in an outer arm that had already written the
     cmov's destination, and the cmov's seed copy used to overwrite that
     write with the value from before the arm *)
  List.iter
    (fun (profile, seed) ->
      preserved
        (Printf.sprintf "%s seed %d" profile seed)
        (Workloads.Synth.generate
           ~profile:(Option.get (Workloads.Synth.Profile.find profile))
           ~seed))
    [ ("branchy", 317); ("deep-calls", 753); ("float-mix", 858) ]

let prop_if_convert_preserves =
  QCheck.Test.make ~name:"if-conversion preserves results" ~count:25
    Gen.arbitrary_program (fun prog ->
      let base = Interp.Run.execute prog in
      let prog' = Core.Transform.if_convert_program prog in
      let o = Interp.Run.execute prog' in
      Ir.Value.equal base.Interp.Run.result o.Interp.Run.result
      && Ir.Prog.validate prog' = Ok ())

(* --- whole-pipeline properties ------------------------------------------- *)

let prop_unroll_preserves_semantics =
  QCheck.Test.make ~name:"unroll_program preserves results" ~count:25
    Gen.arbitrary_program (fun prog ->
      let base = Interp.Run.execute prog in
      let o = Interp.Run.execute (Core.Transform.unroll_program params prog) in
      Ir.Value.equal base.Interp.Run.result o.Interp.Run.result)

let prop_hoist_preserves_semantics =
  QCheck.Test.make ~name:"hoist_program preserves results" ~count:25
    Gen.arbitrary_program (fun prog ->
      let base = Interp.Run.execute prog in
      let o = Interp.Run.execute (Core.Transform.hoist_program prog) in
      Ir.Value.equal base.Interp.Run.result o.Interp.Run.result)

let prop_combined_preserves_semantics =
  QCheck.Test.make ~name:"unroll + hoist preserve results" ~count:25
    Gen.arbitrary_program (fun prog ->
      let base = Interp.Run.execute prog in
      let prog' =
        Core.Transform.hoist_program (Core.Transform.unroll_program params prog)
      in
      let o = Interp.Run.execute prog' in
      Ir.Value.equal base.Interp.Run.result o.Interp.Run.result
      && Ir.Prog.validate prog' = Ok ())

let () =
  Alcotest.run "transform"
    [
      ( "unroll",
        [
          Alcotest.test_case "counted semantics" `Quick
            test_counted_unroll_semantics;
          Alcotest.test_case "counted grows loop" `Quick
            test_counted_unroll_grows;
          Alcotest.test_case "coalesced induction" `Quick
            test_counted_unroll_single_carried_write;
          Alcotest.test_case "generic semantics" `Quick
            test_generic_unroll_semantics;
          Alcotest.test_case "skips big loops" `Quick
            test_unroll_skips_big_loops;
          Alcotest.test_case "branches on induction" `Quick
            test_body_terminators_read_copy_value;
        ] );
      ( "call inclusion",
        [ Alcotest.test_case "thresholds" `Quick test_mark_included_calls ] );
      ( "hoist",
        [
          Alcotest.test_case "moves increment" `Quick
            test_hoist_moves_increment;
          Alcotest.test_case "exit value" `Quick test_hoist_exit_value;
          Alcotest.test_case "skips call loops" `Quick
            test_hoist_skips_loops_with_calls;
          Alcotest.test_case "no cross-function clobber" `Quick
            test_hoist_program_no_cross_clobber;
        ] );
      ( "if-conversion",
        [
          Alcotest.test_case "removes branch" `Quick
            test_if_convert_removes_branch;
          Alcotest.test_case "skips memory arms" `Quick
            test_if_convert_skips_memory_arms;
          Alcotest.test_case "workloads preserved" `Quick
            test_if_convert_workloads_preserved;
          QCheck_alcotest.to_alcotest prop_if_convert_preserves;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_unroll_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_hoist_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_combined_preserves_semantics;
        ] );
    ]
