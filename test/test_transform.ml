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
  let loops = Analysis.Loops.compute f' in
  let lo = List.hd loops.Analysis.Loops.loops in
  checkb "loop expanded" true
    (lo.Analysis.Loops.static_size
     > (List.hd (Analysis.Loops.compute f).Analysis.Loops.loops)
         .Analysis.Loops.static_size)

let test_counted_unroll_single_carried_write () =
  (* induction coalescing: the carried register is written exactly once in
     the unrolled body, near the top *)
  let _, f' = unrolled (Gen.square_sum_program 10) in
  let loops = Analysis.Loops.compute f' in
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
  let loops = Analysis.Loops.compute f' in
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
  List.iter
    (fun name ->
      let e = Workloads.Suite.find name in
      let prog = e.Workloads.Registry.build () in
      let base = Interp.Run.execute prog in
      let o = Interp.Run.execute (Core.Transform.if_convert_program prog) in
      checkb name true
        (Ir.Value.equal base.Interp.Run.result o.Interp.Run.result))
    [ "go"; "hydro2d"; "compress" ]

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
