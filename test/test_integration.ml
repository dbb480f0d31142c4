(* End-to-end: build a program, run every heuristic level through the full
   pipeline (interp -> partition -> chop -> simulate) and check global
   invariants. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* A program with function calls, loops, branches and memory traffic. *)
let sample_program () =
  let open Ir.Builder in
  let pb = program () in
  let arr = alloc pb 64 in
  let r_i = Ir.Reg.tmp 0 in
  let r_acc = Ir.Reg.tmp 1 in
  let r_t = Ir.Reg.tmp 2 in
  let r_base = Ir.Reg.tmp 3 in
  func pb "leaf" (fun b ->
      (* rv = a0 * 2 + 1 *)
      bin b Ir.Insn.Mul Ir.Reg.rv (Ir.Reg.arg 0) (Ir.Insn.Imm 2);
      addi b Ir.Reg.rv Ir.Reg.rv 1;
      ret b);
  func pb "main" (fun b ->
      li b r_base arr;
      li b r_acc 0;
      for_ b r_i ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 32) ~step:1
        (fun b ->
          bin b Ir.Insn.Add r_t r_base (Ir.Insn.Reg r_i);
          load b Ir.Reg.rv r_t 0;
          bin b Ir.Insn.And r_t r_i (Ir.Insn.Imm 1);
          if_ b r_t
            (fun b ->
              mov b (Ir.Reg.arg 0) r_i;
              call b "leaf";
              bin b Ir.Insn.Add r_acc r_acc (Ir.Insn.Reg Ir.Reg.rv))
            (fun b -> bin b Ir.Insn.Add r_acc r_acc (Ir.Insn.Reg r_i));
          bin b Ir.Insn.Add r_t r_base (Ir.Insn.Reg r_i);
          store b r_acc r_t 0);
      mov b Ir.Reg.rv r_acc;
      ret b);
  finish pb ~main:"main"

let expected_result () =
  (* mirror of the program's semantics *)
  let acc = ref 0 in
  for i = 0 to 31 do
    if i land 1 = 1 then acc := !acc + ((i * 2) + 1) else acc := !acc + i
  done;
  !acc

let test_interp_result () =
  let prog = sample_program () in
  let outcome = Interp.Run.execute prog in
  check Alcotest.int "program result" (expected_result ())
    (Ir.Value.to_int outcome.Interp.Run.result)

let levels = Core.Heuristics.all_levels

let test_partition_valid () =
  let prog = sample_program () in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      match Core.Partition.validate plan with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) e)
    levels

let test_transform_preserves_semantics () =
  let prog = sample_program () in
  let base = Interp.Run.execute prog in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      let outcome = Interp.Run.execute plan.Core.Partition.prog in
      checkb
        (Core.Heuristics.level_name level ^ " preserves result")
        true
        (Ir.Value.equal base.Interp.Run.result outcome.Interp.Run.result))
    levels

let test_chop_tiles_trace () =
  let prog = sample_program () in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      let outcome = Interp.Run.execute plan.Core.Partition.prog in
      let trace = outcome.Interp.Run.trace in
      let parts =
        Array.map
          (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
          trace.Interp.Trace.fnames
      in
      match Sim.Dyntask.check_instances trace ~parts with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) e)
    levels

let simulate level ~num_pus ~in_order =
  let prog = sample_program () in
  let plan = Core.Partition.build level prog in
  let cfg = Sim.Config.default ~num_pus ~in_order in
  Sim.Engine.run cfg plan

let test_simulation_invariants () =
  List.iter
    (fun level ->
      let r = simulate level ~num_pus:4 ~in_order:false in
      let s = r.Sim.Engine.stats in
      checkb "cycles positive" true (s.Sim.Stats.cycles > 0);
      checkb "tasks positive" true (s.Sim.Stats.tasks > 0);
      (* a 4-PU, 2-wide machine cannot exceed 8 IPC *)
      checkb "ipc bounded" true (Sim.Stats.ipc s <= 8.0);
      checkb "ipc positive" true (Sim.Stats.ipc s > 0.0))
    levels

let test_all_insns_retired () =
  List.iter
    (fun level ->
      let prog = sample_program () in
      let plan = Core.Partition.build level prog in
      let outcome = Interp.Run.execute plan.Core.Partition.prog in
      let trace = outcome.Interp.Run.trace in
      let r =
        Sim.Engine.run_prepared
          (Sim.Config.default ~num_pus:8 ~in_order:false)
          (Sim.Engine.prepare plan trace) trace
      in
      check Alcotest.int
        (Core.Heuristics.level_name level ^ " all insns retired")
        outcome.Interp.Run.steps r.Sim.Engine.stats.Sim.Stats.dyn_insns)
    levels

let test_multiscalar_beats_single_pu () =
  (* With control-flow tasks, 8 PUs should outrun 1 PU on this parallel-ish
     loop *)
  let r1 = simulate Core.Heuristics.Control_flow ~num_pus:1 ~in_order:false in
  let r8 = simulate Core.Heuristics.Control_flow ~num_pus:8 ~in_order:false in
  checkb "8 PUs faster" true
    (Sim.Stats.ipc r8.Sim.Engine.stats > Sim.Stats.ipc r1.Sim.Engine.stats)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "interp result" `Quick test_interp_result;
          Alcotest.test_case "partitions valid" `Quick test_partition_valid;
          Alcotest.test_case "transforms preserve semantics" `Quick
            test_transform_preserves_semantics;
          Alcotest.test_case "chop tiles trace" `Quick test_chop_tiles_trace;
          Alcotest.test_case "simulation invariants" `Quick
            test_simulation_invariants;
          Alcotest.test_case "all insns retired" `Quick test_all_insns_retired;
          Alcotest.test_case "8 PUs beat 1 PU" `Quick
            test_multiscalar_beats_single_pu;
        ] );
    ]
