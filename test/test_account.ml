(* Tests for the cycle-accounting layer (Sim.Account): the conservation
   invariant as a QCheck property over random programs and machine shapes,
   analytic special cases (oracle task prediction kills ctrl_squash; a
   one-PU zero-overhead machine is pure useful+idle), a differential check
   against the superscalar reference model, a regression for the
   squash-replayed *final* task, and golden breakdown-JSON snapshots for
   two small workloads. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cfg8 = Sim.Config.default ~num_pus:8 ~in_order:false

(* one pipeline (plan + trace) per heuristic level, reused across machines *)
let pipelines prog =
  List.map
    (fun level ->
      let plan = Core.Partition.build level prog in
      let trace =
        (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
      in
      (plan, trace))
    Core.Heuristics.all_levels

let sim cfg (plan, trace) =
  (Sim.Engine.run_prepared cfg (Sim.Engine.prepare plan trace) trace)
    .Sim.Engine.stats

(* --- conservation: the tentpole invariant --------------------------------- *)

let machine_grid =
  [ (1, false); (2, false); (3, true); (4, false); (4, true); (8, false);
    (8, true) ]

let prop_conservation =
  QCheck.Test.make ~count:12 ~max_gen:60
    ~name:"every simulated cycle lands in exactly one category"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun pipe ->
          List.iter
            (fun (num_pus, in_order) ->
              let stats = sim (Sim.Config.default ~num_pus ~in_order) pipe in
              let acct = stats.Sim.Stats.acct in
              (match Sim.Account.check acct with
               | Ok () -> ()
               | Error e -> QCheck.Test.fail_reportf "%dPU: %s" num_pus e);
              if acct.Sim.Account.pus <> num_pus then
                QCheck.Test.fail_reportf "recorded %d PUs, machine has %d"
                  acct.Sim.Account.pus num_pus;
              (* conservation, re-derived from the engine's own stats rather
                 than the budget the account recorded for itself *)
              if
                Sim.Account.total acct
                <> num_pus * stats.Sim.Stats.cycles
              then
                QCheck.Test.fail_reportf
                  "%dPU: attributed %d cycles, budget %d x %d" num_pus
                  (Sim.Account.total acct) num_pus stats.Sim.Stats.cycles)
            machine_grid)
        (pipelines prog);
      true)

let prop_oracle_prediction_no_ctrl_squash =
  QCheck.Test.make ~count:12 ~max_gen:60
    ~name:"oracle task prediction never charges ctrl_squash"
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun pipe ->
          List.for_all
            (fun num_pus ->
              let cfg =
                { (Sim.Config.default ~num_pus ~in_order:false) with
                  Sim.Config.perfect_task_pred = true }
              in
              let stats = sim cfg pipe in
              Sim.Account.get stats.Sim.Stats.acct Sim.Account.Ctrl_squash = 0)
            [ 2; 4; 8 ])
        (pipelines prog))

(* a serial machine with no task overheads and an ARB that never fills: the
   only ways to spend a cycle are doing work or having none assigned yet *)
let serial_cfg =
  { (Sim.Config.default ~num_pus:1 ~in_order:false) with
    Sim.Config.task_start_overhead = 0;
    task_end_overhead = 0;
    perfect_task_pred = true;
    arb_entries_per_pu = 1 lsl 20 }

let prop_one_pu_all_useful_or_idle =
  QCheck.Test.make ~count:12 ~max_gen:60
    ~name:"1 PU, zero overhead: every cycle is useful or idle"
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun pipe ->
          let stats = sim serial_cfg pipe in
          let acct = stats.Sim.Stats.acct in
          let open Sim.Account in
          get acct Ctrl_squash = 0
          && get acct Mem_squash = 0
          && get acct Overhead = 0
          && get acct Load_imbalance = 0
          && get acct Useful + get acct Idle = budget acct)
        (pipelines prog))

(* --- differential: one PU against the superscalar reference --------------- *)

(* Straight-line, branch-free, memory-free program: a single task with no
   speculation of any kind, so the Multiscalar engine degenerates to the
   same centralised window the superscalar model simulates.  Both run on
   Timing's pipeline, so equal cycles mean the engine's task machinery
   adds no cycle to a single task. *)
let straightline n =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 1;
      for i = 0 to n - 1 do
        if i mod 3 = 0 then Ir.Builder.addi b t0 t0 1
        else Ir.Builder.li b (Ir.Reg.tmp (1 + (i mod 8))) i
      done;
      Ir.Builder.mov b Ir.Reg.rv t0);
  Ir.Builder.finish pb ~main:"main"

let test_differential_superscalar () =
  (* arb_hit = 1 so a load would cost the same on both models; the program
     is memory-free anyway, keeping the comparison exact *)
  let cfg = { serial_cfg with Sim.Config.arb_hit = 1 } in
  let plan = Core.Partition.build Core.Heuristics.Control_flow (straightline 80) in
  let o = Interp.Run.execute plan.Core.Partition.prog in
  let ms = sim cfg (plan, o.Interp.Run.trace) in
  let ss = Sim.Superscalar.run cfg o.Interp.Run.trace in
  checki "same cycle count as the superscalar reference"
    ss.Sim.Superscalar.stats.Sim.Stats.cycles ms.Sim.Stats.cycles;
  let acct = ms.Sim.Stats.acct in
  checki "every cycle useful or idle" (Sim.Account.budget acct)
    (Sim.Account.get acct Sim.Account.Useful
     + Sim.Account.get acct Sim.Account.Idle);
  (* the reference model accounts too: one PU, all useful *)
  let sacct = ss.Sim.Superscalar.stats.Sim.Stats.acct in
  (match Sim.Account.check sacct with
   | Ok () -> ()
   | Error e -> Alcotest.failf "superscalar account: %s" e);
  checki "superscalar budget all useful" (Sim.Account.budget sacct)
    (Sim.Account.get sacct Sim.Account.Useful)

(* --- regression: squash-replayed final task ------------------------------- *)

(* Each loop iteration is a long dependent chain ending in a store to a
   fixed cell; the epilogue after the loop — the *last* dynamic task — loads
   that cell early through a load site that has never violated (so the sync
   table cannot suppress it).  On 8 PUs the epilogue dispatches while older
   iterations are still streaming stores, so its final schedule is a
   violation replay.  Guards the engine's finalization reading the replayed
   (not the squashed) retire time of the last task. *)
let final_violation_prog () =
  let pb = Ir.Builder.program () in
  let cell = Ir.Builder.alloc pb 1 in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 and t2 = Ir.Reg.tmp 2 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t2 0;
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 6)
        ~step:1 (fun b ->
          for _ = 1 to 14 do
            Ir.Builder.bin b Ir.Insn.Mul t2 t2 (Ir.Insn.Imm 1)
          done;
          Ir.Builder.addi b t1 t2 1;
          Ir.Builder.li b Ir.Reg.rv cell;
          Ir.Builder.store b t1 Ir.Reg.rv 0);
      Ir.Builder.li b t1 cell;
      Ir.Builder.load b t1 t1 0;
      Ir.Builder.bin b Ir.Insn.Add Ir.Reg.rv t2 (Ir.Insn.Reg t1));
  Ir.Builder.finish pb ~main:"main"

let test_final_task_squash_replay () =
  let plan =
    Core.Partition.build Core.Heuristics.Control_flow (final_violation_prog ())
  in
  let last = ref None in
  let r = Sim.Engine.run ~observer:(fun e -> last := Some e) cfg8 plan in
  let s = r.Sim.Engine.stats in
  match !last with
  | None -> Alcotest.fail "no dynamic tasks"
  | Some e ->
    checkb "final task was squash-replayed" true (e.Sim.Engine.e_violations > 0);
    checki "total cycles follow the replayed final retire"
      (e.Sim.Engine.e_retire + cfg8.Sim.Config.task_end_overhead)
      s.Sim.Stats.cycles;
    checkb "replay delay charged to mem_squash" true
      (Sim.Account.get s.Sim.Stats.acct Sim.Account.Mem_squash > 0);
    (match Sim.Account.check s.Sim.Stats.acct with
     | Ok () -> ()
     | Error err -> Alcotest.failf "conservation after replay: %s" err)

(* --- golden breakdown snapshots ------------------------------------------- *)

(* Byte-for-byte comparison of the `msc breakdown --json` records for two
   small workloads (the smallest fp and int traces).  Regenerate after an
   intentional timing-model change with:

     dune exec bin/msc.exe -- breakdown --only fpppp --json test/golden/fpppp.json
     dune exec bin/msc.exe -- breakdown --only cc    --json test/golden/cc.json *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden name =
  let entry = Workloads.Suite.find name in
  let rows =
    Report.Breakdown.run ~store:(Harness.Artifact.create ()) ~jobs:1 [ entry ]
  in
  let got = Harness.Json.to_string (Report.Breakdown.to_json rows) ^ "\n" in
  let want = read_file (Filename.concat "golden" (name ^ ".json")) in
  if got <> want then
    Alcotest.failf
      "breakdown for %s diverged from test/golden/%s.json (regenerate via \
       msc breakdown --json if the timing model changed intentionally)"
      name name

let () =
  Alcotest.run "account"
    [
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest prop_conservation;
          QCheck_alcotest.to_alcotest prop_oracle_prediction_no_ctrl_squash;
          QCheck_alcotest.to_alcotest prop_one_pu_all_useful_or_idle;
        ] );
      ( "differential",
        [
          Alcotest.test_case "1 PU matches superscalar" `Quick
            test_differential_superscalar;
        ] );
      ( "regression",
        [
          Alcotest.test_case "squash-replayed final task" `Quick
            test_final_task_squash_replay;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fpppp breakdown json" `Slow (fun () ->
              test_golden "fpppp");
          Alcotest.test_case "cc breakdown json" `Slow (fun () ->
              test_golden "cc");
        ] );
    ]
