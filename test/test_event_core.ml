(* Cycle-exact differential between the event-driven, structure-of-arrays
   engine (Sim.Engine) and the frozen pre-event-core oracle
   (Sim_ref.Engine_ref): over random programs, all four heuristic levels
   and a grid of machine shapes, the two cores must agree on every
   statistic, every cycle-account category, and the full per-task schedule
   (PU, assign, complete, retire, misprediction, violation count).  Also
   pins the prepare/run_prepared fast path to run_with_trace. *)

let pipelines prog =
  List.map
    (fun level ->
      let plan = Core.Partition.build level prog in
      let trace =
        (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
      in
      (plan, trace))
    Core.Heuristics.all_levels

(* machine shapes: the table-1 corners plus stress variants — a tiny ARB to
   force overflow stalls and a machine with oracle task prediction *)
let machine_grid =
  [
    Sim.Config.default ~num_pus:1 ~in_order:false;
    Sim.Config.default ~num_pus:2 ~in_order:true;
    Sim.Config.default ~num_pus:4 ~in_order:false;
    Sim.Config.default ~num_pus:8 ~in_order:true;
    { (Sim.Config.default ~num_pus:4 ~in_order:false) with
      Sim.Config.arb_entries_per_pu = 2 };
    { (Sim.Config.default ~num_pus:8 ~in_order:false) with
      Sim.Config.perfect_task_pred = true };
  ]

let differential cfg (plan, trace) =
  Sim_ref.Engine_ref.differential cfg (Sim.Engine.prepare plan trace) plan
    trace

let prop_differential =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"event core matches the frozen oracle cycle-for-cycle"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun pipe ->
          List.iter
            (fun cfg ->
              match differential cfg pipe with
              | None -> ()
              | Some msg ->
                QCheck.Test.fail_reportf "%dPU: %s" cfg.Sim.Config.num_pus
                  msg)
            machine_grid)
        (pipelines prog);
      true)

let prop_prepared_matches =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"one shared prep reproduces every per-config run"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun (plan, trace) ->
          let prep = Sim.Engine.prepare plan trace in
          List.iter
            (fun cfg ->
              let direct = Sim.Engine.run_with_trace cfg plan trace in
              let shared = Sim.Engine.run_prepared cfg prep trace in
              if direct.Sim.Engine.stats <> shared.Sim.Engine.stats then
                QCheck.Test.fail_reportf
                  "%dPU: run_prepared diverges from run_with_trace"
                  cfg.Sim.Config.num_pus)
            machine_grid)
        (pipelines prog);
      true)

(* deterministic anchor: a real workload's pipelines through both cores *)
let test_workload_differential () =
  let entry = Workloads.Suite.find "compress" in
  let store = Harness.Artifact.create () in
  List.iter
    (fun level ->
      let art = Harness.Artifact.get store ~level entry in
      let pipe = (art.Harness.Artifact.plan, art.Harness.Artifact.trace) in
      let cfg = Sim.Config.default ~num_pus:4 ~in_order:false in
      Alcotest.(check (option string))
        (Core.Heuristics.level_name level)
        None (differential cfg pipe))
    Core.Heuristics.all_levels

let () =
  Alcotest.run "event_core"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_prepared_matches;
          Alcotest.test_case "compress workload" `Quick
            test_workload_differential;
        ] );
    ]
