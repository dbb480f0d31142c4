(* Cycle-exact differential between the event-driven, structure-of-arrays
   engine (Sim.Engine) and the frozen pre-event-core oracle
   (Sim_ref.Engine_ref): over random programs, all four heuristic levels
   and a grid of machine shapes, the two cores must agree on every
   statistic, every cycle-account category, and the full per-task schedule
   (PU, assign, complete, retire, misprediction, violation count).  Also
   pins the prepare/run_prepared fast path to run_with_trace. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

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

type sched = {
  s_index : int;
  s_pu : int;
  s_assign : int;
  s_complete : int;
  s_retire : int;
  s_mispredicted : bool;
  s_violations : int;
}

let run_new cfg (plan, trace) =
  let events = ref [] in
  let observer (e : Sim.Engine.event) =
    events :=
      { s_index = e.Sim.Engine.e_index;
        s_pu = e.Sim.Engine.e_pu;
        s_assign = e.Sim.Engine.e_assign;
        s_complete = e.Sim.Engine.e_complete;
        s_retire = e.Sim.Engine.e_retire;
        s_mispredicted = e.Sim.Engine.e_mispredicted;
        s_violations = e.Sim.Engine.e_violations }
      :: !events
  in
  let r = Sim.Engine.run_with_trace ~observer cfg plan trace in
  (r.Sim.Engine.stats, r.Sim.Engine.instances, List.rev !events)

let run_ref cfg (plan, trace) =
  let events = ref [] in
  let observer (e : Sim_ref.Engine_ref.event) =
    events :=
      { s_index = e.Sim_ref.Engine_ref.e_index;
        s_pu = e.Sim_ref.Engine_ref.e_pu;
        s_assign = e.Sim_ref.Engine_ref.e_assign;
        s_complete = e.Sim_ref.Engine_ref.e_complete;
        s_retire = e.Sim_ref.Engine_ref.e_retire;
        s_mispredicted = e.Sim_ref.Engine_ref.e_mispredicted;
        s_violations = e.Sim_ref.Engine_ref.e_violations }
      :: !events
  in
  let r = Sim_ref.Engine_ref.run_with_trace ~observer cfg plan trace in
  (r.Sim_ref.Engine_ref.stats, r.Sim_ref.Engine_ref.instances,
   List.rev !events)

(* Stats.t (including the nested cycle account) is ints all the way down,
   so structural equality is a complete field-by-field comparison *)
let prop_differential =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"event core matches the frozen oracle cycle-for-cycle"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun pipe ->
          List.iter
            (fun cfg ->
              let stats_n, inst_n, ev_n = run_new cfg pipe in
              let stats_r, inst_r, ev_r = run_ref cfg pipe in
              if inst_n <> inst_r then
                QCheck.Test.fail_reportf "instances: new %d, ref %d" inst_n
                  inst_r;
              if ev_n <> ev_r then
                QCheck.Test.fail_reportf
                  "%dPU: per-task schedules diverge (%d vs %d events)"
                  cfg.Sim.Config.num_pus (List.length ev_n)
                  (List.length ev_r);
              if stats_n <> stats_r then
                QCheck.Test.fail_reportf "%dPU: stats diverge:@ new %a@ ref %a"
                  cfg.Sim.Config.num_pus Sim.Stats.pp stats_n Sim.Stats.pp
                  stats_r)
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
      let stats_n, inst_n, ev_n = run_new cfg pipe in
      let stats_r, inst_r, ev_r = run_ref cfg pipe in
      checki "instances" inst_r inst_n;
      checkb "schedules" true (ev_n = ev_r);
      checkb "stats" true (stats_n = stats_r))
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
