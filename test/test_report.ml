(* Tests for the reporting layer: window-span formula, normalised
   misprediction, experiment runners, table formatting, and the gates each
   analysis exports (each fired once and passed once on hand-built rows). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_window_span_perfect_prediction () =
  (* pred = 1: span = N * task size *)
  checkf "pred 1" 80.0
    (Report.Window_span.formula ~task_size:10.0 ~pred:1.0 ~num_pus:8)

let test_window_span_no_prediction () =
  (* pred = 0: only the head task contributes *)
  checkf "pred 0" 10.0
    (Report.Window_span.formula ~task_size:10.0 ~pred:0.0 ~num_pus:8)

let test_window_span_geometric () =
  (* pred = 0.5, size 1, 3 PUs: 1 + 0.5 + 0.25 *)
  checkf "geometric" 1.75
    (Report.Window_span.formula ~task_size:1.0 ~pred:0.5 ~num_pus:3)

let test_window_span_monotone_in_pred () =
  let a = Report.Window_span.formula ~task_size:9.0 ~pred:0.8 ~num_pus:8 in
  let b = Report.Window_span.formula ~task_size:9.0 ~pred:0.95 ~num_pus:8 in
  checkb "higher accuracy, larger window" true (b > a)

let test_normalised_mispred () =
  (* one control transfer per task: identical *)
  checkf "ct=1 identity" 10.0
    (Report.Table1.normalised_mispred ~task_mispred:10.0 ~ct:1.0);
  (* several transfers per task: per-branch rate is lower *)
  checkb "ct=4 lower" true
    (Report.Table1.normalised_mispred ~task_mispred:10.0 ~ct:4.0 < 10.0);
  (* and compounding it back recovers the task rate *)
  let b = Report.Table1.normalised_mispred ~task_mispred:20.0 ~ct:3.0 in
  let back = 100.0 *. (1.0 -. (((100.0 -. b) /. 100.0) ** 3.0)) in
  checkb "roundtrip" true (Float.abs (back -. 20.0) < 1e-6)

let test_experiment_run_one () =
  let entry = Workloads.Suite.find "compress" in
  let r =
    Report.Experiment.run_one ~level:Core.Heuristics.Control_flow ~num_pus:4
      ~in_order:false entry
  in
  checkb "ipc positive" true (Sim.Stats.ipc r.Report.Experiment.stats > 0.0);
  checkb "workload recorded" true (String.equal r.Report.Experiment.workload "compress")

let test_experiment_shared_trace_consistent () =
  (* run_level_configs must agree with separate run_one calls *)
  let entry = Workloads.Suite.find "compress" in
  let results =
    Report.Experiment.run_level_configs ~level:Core.Heuristics.Control_flow
      ~configs:[ (4, false); (8, false) ]
      entry
  in
  let solo =
    Report.Experiment.run_one ~level:Core.Heuristics.Control_flow ~num_pus:4
      ~in_order:false entry
  in
  let shared = List.hd results in
  checkf "same ipc from shared trace"
    (Sim.Stats.ipc solo.Report.Experiment.stats)
    (Sim.Stats.ipc shared.Report.Experiment.stats)

let test_table1_row () =
  let rows = Report.Table1.run [ Workloads.Suite.find "compress" ] in
  match rows with
  | [ row ] ->
    checkb "cf tasks bigger than bb" true
      (row.Report.Table1.cf.Report.Table1.dyn_inst
       > row.Report.Table1.bb.Report.Table1.dyn_inst);
    checkb "bb window smaller than dd window" true
      (row.Report.Table1.bb.Report.Table1.win_span
       < row.Report.Table1.dd.Report.Table1.win_span);
    let s = Format.asprintf "%a" Report.Table1.pp rows in
    checkb "renders" true (String.length s > 100)
  | _ -> Alcotest.fail "expected one row"

let test_figure5_row () =
  let rows = Report.Figure5.run [ Workloads.Suite.find "compress" ] in
  match rows with
  | [ row ] ->
    (* 4 levels x 4 configs, all positive *)
    checkb "shape" true
      (Array.length row.Report.Figure5.ipc = 4
      && Array.for_all
           (fun a -> Array.length a = 4 && Array.for_all (fun x -> x > 0.0) a)
           row.Report.Figure5.ipc);
    (* control flow beats basic block on the 4PU/ooo configuration *)
    checkb "cf > bb" true
      (row.Report.Figure5.ipc.(1).(0) > row.Report.Figure5.ipc.(0).(0));
    let s = Format.asprintf "%a" Report.Figure5.pp rows in
    checkb "renders" true (String.length s > 100)
  | _ -> Alcotest.fail "expected one row"

(* --- gates ------------------------------------------------------------------- *)

let dep_row ~observed ~hit =
  {
    Report.Deps.dep =
      {
        Harness.Job.d_workload = "w";
        d_kind = `Int;
        d_level = Core.Heuristics.Data_dependence;
        d_tasks = 4;
        d_reg_edges = 2;
        d_mem_edges = 5;
        d_fi_mem_edges = 5;
        d_store_sites = 1;
        d_load_sites = 1;
        d_unbounded_sites = 0;
        d_fi_unbounded_sites = 0;
        d_widest = [];
        d_observed = observed;
        d_predicted_hit = hit;
        d_dyn_flows = observed;
      };
    num_pus = 8;
    in_order = false;
    data_wait_pct = 0.0;
    mem_squash_pct = 0.0;
  }

let test_deps_gate () =
  checki "every observed flow predicted" 0
    (List.length (Report.Deps.invariants [ dep_row ~observed:3 ~hit:3 ]));
  checki "observed > predicted_hit fires" 1
    (List.length
       (Report.Deps.invariants
          [ dep_row ~observed:4 ~hit:3; dep_row ~observed:3 ~hit:3 ]))

(* 2 PUs x 10 cycles: categories summing to 20 conserve, 21 leak *)
let account_row ~useful =
  let stats = Sim.Stats.create () in
  let a = stats.Sim.Stats.acct in
  a.Sim.Account.pus <- 2;
  a.Sim.Account.cycles <- 10;
  Sim.Account.add a Sim.Account.Useful useful;
  Sim.Account.add a Sim.Account.Idle 5;
  {
    Report.Experiment.workload = "w";
    kind = `Int;
    level = Core.Heuristics.Basic_block;
    num_pus = 2;
    in_order = false;
    stats;
  }

let test_account_gate () =
  checki "conserving account" 0
    (List.length (Report.Breakdown.invariants [ account_row ~useful:15 ]));
  checki "non-conserving account fires" 1
    (List.length
       (Report.Breakdown.invariants
          [ account_row ~useful:15; account_row ~useful:16 ]))

let precision_row ~fi ~ab =
  {
    Report.Precision.workload = "w";
    kind = `Int;
    level = Core.Heuristics.Data_dependence;
    sites = 4;
    fi_edges = fi;
    ab_edges = ab;
    unbounded = 0;
    fi_unbounded = 0;
    widest = [];
    top_cell = "-";
    top_cell_sites = 0;
    ai =
      {
        Analysis.Memdep.updates = 0;
        widenings = 0;
        narrowed = 0;
        outer_rounds = 0;
        saturated_cells = 0;
      };
  }

let test_absint_gate () =
  let pruned = [ precision_row ~fi:5 ~ab:3; precision_row ~fi:2 ~ab:2 ] in
  checki "suite-wide refined < baseline" 0
    (List.length (Report.Precision.claims pruned));
  checki "totals with ab = fi fire the claim" 1
    (List.length
       (Report.Precision.claims
          [ precision_row ~fi:5 ~ab:5; precision_row ~fi:2 ~ab:2 ]))

let cost_row level ~data_wait ~measured ~ipc =
  {
    Report.Cost.cost =
      {
        Harness.Job.co_workload = "w";
        co_kind = `Int;
        co_level = level;
        co_tasks = 4;
        co_scalar = 1.0;
        co_pred =
          {
            Analysis.Cost.s_useful = 1.0 -. data_wait;
            s_data_wait = data_wait;
            s_ctrl_squash = 0.0;
            s_mem_squash = 0.0;
            s_load_imbalance = 0.0;
            s_overhead = 0.0;
          };
      };
    num_pus = 8;
    in_order = false;
    ipc;
    meas_useful_pct = 100.0 -. measured;
    meas_data_wait_pct = measured;
    meas_ctrl_squash_pct = 0.0;
    meas_mem_squash_pct = 0.0;
    meas_load_imbalance_pct = 0.0;
    meas_overhead_pct = 0.0;
  }

(* Three workloads per level whose measured data_wait share tracks the
   prediction exactly (r = +1), except at [inverted] where it runs
   backwards (r = -1); fb runs at [fb_ipc], every other level at IPC 1. *)
let cost_grid ?inverted ~fb_ipc () =
  List.concat_map
    (fun level ->
      List.map
        (fun x ->
          let measured =
            if Some level = inverted then 100.0 *. (0.4 -. x) else 100.0 *. x
          in
          let ipc = if level = Core.Heuristics.Feedback then fb_ipc else 1.0 in
          cost_row level ~data_wait:x ~measured ~ipc)
        [ 0.1; 0.2; 0.3 ])
    Core.Heuristics.extended_levels

let test_cost_gate () =
  checki "fb beats ts, data_wait tracks" 0
    (List.length (Report.Cost.claims (cost_grid ~fb_ipc:1.5 ())));
  checki "fb geomean <= ts fires" 1
    (List.length (Report.Cost.claims (cost_grid ~fb_ipc:1.0 ())));
  checki "data_wait r < +0.5 fires" 1
    (List.length
       (Report.Cost.claims
          (cost_grid ~inverted:Core.Heuristics.Data_dependence ~fb_ipc:1.5 ())))

let test_lint_gate () =
  let report diags =
    { Lint.workload = "w"; level = Core.Heuristics.Control_flow; diags }
  in
  let info = Lint.Diag.info ~rule:"ir/unreachable" Lint.Diag.program_loc "i" in
  let error = Lint.Diag.error ~rule:"ir/no-main" Lint.Diag.program_loc "e" in
  checki "infos only" 0 (List.length (Lint.invariants [ report [ info ] ]));
  checki "an error diagnostic fires" 1
    (List.length (Lint.invariants [ report [ info; error ]; report [] ]))

let test_fuzz_gate () =
  let outcome violations =
    {
      Fuzz.o_config = Fuzz.default_config;
      o_programs = 1;
      o_checks = 5;
      o_violations = violations;
      o_records = [];
      o_shapes = [];
      o_wall_seconds = 0.0;
    }
  in
  let v =
    {
      Fuzz.v_profile = "p";
      v_index = 0;
      v_seed = 1;
      v_level = "cf";
      v_oracle = "dep";
      v_detail = "d";
    }
  in
  checki "clean corpus" 0 (List.length (Fuzz.invariants (outcome [])));
  checki "a violation fires" 1 (List.length (Fuzz.invariants (outcome [ v ])))

let () =
  Alcotest.run "report"
    [
      ( "window span",
        [
          Alcotest.test_case "perfect" `Quick test_window_span_perfect_prediction;
          Alcotest.test_case "zero" `Quick test_window_span_no_prediction;
          Alcotest.test_case "geometric" `Quick test_window_span_geometric;
          Alcotest.test_case "monotone" `Quick test_window_span_monotone_in_pred;
        ] );
      ( "normalisation",
        [ Alcotest.test_case "per-branch rate" `Quick test_normalised_mispred ] );
      ( "experiments",
        [
          Alcotest.test_case "run one" `Quick test_experiment_run_one;
          Alcotest.test_case "shared trace" `Quick
            test_experiment_shared_trace_consistent;
          Alcotest.test_case "table1" `Quick test_table1_row;
          Alcotest.test_case "figure5" `Slow test_figure5_row;
        ] );
      ( "gates",
        [
          Alcotest.test_case "deps soundness" `Quick test_deps_gate;
          Alcotest.test_case "account conservation" `Quick test_account_gate;
          Alcotest.test_case "absint refinement" `Quick test_absint_gate;
          Alcotest.test_case "cost claims" `Quick test_cost_gate;
          Alcotest.test_case "lint errors" `Quick test_lint_gate;
          Alcotest.test_case "fuzz violations" `Quick test_fuzz_gate;
        ] );
    ]
