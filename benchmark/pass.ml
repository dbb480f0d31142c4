(* What one pass of each batch workload does, untraced and traced.

   The untraced pass is exactly what a user's command runs (the Report
   and Fuzz entry points on a fresh store).  The traced pass drives the
   same calls through the layers' public functions itself, one span per
   call, and must reproduce the untraced pass's output texts byte for
   byte — that equality is what makes its per-layer numbers a breakdown
   of the untraced wall time rather than of some other computation. *)

module Span = Bench_kit.Span

type outcome = {
  texts : (string * string) list;
      (** golden file name -> produced text; digested for traced/untraced
          equality *)
  pinned : bool;  (** whether [benchmark/golden/] holds [texts] for this input *)
  counts : (string * float) list;  (** per-layer figures read off the outputs *)
  post : unit -> int * int;
      (** untimed output checks, run after the pass is measured:
          [(made, failed)] *)
}

let suite = Workloads.Suite.all

(* the paper grid's width: two domains where the host has them *)
let grid_jobs () = min 2 (Domain.recommended_domain_count ())

let no_checks texts counts = { texts; pinned = true; counts; post = (fun () -> (0, 0)) }

(* --- shared pipeline, one span per layer call ----------------------------- *)

let select_span = function
  | Core.Heuristics.Feedback -> "core.cost_fb"
  | _ -> "core.select"

(* Harness.Artifact.get's pipeline: build, select, trace *)
let pipeline (entry : Workloads.Registry.entry) level =
  let prog = Span.record "workloads.build" entry.Workloads.Registry.build in
  let plan =
    Span.record (select_span level) (fun () -> Core.Cost.plan_for_level level prog)
  in
  let out =
    Span.record "interp.execute" (fun () ->
        Interp.Run.execute plan.Core.Partition.prog)
  in
  (plan, out)

let artifact (entry : Workloads.Registry.entry) level plan trace =
  {
    Harness.Artifact.key =
      {
        Harness.Artifact.workload = entry.Workloads.Registry.name;
        level;
        params = Core.Heuristics.default;
        profile_alt = false;
        variant = Harness.Artifact.base_variant;
      };
    kind = entry.Workloads.Registry.kind;
    plan;
    trace;
  }

let prepare plan trace =
  Span.record "sim.prepare" (fun () -> Sim.Engine.prepare plan trace)

let simulate prep trace (num_pus, in_order) =
  Span.record "sim.run" (fun () ->
      Sim.Engine.run_prepared (Sim.Config.default ~num_pus ~in_order) prep trace)

let num_tasks (plan : Core.Partition.plan) =
  Ir.Prog.Smap.fold
    (fun _ (p : Core.Task.partition) acc -> acc + Array.length p.Core.Task.tasks)
    plan.Core.Partition.parts 0

let mb bytes = float_of_int bytes /. 1e6

(* per-layer work counts of a traced flow: the pipelines it built and the
   simulations it ran *)
let flow_counts pipelines (sims : Sim.Stats.t list) =
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  [
    ("core.tasks", float_of_int (sum (fun (plan, _) -> num_tasks plan) pipelines));
    ("interp.steps", float_of_int (sum (fun (_, out) -> out.Interp.Run.steps) pipelines));
    ( "interp.trace_mb",
      mb (sum (fun (_, out) -> Interp.Trace.bytes out.Interp.Run.trace) pipelines) );
    ("sim.cycles", float_of_int (sum (fun s -> s.Sim.Stats.cycles) sims));
    ("sim.insns", float_of_int (sum (fun s -> s.Sim.Stats.dyn_insns) sims));
    ("sim.ipc_geomean", Harness.Stat.geomean (List.map Sim.Stats.ipc sims));
  ]

let store_counts store =
  [
    ("harness.builds", float_of_int (Harness.Artifact.builds store));
    ("harness.sims", float_of_int (List.length (Harness.Artifact.sim_results store)));
    ("harness.trace_mb", mb (Harness.Artifact.trace_bytes store));
  ]

(* --- paper-grid: Figure 5 then Table 1 over the whole suite ------------- *)

let grid_texts fig t1 =
  [
    ("paper-grid-figure5.txt", Format.asprintf "%a@." Report.Figure5.pp fig);
    ("paper-grid-table1.txt", Format.asprintf "%a@." Report.Table1.pp t1);
  ]

let sched_counts before =
  let after = Sched.stats (Harness.Pool.scheduler ~jobs:(grid_jobs ())) in
  [
    ("sched.tasks", float_of_int (after.Sched.tasks - before.Sched.tasks));
    ("sched.steals", float_of_int (after.Sched.steals - before.Sched.steals));
    ("sched.parks", float_of_int (after.Sched.parks - before.Sched.parks));
  ]

let paper_grid () =
  let jobs = grid_jobs () in
  let before = Sched.stats (Harness.Pool.scheduler ~jobs) in
  let store = Harness.Artifact.create () in
  let fig = Report.Figure5.run ~store ~jobs suite in
  let t1 = Report.Table1.run ~store ~jobs suite in
  no_checks (grid_texts fig t1) (store_counts store @ sched_counts before)

(* every 16th (workload, level, machine) cell is re-simulated on the frozen
   sim_ref core; any difference is a failed check *)
let ref_sample = 16

let paper_grid_traced () =
  let jobs = grid_jobs () in
  let rows =
    Harness.Pool.map ~jobs
      (fun entry ->
        ( entry,
          Harness.Pool.map ~jobs
            (fun level ->
              Span.record "item" (fun () ->
                  let plan, out = pipeline entry level in
                  let trace = out.Interp.Run.trace in
                  let prep = prepare plan trace in
                  (plan, out, List.map (simulate prep trace) Report.Figure5.configs)))
            Report.Figure5.levels ))
      suite
  in
  let fig =
    List.map
      (fun ((entry : Workloads.Registry.entry), cells) ->
        {
          Report.Figure5.workload = entry.Workloads.Registry.name;
          kind = entry.Workloads.Registry.kind;
          ipc =
            Array.of_list
              (List.map
                 (fun (_, _, runs) ->
                   Array.of_list
                     (List.map (fun r -> Sim.Stats.ipc r.Sim.Engine.stats) runs))
                 cells);
        })
      rows
  in
  (* Table 1 reads the 8-PU out-of-order cell, Figure 5's second machine *)
  let t1 =
    List.map
      (fun ((entry : Workloads.Registry.entry), cells) ->
        let cols i =
          let _, _, runs = List.nth cells i in
          Report.Table1.cols_of_stats (List.nth runs 1).Sim.Engine.stats
            ~num_pus:Report.Table1.num_pus
        in
        {
          Report.Table1.workload = entry.Workloads.Registry.name;
          kind = entry.Workloads.Registry.kind;
          bb = cols 0;
          cf = cols 1;
          dd = cols 2;
        })
      rows
  in
  let cells = List.concat_map snd rows in
  let sampled =
    List.concat_map
      (fun (plan, out, runs) ->
        List.map2 (fun cfg r -> (plan, out.Interp.Run.trace, cfg, r)) Report.Figure5.configs runs)
      cells
    |> List.filteri (fun i _ -> i mod ref_sample = 0)
  in
  let counts =
    flow_counts
      (List.map (fun (plan, out, _) -> (plan, out)) cells)
      (List.concat_map (fun (_, _, runs) -> List.map (fun r -> r.Sim.Engine.stats) runs) cells)
  in
  let post () =
    let diverged =
      Harness.Pool.map ~jobs
        (fun (plan, trace, (num_pus, in_order), (r : Sim.Engine.result)) ->
          Span.record "check.sim_ref" (fun () ->
              let cfg = Sim.Config.default ~num_pus ~in_order in
              let ref_r = Sim_ref.Engine_ref.run_with_trace cfg plan trace in
              ref_r.Sim_ref.Engine_ref.stats <> r.Sim.Engine.stats
              || ref_r.Sim_ref.Engine_ref.instances <> r.Sim.Engine.instances))
        sampled
    in
    (List.length diverged, List.length (List.filter Fun.id diverged))
  in
  { texts = grid_texts fig t1; pinned = true; counts; post }

(* --- fb-search: the cost report and the precision report at fb ---------- *)

let fb_levels = [ Core.Heuristics.Feedback ]

let plan_digest (plan : Core.Partition.plan) =
  let dump =
    Format.asprintf "%a@.%a" Ir.Prog.pp plan.Core.Partition.prog
      (fun ppf parts -> Ir.Prog.Smap.iter (fun _ p -> Format.fprintf ppf "%a@." Core.Task.pp p) parts)
      plan.Core.Partition.parts
  in
  Digest.to_hex (Digest.string dump)

let fb_texts cost_rows prec_rows plans =
  let plan_lines =
    List.map2
      (fun (r : Report.Cost.row) plan ->
        Printf.sprintf "%-10s ipc %.17g plan %s\n" r.Report.Cost.cost.Harness.Job.co_workload
          r.Report.Cost.ipc (plan_digest plan))
      cost_rows plans
  in
  [
    ("fb-search-cost.txt", Format.asprintf "%a@." Report.Cost.pp cost_rows);
    ("fb-search-precision.txt", Format.asprintf "%a@." Report.Precision.pp prec_rows);
    ("fb-search-plans.txt", String.concat "" plan_lines);
  ]

let fb_counts prec_rows =
  let fi, ab = Report.Precision.totals prec_rows in
  [ ("core.depend_mem_edges_fi", float_of_int fi); ("core.depend_mem_edges_ab", float_of_int ab) ]

let fb_search () =
  let store = Harness.Artifact.create () in
  let cost = Report.Cost.run ~store ~jobs:1 ~levels:fb_levels suite in
  let prec = Report.Precision.run ~store ~jobs:1 ~levels:fb_levels suite in
  let plans =
    List.map
      (fun e -> (Harness.Artifact.get store ~level:Core.Heuristics.Feedback e).Harness.Artifact.plan)
      suite
  in
  no_checks (fb_texts cost prec plans) (store_counts store @ fb_counts prec)

(* Report.Cost's row for one simulated artifact *)
let cost_row cost (stats : Sim.Stats.t) =
  let pct c = Sim.Account.pct stats.Sim.Stats.acct c in
  {
    Report.Cost.cost;
    num_pus = 8;
    in_order = false;
    ipc = Sim.Stats.ipc stats;
    meas_useful_pct = pct Sim.Account.Useful;
    meas_data_wait_pct = pct Sim.Account.Data_wait;
    meas_ctrl_squash_pct = pct Sim.Account.Ctrl_squash;
    meas_mem_squash_pct = pct Sim.Account.Mem_squash;
    meas_load_imbalance_pct = pct Sim.Account.Load_imbalance;
    meas_overhead_pct = pct Sim.Account.Overhead;
  }

let fb_search_traced () =
  let items =
    List.map
      (fun entry ->
        Span.record "item" (fun () ->
            let level = Core.Heuristics.Feedback in
            let plan, out = pipeline entry level in
            let trace = out.Interp.Run.trace in
            let art = artifact entry level plan trace in
            let cost = Span.record "core.plan_cost" (fun () -> Harness.Job.cost_of_artifact art) in
            let r = simulate (prepare plan trace) trace (8, false) in
            let prec = Span.record "core.depend" (fun () -> Report.Precision.row_of_artifact art) in
            (cost_row cost r.Sim.Engine.stats, prec, (plan, out), r.Sim.Engine.stats)))
      suite
  in
  let cost = List.map (fun (c, _, _, _) -> c) items in
  let prec = List.map (fun (_, p, _, _) -> p) items in
  let pipelines = List.map (fun (_, _, p, _) -> p) items in
  no_checks
    (fb_texts cost prec (List.map fst pipelines))
    (flow_counts pipelines (List.map (fun (_, _, _, s) -> s) items) @ fb_counts prec)

(* --- fuzz-corpus: the oracle stack over a synthetic corpus -------------- *)

(* The corpus root seed is the golden seed in timed runs and the run's
   --seed in traced runs (see [Run.timed_seed]).  Every seed's corpus
   must pass every oracle; the golden seed's outputs are also pinned. *)
let golden_seed = 42
let fuzz_config ~n ~seed = { Fuzz.default_config with Fuzz.n; seed }

let blocked (r : Fuzz.report) =
  List.exists
    (fun v -> String.equal v.Fuzz.v_oracle "lint" && String.equal v.Fuzz.v_level "-")
    r.Fuzz.p_violations

(* one check per program: it fails if any oracle does *)
let fuzz_outcome (cfg : Fuzz.config) ~programs ~checks ~violations ~records =
  let lines =
    Printf.sprintf "programs %d\nchecks %d\nviolations %d\n" programs checks
      (List.length violations)
    :: List.map (fun v -> Fuzz.violation_text v ^ "\n") violations
    @ List.map
        (fun r -> Harness.Json.to_string ~indent:false (Harness.Job.fuzz_to_json r) ^ "\n")
        records
  in
  let post () =
    List.iter (fun v -> prerr_endline ("fuzz-corpus: " ^ Fuzz.violation_text v)) violations;
    (programs, List.length (List.sort_uniq compare (List.map (fun v -> v.Fuzz.v_index) violations)))
  in
  {
    texts =
      [ (Printf.sprintf "fuzz-corpus-seed%d-n%d.txt" cfg.Fuzz.seed cfg.Fuzz.n, String.concat "" lines) ];
    pinned = cfg.Fuzz.seed = golden_seed;
    counts = [ ("fuzz.checks", float_of_int checks) ];
    post;
  }

let fuzz_corpus ~n ~seed () =
  let cfg = fuzz_config ~n ~seed in
  let o = Fuzz.run ~jobs:1 cfg in
  fuzz_outcome cfg ~programs:o.Fuzz.o_programs ~checks:o.Fuzz.o_checks
    ~violations:o.Fuzz.o_violations ~records:o.Fuzz.o_records

let fuzz_corpus_traced ~n ~seed () =
  let cfg = fuzz_config ~n ~seed in
  let reports =
    List.init cfg.Fuzz.n (fun index ->
        Span.record "item" (fun () ->
            Span.record "fuzz.check" (fun () -> Fuzz.check_one cfg ~index)))
  in
  let checks =
    List.fold_left
      (fun acc r -> if blocked r then acc else acc + List.length cfg.Fuzz.levels)
      0 reports
  in
  fuzz_outcome cfg ~programs:(List.length reports) ~checks
    ~violations:(List.concat_map (fun r -> r.Fuzz.p_violations) reports)
    ~records:(Fuzz.records_of_reports cfg reports)

