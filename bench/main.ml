(* Paper harness: regenerates the tables and figures of the paper's
   evaluation section over the synthetic SPEC95 suite, plus the studies no
   msc subcommand reproduces.

   All sections run through the unified experiment engine (lib/harness):
   one shared artifact store memoizes the expensive pipeline per
   (workload, heuristic level) — built program, partition plan, dynamic
   trace — so each pipeline is computed exactly once per bench run no
   matter how many sections need it, and the independent jobs fan out
   across a domain pool (HARNESS_JOBS=1 forces serial).  Every simulation
   on the default machine is recorded and exported to bench/results.json.

   Sections:
     table1      - paper's Table 1 (task size, control transfers,
                   prediction, window span for bb/cf/dd tasks on 8 PUs)
     figure5     - paper's Figure 5 (IPC of bb/cf/dd/ts tasks on 4/8 PUs,
                   out-of-order and in-order)
     summary     - the headline claims, aggregated (int vs fp gains)
     superscalar - superscalar window occupancy vs multiscalar window span
     ablation    - design-choice studies DESIGN.md calls out: counted vs
                   generic unrolling, release-point forwarding,
                   synchronization table
     crossinput  - dd/ts tasks selected with alternative-input profiles

   The grid analyses (lint, cycle accounting, dependences, refinement
   precision, cost model, fuzzing) and their gates live in `msc check`;
   wall-clock measurement lives in benchmark/.

   Run with: dune exec bench/main.exe            (all sections)
             dune exec bench/main.exe -- table1  (one section) *)

let sections =
  if Array.length Sys.argv > 1 then Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  else
    [ "table1"; "figure5"; "summary"; "superscalar"; "ablation"; "crossinput" ]

let want s = List.mem s sections

let line () = print_endline (String.make 78 '=')

(* One artifact store shared by every section of this run. *)
let store = Harness.Artifact.create ()

let dd_artifact entry =
  Harness.Artifact.get store ~level:Core.Heuristics.Data_dependence entry

(* --- table 1 ------------------------------------------------------------- *)

let run_table1 () =
  line ();
  print_endline "TABLE 1 — task characteristics (8 PUs, out-of-order PUs)";
  print_endline
    "paper reference: int bb tasks < 10 insns, fp bb tasks larger; cf/dd\n\
     tasks several times larger; dd spans int 45-140 / fp 250-800; bb spans\n\
     considerably smaller.";
  line ();
  let rows = Report.Table1.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Table1.pp rows

(* --- figure 5 ------------------------------------------------------------ *)

let run_figure5 () =
  line ();
  print_endline
    "FIGURE 5 — IPC by heuristic (bb / cf / dd / ts) and configuration";
  print_endline
    "paper reference: cf gains 23-54% over bb (int, ooo); dd adds <1-15%;\n\
     fp gains larger than int; in-order PUs benefit more from dd; only\n\
     compress and fpppp respond to the task-size heuristic.";
  line ();
  let rows = Report.Figure5.run ~store Workloads.Suite.all in
  Format.printf "%a@." Report.Figure5.pp rows

(* --- aggregate summary ---------------------------------------------------- *)

let run_summary () =
  line ();
  print_endline "SUMMARY — geometric-mean IPC gains over basic-block tasks";
  line ();
  (* every row is served from the artifact store: when figure5 already ran
     this is pure cache hits, standalone it computes the grid once *)
  let rows = Report.Figure5.run ~store Workloads.Suite.all in
  let by_kind kind = List.filter (fun r -> r.Report.Figure5.kind = kind) rows in
  List.iteri
    (fun ci cname ->
      Printf.printf "\n-- %s --\n" cname;
      List.iter
        (fun (kname, kind) ->
          let rs = by_kind kind in
          let gain li =
            Harness.Stat.geomean
              (List.map
                 (fun r ->
                   r.Report.Figure5.ipc.(li).(ci)
                   /. max 1e-9 r.Report.Figure5.ipc.(0).(ci))
                 rs)
          in
          Printf.printf "%-4s: cf %+.1f%%  dd %+.1f%%  ts %+.1f%%\n" kname
            (100.0 *. (gain 1 -. 1.0))
            (100.0 *. (gain 2 -. 1.0))
            (100.0 *. (gain 3 -. 1.0)))
        [ ("int", `Int); ("fp", `Fp) ])
    Report.Figure5.config_names

(* --- superscalar comparison (paper 4.3.4) ---------------------------------- *)

(* "the amount of parallelism exposed through branch prediction is
   significantly less than that exposed by task-level speculation": compare
   a 4-wide, 64-entry-window superscalar's average window occupancy against
   the Multiscalar window span of data-dependence tasks on 8 PUs. *)
let run_superscalar () =
  line ();
  print_endline
    "SUPERSCALAR vs MULTISCALAR WINDOW (paper 4.3.4): avg superscalar window
     occupancy (4-wide, ROB 64) vs 8-PU multiscalar window span (dd tasks)";
  line ();
  Printf.printf "%-10s %10s %10s %12s %12s
" "bench" "ss IPC" "ms IPC"
    "ss window" "ms span";
  let rows =
    Harness.Artifact.grid store ~levels:[ Core.Heuristics.Data_dependence ]
      Workloads.Suite.all (fun art ->
        let ss =
          Sim.Superscalar.run
            (Sim.Superscalar.config ~width:4 ~rob:64)
            art.Harness.Artifact.trace
        in
        (* the multiscalar side is the same (dd, 8PU, ooo) job figure5 runs:
           served from the store's simulation cache *)
        let ms = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
        (art.Harness.Artifact.key.Harness.Artifact.workload, ss, ms))
  in
  List.iter
    (fun (name, ss, ms) ->
      Printf.printf "%-10s %10.2f %10.2f %12.1f %12.1f
"
        name
        (Sim.Stats.ipc ss.Sim.Superscalar.stats)
        (Sim.Stats.ipc ms)
        ss.Sim.Superscalar.avg_window
        (Sim.Stats.measured_window_span ms))
    rows

(* --- ablations ------------------------------------------------------------ *)

(* 1. counted-unrolling with induction coalescing vs plain replication:
      simulate su2cor at task-size level with the coalescing path disabled
      by setting max_targets so low that the counted path cannot run. *)
let run_ablation () =
  line ();
  print_endline "ABLATIONS";
  line ();
  let base_cfg = Sim.Config.default ~num_pus:8 ~in_order:false in
  let custom_sim cfg (art : Harness.Artifact.artifact) =
    (Sim.Engine.run_with_trace cfg art.Harness.Artifact.plan
       art.Harness.Artifact.trace)
      .Sim.Engine.stats
  in
  (* a) synchronization table: disable it and count violations *)
  let entry = Workloads.Suite.find "applu" in
  let art =
    Harness.Artifact.get store ~level:Core.Heuristics.Control_flow entry
  in
  let no_sync = { base_cfg with Sim.Config.sync_table_size = 0 } in
  let with_tbl = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
  let without = custom_sim no_sync art in
  Printf.printf
    "sync table (applu, cf, 8PU): with table IPC %.2f (%d violations), \
     without IPC %.2f (%d violations)\n"
    (Sim.Stats.ipc with_tbl) with_tbl.Sim.Stats.violations
    (Sim.Stats.ipc without) without.Sim.Stats.violations;
  (* b) number of hardware targets N: sweep 2 / 4 / 8 on go *)
  let entry = Workloads.Suite.find "go" in
  List.iter
    (fun n ->
      let params = { Core.Heuristics.default with Core.Heuristics.max_targets = n } in
      let art =
        Harness.Artifact.get store ~params ~level:Core.Heuristics.Control_flow
          entry
      in
      let s = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      Printf.printf
        "target limit N=%d (go, cf, 8PU): IPC %.2f, task size %.1f, task \
         mispredict %.1f%%\n"
        n (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s)
        (Sim.Stats.task_mispredict_rate s))
    [ 2; 4; 8 ];
  (* c) predication extension: if-convert the branchy kernels *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let base =
        Harness.Artifact.sim store (dd_artifact entry) ~num_pus:8
          ~in_order:false
      in
      let conv_art =
        Harness.Artifact.get store
          ~variant:{ Harness.Artifact.base_variant with if_convert = true }
          ~level:Core.Heuristics.Data_dependence entry
      in
      let conv = Harness.Artifact.sim store conv_art ~num_pus:8 ~in_order:false in
      Printf.printf
        "if-conversion (%s, dd, 8PU): IPC %.2f -> %.2f, intra-task branch \
         mispredicts %d -> %d\n"
        name (Sim.Stats.ipc base) (Sim.Stats.ipc conv)
        base.Sim.Stats.intra_branch_mispredicts
        conv.Sim.Stats.intra_branch_mispredicts)
    [ "go"; "hydro2d"; "wave5" ];
  (* d) path-based vs bimodal inter-task prediction (Jacobson et al.) *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let art = dd_artifact entry in
      let path = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      let bimodal_cfg = { base_cfg with Sim.Config.task_path_history = false } in
      let bim = custom_sim bimodal_cfg art in
      Printf.printf
        "task predictor (%s, dd, 8PU): path-based %.1f%% mispredict / IPC \
         %.2f, bimodal %.1f%% / IPC %.2f\n"
        name
        (Sim.Stats.task_mispredict_rate path)
        (Sim.Stats.ipc path)
        (Sim.Stats.task_mispredict_rate bim)
        (Sim.Stats.ipc bim))
    [ "go"; "compress" ];
  (* e) interleaved D-cache/ARB banks: 1 vs N (the paper interleaves "as
        many banks as the number of PUs") *)
  let art = dd_artifact (Workloads.Suite.find "tomcatv") in
  List.iter
    (fun banks ->
      let cfg = { base_cfg with Sim.Config.l1_banks = banks } in
      let s = custom_sim cfg art in
      Printf.printf "L1/ARB banks=%d (tomcatv, dd, 8PU): IPC %.2f
" banks
        (Sim.Stats.ipc s))
    [ 1; 4; 8 ];
  (* f) classical -O2-style optimisation before task selection *)
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      let base =
        Harness.Artifact.sim store (dd_artifact entry) ~num_pus:8
          ~in_order:false
      in
      let opt_art =
        Harness.Artifact.get store
          ~variant:{ Harness.Artifact.base_variant with optimize = true }
          ~level:Core.Heuristics.Data_dependence entry
      in
      let optd = Harness.Artifact.sim store opt_art ~num_pus:8 ~in_order:false in
      Printf.printf
        "optimizer (%s, dd, 8PU): cycles %d -> %d, dyn insns %d -> %d (IPC \
         alone misleads when instructions disappear)\n"
        name base.Sim.Stats.cycles optd.Sim.Stats.cycles
        base.Sim.Stats.dyn_insns optd.Sim.Stats.dyn_insns)
    [ "go"; "vortex" ];
  (* g) LOOP_THRESH sweep on compress (the benchmark the paper says responds) *)
  let entry = Workloads.Suite.find "compress" in
  List.iter
    (fun thresh ->
      let params = { Core.Heuristics.default with Core.Heuristics.loop_thresh = thresh } in
      let art =
        Harness.Artifact.get store ~params ~level:Core.Heuristics.Task_size
          entry
      in
      let s = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false in
      Printf.printf
        "LOOP_THRESH=%d (compress, ts, 8PU): IPC %.2f, task size %.1f\n"
        thresh (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s))
    [ 1; 30; 60 ]

(* --- cross-input profile robustness ----------------------------------------- *)

(* The paper profiles with the evaluation inputs.  How much does that
   matter?  Select tasks using profiles from an ALTERNATIVE input and
   evaluate on the reference input: profile-robust heuristics should lose
   almost nothing. *)
let run_crossinput () =
  line ();
  print_endline
    "CROSS-INPUT PROFILING — dd/ts tasks selected with profiles from an \
     alternative input, evaluated on the reference input (8 PUs, ooo)";
  line ();
  Printf.printf "%-10s %-6s %12s %12s %8s
" "bench" "level" "self-profile"
    "cross-profile" "delta";
  List.iter
    (fun name ->
      let entry = Workloads.Suite.find name in
      List.iter
        (fun (lname, level) ->
          let self_art = Harness.Artifact.get store ~level entry in
          let self =
            Sim.Stats.ipc
              (Harness.Artifact.sim store self_art ~num_pus:8 ~in_order:false)
          in
          let cross_art =
            Harness.Artifact.get store ~profile_alt:true ~level entry
          in
          let cross =
            Sim.Stats.ipc
              (Harness.Artifact.sim store cross_art ~num_pus:8 ~in_order:false)
          in
          Printf.printf "%-10s %-6s %12.2f %12.2f %+7.1f%%
" name lname self
            cross
            (100.0 *. (cross -. self) /. self))
        [ ("dd", Core.Heuristics.Data_dependence);
          ("ts", Core.Heuristics.Task_size) ])
    [ "compress"; "go"; "perl"; "su2cor" ]

(* --- results export -------------------------------------------------------- *)

let export_results () =
  let results = Harness.Job.results_of_store store in
  let trace = Harness.Job.trace_stats_of_store store in
  if results <> [] || trace <> [] then begin
    let path = Harness.Job.bench_path "results.json" in
    Harness.Job.export ~path ~trace results;
    Printf.printf
      "wrote %s (%d job results, %d trace records, %d pipeline builds)\n" path
      (List.length results) (List.length trace)
      (Harness.Artifact.builds store)
  end

let () =
  if want "table1" then run_table1 ();
  if want "figure5" then run_figure5 ();
  if want "summary" then run_summary ();
  if want "superscalar" then run_superscalar ();
  if want "ablation" then run_ablation ();
  if want "crossinput" then run_crossinput ();
  line ();
  export_results ();
  print_endline "bench complete."
