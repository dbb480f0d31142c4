(* The studies beside the paper's figures: the §4.3.4 comparison of a
   superscalar's window with the Multiscalar window span, ablations of the
   design choices DESIGN.md calls out, and cross-input profiling.  Each is
   a fixed experiment over the artifact store; every artifact they need
   that no report grid holds is defined once, below, and listed by
   [artifacts]. *)

let find = Workloads.Suite.find

let sim8 store art = Harness.Artifact.sim store art ~num_pus:8 ~in_order:false

(* --- the study artifacts ----------------------------------------------- *)

let target_limits = [ 2; 4; 8 ]
let if_converted = [ "go"; "hydro2d"; "wave5" ]
let optimized = [ "go"; "vortex" ]
let loop_threshes = [ 1; 30; 60 ]
let cross_workloads = [ "compress"; "go"; "perl"; "su2cor" ]

let cross_levels =
  [ ("dd", Core.Heuristics.Data_dependence); ("ts", Core.Heuristics.Task_size) ]

(* go's cf tasks with at most [n] hardware targets *)
let target_limit store n =
  Harness.Artifact.get store
    ~params:{ Core.Heuristics.default with Core.Heuristics.max_targets = n }
    ~level:Core.Heuristics.Control_flow (find "go")

let dd store ?variant name =
  Harness.Artifact.get store ?variant ~level:Core.Heuristics.Data_dependence
    (find name)

let if_convert = { Harness.Artifact.base_variant with if_convert = true }
let optimize = { Harness.Artifact.base_variant with optimize = true }

(* compress's ts tasks at loop-unrolling threshold [t] *)
let loop_thresh store t =
  Harness.Artifact.get store
    ~params:{ Core.Heuristics.default with Core.Heuristics.loop_thresh = t }
    ~level:Core.Heuristics.Task_size (find "compress")

(* tasks selected with the profile of the workload's alternative input *)
let cross_profile store level name =
  Harness.Artifact.get store ~profile_alt:true ~level (find name)

let artifacts store =
  List.map (target_limit store) target_limits
  @ List.map (fun name -> dd store ~variant:if_convert name) if_converted
  @ List.map (fun name -> dd store ~variant:optimize name) optimized
  @ List.map (loop_thresh store) loop_threshes
  @ List.concat_map
      (fun name ->
        List.map (fun (_, level) -> cross_profile store level name)
          cross_levels)
      cross_workloads

(* --- superscalar vs Multiscalar window (paper 4.3.4) -------------------- *)

(* "the amount of parallelism exposed through branch prediction is
   significantly less than that exposed by task-level speculation": a
   superscalar's average window occupancy against the Multiscalar window
   span of dd tasks on 8 PUs, both on the dd artifact's trace. *)
type superscalar_row = {
  workload : string;
  ss : Sim.Superscalar.result;
  ms : Sim.Stats.t;  (** dd tasks, 8 out-of-order PUs *)
}

let superscalar ~store ?jobs ~width ~rob entries =
  Harness.Artifact.grid store ?jobs
    ~levels:[ Core.Heuristics.Data_dependence ] entries (fun art ->
      {
        workload = art.Harness.Artifact.key.Harness.Artifact.workload;
        ss =
          Sim.Superscalar.run
            (Sim.Superscalar.config ~width ~rob)
            art.Harness.Artifact.trace;
        ms = sim8 store art;
      })

let pp_superscalar ~width ~rob ppf rows =
  Format.fprintf ppf
    "@[<v>Superscalar (--width %d, --rob %d) vs 8-PU Multiscalar (dd \
     tasks): IPC and window (paper 4.3.4)@,@,"
    width rob;
  Format.fprintf ppf "%-10s %10s %10s %12s %12s %10s@," "bench" "ss IPC"
    "ms IPC" "ss window" "ms span" "ss mispred";
  List.iter
    (fun r ->
      let ss = r.ss.Sim.Superscalar.stats in
      Format.fprintf ppf "%-10s %10.2f %10.2f %12.1f %12.1f %9.2f%%@,"
        r.workload (Sim.Stats.ipc ss) (Sim.Stats.ipc r.ms)
        r.ss.Sim.Superscalar.avg_window
        (Sim.Stats.measured_window_span r.ms)
        (Sim.Stats.branch_mispredict_rate ss))
    rows;
  Format.fprintf ppf "@]"

(* --- ablations ----------------------------------------------------------- *)

let base_cfg = Sim.Config.default ~num_pus:8 ~in_order:false

(* an artifact on a machine the store does not memoize *)
let custom_sim store cfg (art : Harness.Artifact.artifact) =
  (Sim.Engine.run_prepared cfg (Harness.Artifact.prep store art)
     art.Harness.Artifact.trace)
    .Sim.Engine.stats

let ablation store =
  let sim = sim8 store and custom = custom_sim store in
  (* the memory-dependence synchronization table, on and off *)
  let sync =
    let art =
      Harness.Artifact.get store ~level:Core.Heuristics.Control_flow
        (find "applu")
    in
    let with_tbl = sim art in
    let without =
      custom { base_cfg with Sim.Config.sync_table_size = 0 } art
    in
    Printf.sprintf
      "sync table (applu, cf, 8PU): with table IPC %.2f (%d violations), \
       without IPC %.2f (%d violations)"
      (Sim.Stats.ipc with_tbl) with_tbl.Sim.Stats.violations
      (Sim.Stats.ipc without) without.Sim.Stats.violations
  in
  (* the number of hardware targets N *)
  let targets =
    List.map
      (fun n ->
        let s = sim (target_limit store n) in
        Printf.sprintf
          "target limit N=%d (go, cf, 8PU): IPC %.2f, task size %.1f, task \
           mispredict %.1f%%"
          n (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s)
          (Sim.Stats.task_mispredict_rate s))
      target_limits
  in
  (* the predication extension on the branchy kernels *)
  let predication =
    List.map
      (fun name ->
        let base = sim (dd store name) in
        let conv = sim (dd store ~variant:if_convert name) in
        Printf.sprintf
          "if-conversion (%s, dd, 8PU): IPC %.2f -> %.2f, intra-task branch \
           mispredicts %d -> %d"
          name (Sim.Stats.ipc base) (Sim.Stats.ipc conv)
          base.Sim.Stats.intra_branch_mispredicts
          conv.Sim.Stats.intra_branch_mispredicts)
      if_converted
  in
  (* path-based vs bimodal inter-task prediction (Jacobson et al.) *)
  let predictors =
    List.map
      (fun name ->
        let art = dd store name in
        let path = sim art in
        let bim =
          custom { base_cfg with Sim.Config.task_path_history = false } art
        in
        Printf.sprintf
          "task predictor (%s, dd, 8PU): path-based %.1f%% mispredict / IPC \
           %.2f, bimodal %.1f%% / IPC %.2f"
          name
          (Sim.Stats.task_mispredict_rate path)
          (Sim.Stats.ipc path)
          (Sim.Stats.task_mispredict_rate bim)
          (Sim.Stats.ipc bim))
      [ "go"; "compress" ]
  in
  (* interleaved D-cache/ARB banks: 1 vs as many as the PUs *)
  let banks =
    let art = dd store "tomcatv" in
    List.map
      (fun banks ->
        let s = custom { base_cfg with Sim.Config.l1_banks = banks } art in
        Printf.sprintf "L1/ARB banks=%d (tomcatv, dd, 8PU): IPC %.2f" banks
          (Sim.Stats.ipc s))
      [ 1; 4; 8 ]
  in
  (* classical -O2-style optimisation before task selection *)
  let optimizer =
    List.map
      (fun name ->
        let base = sim (dd store name) in
        let optd = sim (dd store ~variant:optimize name) in
        Printf.sprintf
          "optimizer (%s, dd, 8PU): cycles %d -> %d, dyn insns %d -> %d (IPC \
           alone misleads when instructions disappear)"
          name base.Sim.Stats.cycles optd.Sim.Stats.cycles
          base.Sim.Stats.dyn_insns optd.Sim.Stats.dyn_insns)
      optimized
  in
  (* the LOOP_THRESH sweep on compress *)
  let thresh =
    List.map
      (fun t ->
        let s = sim (loop_thresh store t) in
        Printf.sprintf
          "LOOP_THRESH=%d (compress, ts, 8PU): IPC %.2f, task size %.1f" t
          (Sim.Stats.ipc s) (Sim.Stats.avg_task_size s))
      loop_threshes
  in
  (sync :: targets) @ predication @ predictors @ banks @ optimizer @ thresh

(* --- cross-input profiling ------------------------------------------------ *)

(* The paper profiles with the evaluation inputs.  Tasks selected with the
   profile of an alternative input, evaluated on the reference input:
   profile-robust heuristics lose almost nothing. *)
let crossinput store =
  Printf.sprintf "%-10s %-6s %12s %12s %8s" "bench" "level" "self-profile"
    "cross-profile" "delta"
  :: List.concat_map
       (fun name ->
         List.map
           (fun (lname, level) ->
             let ipc art = Sim.Stats.ipc (sim8 store art) in
             let self = ipc (Harness.Artifact.get store ~level (find name)) in
             let cross = ipc (cross_profile store level name) in
             Printf.sprintf "%-10s %-6s %12.2f %12.2f %+7.1f%%" name lname
               self cross
               (100.0 *. (cross -. self) /. self))
           cross_levels)
       cross_workloads
