(* msc — Multiscalar task-selection reproduction driver.

   Subcommands:
     list        show the workload suite
     run         compile + simulate one workload on one configuration
     breakdown   attribute every PU-cycle of the grid to the paper's
                 performance issues (per workload x heuristic x PU count)
     check       run the grid analyses on the full default grid, write
                 bench/<name>.json and fail on any broken invariant or
                 suite claim
     dump        print the CFG and the task partition of a workload
     run-file    parse a textual IR program (see Ir.Parse) and simulate it
     export      print a workload in the textual IR format
     dot         emit a Graphviz CFG coloured by task
     superscalar simulate on the centralised superscalar reference machine
     lint        statically verify IR, partitions and register communication
     deps        static cross-task dependence edges vs observed trace flows
     absint      flow-sensitive refinement precision vs the baseline regions
     cost        predicted cycle-account shares (static model) vs measured
     trace-stats memory statistics of the packed dynamic traces
     fuzz        differential fuzzing over the synthetic corpus (lint,
                 round-trip, dep/sound, absint, acct/conserve, cost,
                 fb-bound and the frozen sim_ref cycle differential as
                 oracles)
     table1      regenerate the paper's Table 1
     figure5     regenerate the paper's Figure 5 *)

open Cmdliner

(* the wire tags (bb, cf, dd, ts, fb), with the long level names as aliases *)
let level_conv =
  let parse s =
    match
      List.find_opt
        (fun l -> Core.Heuristics.level_name l = s)
        Core.Heuristics.extended_levels
    with
    | Some l -> Ok l
    | None ->
      Result.map_error
        (fun _ -> `Msg (Printf.sprintf "unknown heuristic level %S" s))
        (Harness.Job.level_of_tag s)
  in
  let print ppf l = Format.pp_print_string ppf (Core.Heuristics.level_name l) in
  Arg.conv (parse, print)

let workload_arg =
  let doc = "Workload name (see $(b,msc list))." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let level_arg =
  let doc = "Task-selection heuristic: bb, cf, dd, ts or fb." in
  Arg.(value & opt level_conv Core.Heuristics.Data_dependence
       & info [ "l"; "level" ] ~doc)

let pus_arg =
  let doc = "Number of processing units." in
  Arg.(value & opt int 8 & info [ "p"; "pus" ] ~doc)

let in_order_arg =
  let doc = "Use in-order PUs (default: out-of-order)." in
  Arg.(value & flag & info [ "in-order" ] ~doc)

let optimize_arg =
  let doc = "Run the classical optimisation pipeline first." in
  Arg.(value & flag & info [ "optimize" ] ~doc)

let if_convert_arg =
  let doc = "Run the if-conversion (predication) extension first." in
  Arg.(value & flag & info [ "if-convert" ] ~doc)

let schedule_arg =
  let doc = "Run register-communication scheduling." in
  Arg.(value & flag & info [ "schedule" ] ~doc)

let suite_of = function
  | None -> Workloads.Suite.all
  | Some names ->
    List.map Workloads.Suite.find (String.split_on_char ',' names)

let workloads_filter =
  let doc = "Comma-separated subset of workloads (default: all)." in
  Arg.(value & opt (some string) None & info [ "only" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for experiment batches (default: HARNESS_JOBS or the \
     host's core count; 1 = serial)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

let json_arg =
  let doc = "Also export the structured job results as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* One artifact store per CLI invocation: every subcommand resolves its
   plans, traces and default-machine simulations through the engine. *)
let store = Harness.Artifact.create ()

let write_json path json =
  try Harness.Json.to_file path json
  with Sys_error msg ->
    Printf.eprintf "msc: cannot write %s: %s\n" path msg;
    exit 1

let export_json = function
  | None -> ()
  | Some path ->
    let results = Harness.Job.results_of_store store in
    write_json path (Harness.Job.document results);
    Printf.printf "wrote %s (%d job results)\n" path (List.length results)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-10s %-4s %s\n" e.Workloads.Registry.name
          (Workloads.Registry.kind_name e.Workloads.Registry.kind)
          e.Workloads.Registry.description)
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite")
    Term.(const run $ const ())

(* --- run ------------------------------------------------------------------- *)

let simulate ?(optimize = false) ?(if_convert = false) ?(schedule = false)
    name level pus in_order =
  let entry = Workloads.Suite.find name in
  let art =
    Harness.Artifact.get store
      ~variant:{ Harness.Artifact.optimize; if_convert; schedule }
      ~level entry
  in
  (entry, Harness.Artifact.sim store art ~num_pus:pus ~in_order)

let run_cmd =
  let run name level pus in_order optimize if_convert schedule =
    let _, s = simulate ~optimize ~if_convert ~schedule name level pus in_order in
    Printf.printf "%s %s %dPU %s: IPC %.3f (%d insns / %d cycles), %d tasks\n"
      name
      (Core.Heuristics.level_name level)
      pus
      (if in_order then "in-order" else "out-of-order")
      (Sim.Stats.ipc s) s.Sim.Stats.dyn_insns s.Sim.Stats.cycles
      s.Sim.Stats.tasks;
    Printf.printf
      "task size %.1f, ct/task %.2f, task mispred %.2f%%, window span %.0f\n"
      (Sim.Stats.avg_task_size s)
      (Sim.Stats.avg_ct_per_task s)
      (Sim.Stats.task_mispredict_rate s)
      (Sim.Stats.measured_window_span s)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one workload")
    Term.(const run $ workload_arg $ level_arg $ pus_arg $ in_order_arg
          $ optimize_arg $ if_convert_arg $ schedule_arg)

(* --- dump ---------------------------------------------------------------- *)

let dump_cmd =
  let run name level =
    let entry = Workloads.Suite.find name in
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    Format.printf "%a@." Ir.Prog.pp plan.Core.Partition.prog;
    Ir.Prog.Smap.iter
      (fun _ part -> Format.printf "%a@." Core.Task.pp part)
      plan.Core.Partition.parts
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print the CFG and task partition")
    Term.(const run $ workload_arg $ level_arg)

(* --- file-based programs ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_file_cmd =
  let path_arg =
    let doc = "Path to a textual IR program (see Ir.Parse)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run path level pus in_order =
    match Ir.Parse.program (read_file path) with
    | Error e ->
      Printf.eprintf "parse error: %s
" e;
      exit 1
    | Ok prog ->
      let plan = Core.Cost.plan_for_level level prog in
      let cfg = Sim.Config.default ~num_pus:pus ~in_order in
      let r = Sim.Engine.run cfg plan in
      let s = r.Sim.Engine.stats in
      Printf.printf "%s %s %dPU: IPC %.3f (%d insns / %d cycles)
" path
        (Core.Heuristics.level_name level)
        pus (Sim.Stats.ipc s) s.Sim.Stats.dyn_insns s.Sim.Stats.cycles
  in
  Cmd.v
    (Cmd.info "run-file" ~doc:"Parse a textual IR program and simulate it")
    Term.(const run $ path_arg $ level_arg $ pus_arg $ in_order_arg)

let export_cmd =
  let run name =
    let entry = Workloads.Suite.find name in
    print_string (Ir.Pp.program_text (entry.Workloads.Registry.build ()))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print a workload as parseable textual IR (see run-file)")
    Term.(const run $ workload_arg)

let dot_cmd =
  let fname_arg =
    let doc = "Function to draw (default: main)." in
    Arg.(value & opt string "main" & info [ "f"; "function" ] ~doc)
  in
  let run name level fname =
    let entry = Workloads.Suite.find name in
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    let f = Ir.Prog.find plan.Core.Partition.prog fname in
    let part = Ir.Prog.Smap.find fname plan.Core.Partition.parts in
    let partition blk =
      (* colour by the first task containing the block *)
      let found = ref 0 in
      Array.iteri
        (fun i (t : Core.Task.t) ->
          if !found = 0 && Core.Task.Iset.mem blk t.Core.Task.blocks then
            found := i)
        part.Core.Task.tasks;
      !found
    in
    print_string (Ir.Pp.dot_of_func ~partition f)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit a Graphviz CFG of a workload function, coloured by task")
    Term.(const run $ workload_arg $ level_arg $ fname_arg)

let superscalar_cmd =
  let width_arg =
    let doc = "Issue width of the superscalar machine." in
    Arg.(value & opt int 4 & info [ "width" ] ~doc)
  in
  let rob_arg =
    let doc = "Reorder-buffer size." in
    Arg.(value & opt int 64 & info [ "rob" ] ~doc)
  in
  let run name width rob =
    let entry = Workloads.Suite.find name in
    let prog = entry.Workloads.Registry.build () in
    let outcome = Interp.Run.execute prog in
    let cfg =
      {
        (Sim.Config.default ~num_pus:1 ~in_order:false) with
        Sim.Config.issue_width = width;
        rob_size = rob;
        iq_size = max 8 (rob / 2);
        fu_int = width;
        fu_fp = max 1 (width / 2);
        fu_mem = max 1 (width / 2);
        fu_branch = max 1 (width / 2);
      }
    in
    let r = Sim.Superscalar.run cfg outcome.Interp.Run.trace in
    Printf.printf
      "%s superscalar %d-wide/ROB %d: IPC %.3f, avg window %.1f, branch        mispredict %.2f%%
"
      name width rob
      (Sim.Stats.ipc r.Sim.Superscalar.stats)
      r.Sim.Superscalar.avg_window
      (Sim.Stats.branch_mispredict_rate r.Sim.Superscalar.stats)
  in
  Cmd.v
    (Cmd.info "superscalar"
       ~doc:"Simulate a workload on the centralised superscalar reference")
    Term.(const run $ workload_arg $ width_arg $ rob_arg)

let timeline_cmd =
  let count_arg =
    let doc = "Number of dynamic tasks to show." in
    Arg.(value & opt int 32 & info [ "n" ] ~doc)
  in
  let skip_arg =
    let doc = "Skip this many dynamic tasks first (past the warm-up)." in
    Arg.(value & opt int 200 & info [ "skip" ] ~doc)
  in
  let run name level pus in_order n skip =
    let entry = Workloads.Suite.find name in
    let art = Harness.Artifact.get store ~level entry in
    let plan = art.Harness.Artifact.plan in
    let cfg = Sim.Config.default ~num_pus:pus ~in_order in
    let base = ref (-1) in
    Printf.printf "%6s %3s %-24s %8s %8s %8s %s
" "task" "pu" "entry"
      "assign" "done" "retire" "flags";
    let observer (e : Sim.Engine.event) =
      if e.Sim.Engine.e_index >= skip && e.Sim.Engine.e_index < skip + n then begin
        if !base < 0 then base := e.Sim.Engine.e_assign;
        let inst = e.Sim.Engine.e_instance in
        let fname =
          (Ir.Prog.func_names plan.Core.Partition.prog |> fun names ->
           List.nth names inst.Sim.Dyntask.fid)
        in
        let part = Ir.Prog.Smap.find fname plan.Core.Partition.parts in
        let entry_blk =
          part.Core.Task.tasks.(inst.Sim.Dyntask.task).Core.Task.entry
        in
        Printf.printf "%6d %3d %-24s %8d %8d %8d %s%s
"
          e.Sim.Engine.e_index e.Sim.Engine.e_pu
          (Printf.sprintf "%s/L%d (%d insns)" fname entry_blk
             inst.Sim.Dyntask.size)
          (e.Sim.Engine.e_assign - !base)
          (e.Sim.Engine.e_complete - !base)
          (e.Sim.Engine.e_retire - !base)
          (if e.Sim.Engine.e_mispredicted then "MISPRED " else "")
          (if e.Sim.Engine.e_violations > 0 then
             Printf.sprintf "VIOLx%d" e.Sim.Engine.e_violations
           else "")
      end
    in
    ignore
      (Sim.Engine.run_with_trace ~observer cfg plan art.Harness.Artifact.trace)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Print the schedule of a window of dynamic tasks")
    Term.(const run $ workload_arg $ level_arg $ pus_arg $ in_order_arg
          $ count_arg $ skip_arg)

(* --- trace-stats ----------------------------------------------------------- *)

let trace_stats_cmd =
  let pred_arg =
    let doc = "Task prediction accuracy for the window-span series." in
    Arg.(value & opt float 1.0 & info [ "pred" ] ~doc)
  in
  let run only level jobs pus pred =
    let entries = suite_of only in
    let per_workload =
      Harness.Pool.map ?jobs
        (fun (e : Workloads.Registry.entry) ->
          let art = Harness.Artifact.get store ~level e in
          let trace = art.Harness.Artifact.trace in
          let plan = art.Harness.Artifact.plan in
          let parts =
            Array.map
              (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
              trace.Interp.Trace.fnames
          in
          let tasks = Sim.Dyntask.chop trace ~parts in
          let span =
            Report.Window_span.measured ~num_pus:pus ~pred trace ~tasks
          in
          ( e.Workloads.Registry.name,
            Interp.Trace.stats trace,
            trace.Interp.Trace.dyn_insns,
            Array.length tasks,
            span ))
        entries
    in
    Printf.printf "%-10s %9s %9s %9s %6s %6s %6s %8s %8s %7s %8s\n"
      "workload" "events" "insns" "addrs" "w/ev" "boxed" "ratio" "KB"
      "alloc-KW" "tasks" "span";
    let tot_ev = ref 0 in
    let tot_heap = ref 0 in
    let tot_boxed = ref 0 in
    let tot_alloc = ref 0 in
    let tot_boxed_alloc = ref 0 in
    let kw words = float_of_int words /. 1024.0 in
    List.iter
      (fun (name, (s : Interp.Trace.mem_stats), insns, tasks, span) ->
        tot_ev := !tot_ev + s.Interp.Trace.events;
        tot_heap := !tot_heap + s.Interp.Trace.heap_words;
        tot_boxed := !tot_boxed + s.Interp.Trace.boxed_words;
        tot_alloc := !tot_alloc + s.Interp.Trace.build_alloc_words;
        tot_boxed_alloc := !tot_boxed_alloc + s.Interp.Trace.boxed_alloc_words;
        let per f = float_of_int f /. float_of_int (max 1 s.Interp.Trace.events) in
        Printf.printf
          "%-10s %9d %9d %9d %6.2f %6.2f %5.1fx %8.1f %8.1f %7d %8.0f\n"
          name s.Interp.Trace.events insns
          s.Interp.Trace.addrs
          (per s.Interp.Trace.heap_words)
          (per s.Interp.Trace.boxed_words)
          (float_of_int s.Interp.Trace.boxed_words
          /. float_of_int (max 1 s.Interp.Trace.heap_words))
          (float_of_int (s.Interp.Trace.heap_words * (Sys.word_size / 8))
          /. 1024.0)
          (kw s.Interp.Trace.build_alloc_words)
          tasks span)
      per_workload;
    Printf.printf
      "total: %d events, %d packed words (%.2f w/ev) vs %d boxed (%.2f w/ev), \
       %.1fx; build churn %.1f KW vs %.1f KW boxed; store holds %.1f KB of \
       traces\n"
      !tot_ev !tot_heap
      (float_of_int !tot_heap /. float_of_int (max 1 !tot_ev))
      !tot_boxed
      (float_of_int !tot_boxed /. float_of_int (max 1 !tot_ev))
      (float_of_int !tot_boxed /. float_of_int (max 1 !tot_heap))
      (kw !tot_alloc) (kw !tot_boxed_alloc)
      (float_of_int (Harness.Artifact.trace_bytes store) /. 1024.0)
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:"Memory statistics of the packed dynamic traces")
    Term.(const run $ workloads_filter $ level_arg $ jobs_arg $ pus_arg
          $ pred_arg)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    let doc = "Corpus root seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let n_arg =
    let doc = "Number of programs (spread round-robin over the profiles)." in
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N" ~doc)
  in
  let profile_arg =
    let doc =
      "Comma-separated subset of corpus profiles (default: the whole \
       Workloads.Synth family)."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"NAMES" ~doc)
  in
  let level_opt_arg =
    let doc = "Restrict to one heuristic level (default: all four + fb)." in
    Arg.(value & opt (some level_conv) None & info [ "l"; "level" ] ~doc)
  in
  let ref_sample_arg =
    let doc =
      "Run the frozen sim_ref cycle differential on every $(docv)-th \
       program (0 disables it)."
    in
    Arg.(value & opt int 10 & info [ "ref-sample" ] ~docv:"K" ~doc)
  in
  let out_arg =
    let doc = "Directory for minimized reproducer dumps." in
    Arg.(value & opt string "fuzz-reproducers"
         & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let fuzz_json_arg =
    let doc =
      "Export the per-profile fuzz records as JSON to $(docv) (the \
       results.json object shape, with a \"fuzz\" section)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let inject_arg =
    let doc =
      "Debug: inject a known divide-by-zero fault into every program — the \
       harness must catch it, shrink it and dump a reproducer (the run \
       exits non-zero by design)."
    in
    Arg.(value & flag & info [ "inject-fault" ] ~doc)
  in
  let run seed n profile level ref_sample jobs out json inject =
    let profiles =
      match profile with
      | None -> Workloads.Synth.Profile.all
      | Some names ->
        List.map
          (fun name ->
            match Workloads.Synth.Profile.find (String.trim name) with
            | Some p -> p
            | None ->
              Printf.eprintf "msc: unknown fuzz profile %S\n" name;
              exit 2)
          (String.split_on_char ',' names)
    in
    let levels =
      match level with
      | None -> Core.Heuristics.extended_levels
      | Some l -> [ l ]
    in
    let cfg =
      { Fuzz.default_config with Fuzz.seed; n; profiles; levels; ref_sample }
    in
    if inject then Fuzz.fault_hook := Some (Fuzz.inject_div0 ~seed);
    let progress ~done_ ~total =
      Printf.eprintf "\rfuzz: %d/%d programs%!" done_ total
    in
    let o = Fuzz.run ?jobs ~progress cfg in
    Printf.eprintf "\r%!";
    Printf.printf "%-13s %5s %5s %5s %6s %5s %6s %5s %5s %5s %5s %7s\n"
      "profile" "progs" "lint" "rt" "trace" "dep" "absint" "acct" "cost" "fb"
      "ref" "viol";
    List.iter
      (fun (r : Harness.Job.fuzz) ->
        Printf.printf
          "%-13s %5d %5d %5d %6d %5d %6d %5d %5d %5d %2d/%-2d %7d\n"
          r.Harness.Job.z_profile r.Harness.Job.z_programs
          r.Harness.Job.z_lint_pass r.Harness.Job.z_roundtrip_pass
          r.Harness.Job.z_trace_pass r.Harness.Job.z_dep_pass
          r.Harness.Job.z_absint_pass r.Harness.Job.z_acct_pass
          r.Harness.Job.z_cost_pass r.Harness.Job.z_fb_bound_pass
          r.Harness.Job.z_ref_pass r.Harness.Job.z_ref_checked
          r.Harness.Job.z_violations)
      o.Fuzz.o_records;
    (* structure-space coverage: generated shapes summed per profile *)
    Printf.printf "\n%-13s %6s %6s %6s %6s\n" "profile" "progs" "funcs"
      "blocks" "insns";
    List.iter
      (fun (name, (s : Fuzz.shape)) ->
        Printf.printf "%-13s %6d %6d %6d %6d\n" name s.Fuzz.s_programs
          s.Fuzz.s_funcs s.Fuzz.s_blocks s.Fuzz.s_insns)
      o.Fuzz.o_shapes;
    Printf.printf
      "fuzz: %d programs x %d levels (seed %d), %d oracle passes, %d \
       violations, %.1fs\n"
      o.Fuzz.o_programs (List.length levels) seed o.Fuzz.o_checks
      (List.length o.Fuzz.o_violations) o.Fuzz.o_wall_seconds;
    (match json with
    | None -> ()
    | Some path ->
      write_json path (Harness.Job.document ~fuzz:o.Fuzz.o_records []);
      Printf.printf "wrote %s (%d fuzz records)\n" path
        (List.length o.Fuzz.o_records));
    match o.Fuzz.o_violations with
    | [] -> Fuzz.fault_hook := None
    | v :: _ ->
      List.iteri
        (fun i v -> if i < 10 then print_endline (Fuzz.violation_text v))
        o.Fuzz.o_violations;
      let extra = List.length o.Fuzz.o_violations - 10 in
      if extra > 0 then Printf.printf "(+%d more violations)\n" extra;
      (* shrink the first offender and leave a reproducer behind *)
      (match Workloads.Synth.Profile.find v.Fuzz.v_profile with
      | None -> ()
      | Some profile ->
        let prog = Workloads.Synth.generate ~profile ~seed:v.Fuzz.v_seed in
        let prog =
          match !Fuzz.fault_hook with Some f -> f prog | None -> prog
        in
        let fails = Fuzz.fails_oracle cfg ~oracle:v.Fuzz.v_oracle in
        if fails prog then begin
          let small = Fuzz.minimize ~fails prog in
          let name =
            Printf.sprintf "%s-%d-%s" v.Fuzz.v_profile v.Fuzz.v_index
              v.Fuzz.v_oracle
          in
          match Fuzz.dump_reproducer ~dir:out ~name small with
          | Ok path ->
            Printf.printf "reproducer: %s (%d insns, shrunk from %d)\n" path
              (Ir.Prog.static_size small)
              (Ir.Prog.static_size prog)
          | Error msg -> Printf.printf "reproducer dump failed: %s\n" msg
        end
        else
          Printf.printf
            "note: first violation does not reproduce standalone (profile \
             %s, seed %d)\n"
            v.Fuzz.v_profile v.Fuzz.v_seed);
      Fuzz.fault_hook := None;
      exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing over the synthetic corpus: every program \
          through every heuristic level with lint, round-trip, dep/sound, \
          the absint refinement audit, acct/conserve, cost, the fb cost \
          bound and the frozen sim_ref cycle differential as oracles; \
          violations are shrunk to a dumped reproducer and the exit status \
          is non-zero")
    Term.(const run $ seed_arg $ n_arg $ profile_arg $ level_opt_arg
          $ ref_sample_arg $ jobs_arg $ out_arg $ fuzz_json_arg $ inject_arg)

(* --- table1 / figure5 ---------------------------------------------------- *)

let table1_cmd =
  let run only jobs json =
    let rows = Report.Table1.run ~store ?jobs (suite_of only) in
    Format.printf "%a@." Report.Table1.pp rows;
    export_json json
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1")
    Term.(const run $ workloads_filter $ jobs_arg $ json_arg)

let figure5_cmd =
  let run only jobs json =
    let rows = Report.Figure5.run ~store ?jobs (suite_of only) in
    Format.printf "%a@." Report.Figure5.pp rows;
    export_json json
  in
  Cmd.v (Cmd.info "figure5" ~doc:"Regenerate the paper's Figure 5")
    Term.(const run $ workloads_filter $ jobs_arg $ json_arg)

(* --- grid analyses -------------------------------------------------------- *)

(* Each analysis over the workload x level grid is defined once, in
   [analyses]: its subcommand, its `msc check` entry and the
   bench/<file>.json that entry writes are all built from that record. *)

type query = {
  entries : Workloads.Registry.entry list;
  levels : Core.Heuristics.level list;
  pus : int list;
  in_order : bool;
  jobs : int option;
  stats : bool;  (** breakdown: also print the per-cell statistics *)
  rule : string option;  (** lint: keep only diagnostics matching this glob *)
}

type outcome = {
  print : unit -> unit;  (** the text report *)
  json : Harness.Json.t;  (** the bench/<file>.json document *)
  records : string;  (** what the JSON holds, as a " (N rows)" suffix *)
  footer : string option;  (** printed after the JSON note *)
  invariants : string list;  (** failures that count on any subset *)
  claims : string list;  (** failures that count on the full grid only *)
}

let outcome ?footer ?(invariants = []) ?(claims = []) ~records ~json print =
  { print; json; records; footer; invariants; claims }

(* Which machine options a subcommand takes: none, one PU count, or a
   comma-separated list of them. *)
type machine = Fixed | One | Grid

type analysis = {
  name : string;  (** subcommand *)
  file : string;  (** `msc check` name and bench/<file>.json stem *)
  doc : string;
  levels : Core.Heuristics.level list;  (** the default grid's levels *)
  machine : machine;
  extra : (query -> query) Term.t;  (** subcommand-specific options *)
  run : query -> outcome;
}

let analyses =
  let no_extra = Term.const Fun.id in
  let num_pus q = List.hd q.pus (* [One] machines carry exactly one *) in
  [
    {
      name = "lint";
      file = "lint";
      doc =
        "Statically verify IR, partitions, register communication and \
         cross-task dependences (filter rule families with $(b,--rule))";
      levels = Core.Heuristics.all_levels;
      machine = Fixed;
      extra =
        (let doc =
           "Keep only diagnostics whose rule id matches this anchored glob \
            ($(b,*) matches any substring), e.g. $(b,dep/*) or \
            $(b,part/stale-*).  The exit status reflects the filtered set."
         in
         Term.(
           const (fun rule q -> { q with rule })
           $ Arg.(value & opt (some string) None
                  & info [ "rule" ] ~docv:"GLOB" ~doc)));
      run =
        (fun q ->
          let reports =
            Lint.check_suite ?jobs:q.jobs ~levels:q.levels ~store q.entries
          in
          let reports =
            match q.rule with
            | None -> reports
            | Some pat -> Lint.filter_rule pat reports
          in
          outcome ~records:""
            ~footer:
              (Printf.sprintf "lint: %d plans checked, %d errors"
                 (List.length reports) (Lint.total_errors reports))
            ~invariants:(Lint.invariants reports)
            ~json:(Lint.report_to_json reports)
            (fun () ->
              List.iter
                (fun (r : Lint.report) ->
                  List.iter
                    (fun d -> Format.printf "%a@." Lint.Diag.pp d)
                    r.Lint.diags;
                  let n sev = Lint.Diag.count sev r.Lint.diags in
                  let e = n Lint.Diag.Error
                  and w = n Lint.Diag.Warning
                  and i = n Lint.Diag.Info in
                  if e + w + i > 0 then
                    Printf.printf
                      "%-10s %-15s %d errors, %d warnings, %d infos\n"
                      r.Lint.workload
                      (Core.Heuristics.level_name r.Lint.level)
                      e w i)
                reports));
    };
    {
      name = "breakdown";
      file = "account";
      doc =
        "Attribute every PU-cycle of the workload grid to the paper's \
         performance issues";
      levels = Core.Heuristics.all_levels;
      machine = Grid;
      extra =
        (let doc =
           "Also print the full per-cell statistics record (Figure-2 \
            phases, predictors, memory system)."
         in
         Term.(
           const (fun stats q -> { q with stats })
           $ Arg.(value & flag & info [ "stats" ] ~doc)));
      run =
        (fun q ->
          let rows =
            Report.Breakdown.run ~store ?jobs:q.jobs ~levels:q.levels
              ~pus:q.pus ~in_order:q.in_order q.entries
          in
          outcome
            ~records:
              (Printf.sprintf " (%d breakdown records)" (List.length rows))
            ~invariants:(Report.Breakdown.invariants rows)
            ~json:(Report.Breakdown.to_json rows)
            (fun () ->
              Format.printf "%a@." Report.Breakdown.pp rows;
              Format.printf "%a@." Report.Breakdown.pp_aggregate rows;
              if q.stats then
                List.iter
                  (fun (r : Report.Experiment.run_result) ->
                    Format.printf "-- %s %s %dPU %s --@.%a@."
                      r.Report.Experiment.workload
                      (Core.Heuristics.level_name r.Report.Experiment.level)
                      r.Report.Experiment.num_pus
                      (if r.Report.Experiment.in_order then "in-order"
                       else "out-of-order")
                      Sim.Stats.pp r.Report.Experiment.stats)
                  rows));
    };
    {
      name = "deps";
      file = "deps";
      doc =
        "Static cross-task dependence edges (Core.Depend) grounded against \
         the observed trace flows, with per-level correlation against the \
         data_wait/mem_squash cycle shares";
      levels = Core.Heuristics.all_levels;
      machine = One;
      extra = no_extra;
      run =
        (fun q ->
          let rows =
            Report.Deps.run ~store ?jobs:q.jobs ~levels:q.levels
              ~num_pus:(num_pus q) ~in_order:q.in_order q.entries
          in
          outcome
            ~records:
              (Printf.sprintf " (%d dependence summaries)" (List.length rows))
            ~invariants:(Report.Deps.invariants rows)
            ~json:(Report.Deps.to_json rows)
            (fun () -> Format.printf "%a@." Report.Deps.pp rows));
    };
    {
      name = "absint";
      file = "absint";
      doc =
        "Flow-sensitive refinement precision (Analysis.Absint): cross-task \
         memory edges pruned against the flow-insensitive baseline, \
         unbounded-region sites and the widest refined regions per \
         workload and level";
      levels = Core.Heuristics.all_levels;
      machine = Fixed;
      extra = no_extra;
      run =
        (fun q ->
          let rows =
            Report.Precision.run ~store ?jobs:q.jobs ~levels:q.levels
              q.entries
          in
          outcome
            ~records:(Printf.sprintf " (%d precision rows)" (List.length rows))
            ~claims:(Report.Precision.claims rows)
            ~json:(Report.Precision.to_json rows)
            (fun () -> Format.printf "%a@." Report.Precision.pp rows));
    };
    {
      name = "cost";
      file = "cost";
      doc =
        "Predicted cycle-account shares of every plan (Analysis.Cost \
         static model) joined against the measured Sim.Account shares, \
         with per-level predicted-vs-measured correlations and geomean IPC";
      levels = Core.Heuristics.extended_levels;
      machine = One;
      extra = no_extra;
      run =
        (fun q ->
          let rows =
            Report.Cost.run ~store ?jobs:q.jobs ~levels:q.levels
              ~num_pus:(num_pus q) ~in_order:q.in_order q.entries
          in
          outcome
            ~records:(Printf.sprintf " (%d cost rows)" (List.length rows))
            ~claims:(Report.Cost.claims rows)
            ~json:(Report.Cost.to_json rows)
            (fun () -> Format.printf "%a@." Report.Cost.pp rows));
    };
  ]

(* Failures go to stderr, one per line, and set a non-zero exit status. *)
let fail_on = function
  | [] -> ()
  | failures ->
    List.iter prerr_endline failures;
    exit 1

let query_term a =
  let levels =
    let doc =
      Printf.sprintf "Restrict to one heuristic level (default: all four%s)."
        (if List.mem Core.Heuristics.Feedback a.levels then " + fb" else "")
    in
    Term.(
      const (function None -> a.levels | Some l -> [ l ])
      $ Arg.(value & opt (some level_conv) None & info [ "l"; "level" ] ~doc))
  in
  let pus, in_order =
    match a.machine with
    | Fixed -> (Term.const [], Term.const false)
    | One -> (Term.(const (fun p -> [ p ]) $ pus_arg), in_order_arg)
    | Grid ->
      let positive =
        Arg.conv
          ( (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some p when p > 0 -> Ok p
              | Some _ | None ->
                Error (`Msg (Printf.sprintf "bad PU count %S" s))),
            Format.pp_print_int )
      in
      let doc = "Comma-separated PU counts of the grid." in
      ( Arg.(value & opt (list positive) Report.Breakdown.default_pus
             & info [ "p"; "pus" ] ~docv:"PUS" ~doc),
        in_order_arg )
  in
  let make only levels pus in_order jobs extra =
    extra
      { entries = suite_of only; levels; pus; in_order; jobs; stats = false;
        rule = None }
  in
  Term.(const make $ workloads_filter $ levels $ pus $ in_order $ jobs_arg
        $ a.extra)

(* The subcommand applies the analysis's invariants on every run; its suite
   claims only mean something on the full grid, so `msc check` owns them. *)
let analysis_cmd a =
  let json_arg =
    let doc =
      Printf.sprintf "Export the report as JSON to $(docv) (same shape as \
                      bench/%s.json)." a.file
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run q json =
    let o = a.run q in
    o.print ();
    Option.iter
      (fun path ->
        write_json path o.json;
        Printf.printf "wrote %s%s\n" path o.records)
      json;
    Option.iter print_endline o.footer;
    fail_on o.invariants
  in
  Cmd.v (Cmd.info a.name ~doc:a.doc) Term.(const run $ query_term a $ json_arg)

(* The full default grid of an analysis: every workload, its default
   levels, the default machines. *)
let full_query a =
  {
    entries = Workloads.Suite.all;
    levels = a.levels;
    pus =
      (match a.machine with
      | Fixed -> []
      | One -> [ 8 ]
      | Grid -> Report.Breakdown.default_pus);
    in_order = false;
    jobs = None;
    stats = false;
    rule = None;
  }

(* The fuzz corpus is not a grid analysis, but its gate and its committed
   bench/fuzz.json ride along in `msc check`. *)
let fuzz_check () =
  let o = Fuzz.run Fuzz.default_config in
  outcome
    ~records:(Printf.sprintf " (%d fuzz records)" (List.length o.Fuzz.o_records))
    ~invariants:(Fuzz.invariants o)
    ~json:(Harness.Job.document ~fuzz:o.Fuzz.o_records [])
    ignore

let check_cmd =
  let checks =
    List.map (fun a -> (a.file, fun () -> a.run (full_query a))) analyses
    @ [ ("fuzz", fuzz_check) ]
  in
  let names_arg =
    let doc =
      Printf.sprintf "Analyses to check: %s (default: all)."
        (String.concat ", " (List.map fst checks))
    in
    Arg.(value & pos_all (enum (List.map (fun (n, _) -> (n, n)) checks)) []
         & info [] ~docv:"NAME" ~doc)
  in
  let run names =
    let names = if names = [] then List.map fst checks else names in
    let failures =
      List.concat_map
        (fun name ->
          let o = (List.assoc name checks) () in
          let path = Harness.Job.bench_path (name ^ ".json") in
          write_json path o.json;
          let failed = o.invariants @ o.claims in
          Printf.printf "check %s: wrote %s%s, %d failures\n%!" name path
            o.records (List.length failed);
          failed)
        names
    in
    fail_on failures
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the grid analyses (lint, account, deps, absint, cost) and the \
          fuzz corpus on the full default grid, write each one's \
          bench/<name>.json, and exit non-zero if any invariant or suite \
          claim fails")
    Term.(const run $ names_arg)

(* --- daemon / client ------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix domain socket path of the mscd service." in
  Arg.(value & opt string "/tmp/mscd.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc)

let daemon_cmd =
  let run socket jobs =
    let srv =
      try Service.Server.create ?jobs ~socket ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "mscd: cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        exit 1
    in
    let stop _ = Service.Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.printf "mscd: listening on %s\n%!" socket;
    Service.Server.serve srv;
    (* the drained daemon leaves its request metrics on stderr so a
       supervisor's logs capture the service's lifetime summary *)
    Printf.eprintf "mscd: drained; final stats:\n%s\n%!"
      (Harness.Json.to_string ~indent:true (Service.Server.stats_json srv))
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the persistent mscd simulation service: newline-delimited \
          JSON requests over a Unix domain socket, request-level dedup, \
          shared artifact store, work-stealing execution; SIGTERM drains \
          gracefully")
    Term.(const run $ socket_arg $ jobs_arg)

let client_cmd =
  let op_arg =
    let doc =
      "Operation: simulate, partition, deps, absint, cost, breakdown, \
       lint, fuzz, stats or shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let workload_arg =
    let doc = "Workload name (required by per-workload operations)." in
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let level_tag_arg =
    let doc = "Heuristic level tag: bb, cf, dd, ts or fb." in
    Arg.(value & opt (some string) None
         & info [ "l"; "level" ] ~docv:"LEVEL" ~doc)
  in
  let pus_arg =
    let doc = "Number of processing units." in
    Arg.(value & opt int 8 & info [ "p"; "pus" ] ~docv:"N" ~doc)
  in
  let in_order_arg =
    let doc = "In-order processing units." in
    Arg.(value & flag & info [ "in-order" ] ~doc)
  in
  let seed_opt_arg =
    let doc = "Corpus seed (fuzz operation)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let n_opt_arg =
    let doc = "Corpus size (fuzz operation; the server clamps it)." in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let profile_opt_arg =
    let doc = "Corpus profile name (fuzz operation; default: all)." in
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let run socket op workload level pus in_order seed n profile =
    let fields =
      [ ("op", Harness.Json.String op) ]
      @ (match workload with
        | Some w -> [ ("workload", Harness.Json.String w) ]
        | None -> [])
      @ (match level with
        | Some l -> [ ("level", Harness.Json.String l) ]
        | None -> [])
      @ (match seed with
        | Some s -> [ ("seed", Harness.Json.Int s) ]
        | None -> [])
      @ (match n with
        | Some n -> [ ("n", Harness.Json.Int n) ]
        | None -> [])
      @ (match profile with
        | Some p -> [ ("profile", Harness.Json.String p) ]
        | None -> [])
      @ [
          ("num_pus", Harness.Json.Int pus);
          ("in_order", Harness.Json.Bool in_order);
        ]
    in
    match
      Service.Protocol.parse_request
        (Harness.Json.to_string ~indent:false (Harness.Json.Obj fields))
    with
    | Error msg ->
      Printf.eprintf "msc client: %s\n" msg;
      exit 2
    | Ok { Service.Protocol.op; _ } -> (
      let c =
        try Service.Client.connect ~socket
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "msc client: cannot connect to %s: %s\n" socket
            (Unix.error_message e);
          exit 1
      in
      let r = Service.Client.request c op in
      Service.Client.close c;
      match r with
      | Ok json -> print_endline (Harness.Json.to_string ~indent:true json)
      | Error msg ->
        Printf.eprintf "msc client: %s\n" msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running mscd service and print the response")
    Term.(const run $ socket_arg $ op_arg $ workload_arg $ level_tag_arg
          $ pus_arg $ in_order_arg $ seed_opt_arg $ n_opt_arg
          $ profile_opt_arg)

let main =
  let info =
    Cmd.info "msc"
      ~doc:"Multiscalar task selection (Sohi & Vijaykumar, MICRO-31) reproduction"
  in
  Cmd.group info
    ([
       list_cmd; run_cmd; dump_cmd; trace_stats_cmd; fuzz_cmd; table1_cmd;
       figure5_cmd; check_cmd; run_file_cmd; export_cmd; dot_cmd;
       superscalar_cmd; timeline_cmd; daemon_cmd; client_cmd;
     ]
    @ List.map analysis_cmd analyses)

let () = exit (Cmd.eval main)
