(* A look inside the machine: the Figure-2 time line of the paper, measured.

   Simulates one of the SPEC95-like workloads at each heuristic level on the
   8-PU machine and prints where the cycles go, using the paper's phase
   taxonomy: task start/end overhead, useful execution, inter-task
   communication delay, intra-task dependence delay, load imbalance, and
   control-flow / memory-dependence misspeculation penalties.

   Run with: dune exec examples/pipeline_trace.exe -- [workload] *)

let phase_report (s : Sim.Stats.t) =
  let pu_cycles = float_of_int s.Sim.Stats.cycles *. 8.0 in
  let pct v = 100.0 *. float_of_int v /. pu_cycles in
  Printf.printf
    "  cycles %d  IPC %.2f\n\
    \  phases (%% of all PU-cycles):\n\
    \    task start overhead  %5.1f%%\n\
    \    task end overhead    %5.1f%%\n\
    \    inter-task comm wait %5.1f%%\n\
    \    intra-task dep wait  %5.1f%%\n\
    \    load imbalance       %5.1f%%\n\
    \    cf misspec penalty   %5.1f%%\n\
    \    mem misspec penalty  %5.1f%%\n\
    \  memory: %d violations, %d synchronised loads, %d ARB overflows\n\
    \  caches: L1D %.2f%% miss, L1I %.2f%% miss\n"
    s.Sim.Stats.cycles (Sim.Stats.ipc s)
    (pct s.Sim.Stats.start_overhead)
    (pct s.Sim.Stats.end_overhead)
    (pct s.Sim.Stats.inter_task_comm)
    (pct s.Sim.Stats.intra_task_dep)
    (pct s.Sim.Stats.load_imbalance)
    (pct s.Sim.Stats.cf_penalty)
    (pct s.Sim.Stats.mem_penalty)
    s.Sim.Stats.violations s.Sim.Stats.syncs s.Sim.Stats.arb_overflows
    (100.0 *. float_of_int s.Sim.Stats.l1d_misses
     /. float_of_int (max 1 s.Sim.Stats.l1d_accesses))
    (100.0 *. float_of_int s.Sim.Stats.l1i_misses
     /. float_of_int (max 1 s.Sim.Stats.l1i_accesses))

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "compress" in
  let entry = Workloads.Suite.find name in
  Printf.printf "workload: %s (%s)\n\n" name
    entry.Workloads.Registry.description;
  let store = Harness.Artifact.create () in
  List.iter
    (fun level ->
      Printf.printf "%s tasks:\n" (Core.Heuristics.level_name level);
      let art = Harness.Artifact.get store ~level entry in
      phase_report (Harness.Artifact.sim store art ~num_pus:8 ~in_order:false);
      print_newline ())
    Core.Heuristics.all_levels
