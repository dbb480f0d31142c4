(* Running the paper's experiments over the workload suite.

   All runners share one shape: resolve the pipeline artifact (built
   program, partition plan, dynamic trace) from a Harness.Artifact store —
   memoized, domain-safe, computed once per (workload, level) — then time
   any number of machine configurations against the shared plan and
   trace. *)

type run_result = {
  workload : string;
  kind : Workloads.Registry.kind;
  level : Core.Heuristics.level;
  num_pus : int;
  in_order : bool;
  stats : Sim.Stats.t;
}

(* Share the plan and trace across machine configurations of one level. *)
let run_level_configs ~store ~level ~configs entry =
  let art = Harness.Artifact.get store ~level entry in
  List.map
    (fun (num_pus, in_order) ->
      {
        workload = entry.Workloads.Registry.name;
        kind = entry.Workloads.Registry.kind;
        level;
        num_pus;
        in_order;
        stats = Harness.Artifact.sim store art ~num_pus ~in_order;
      })
    configs

let run_one ~store ~level ~num_pus ~in_order entry =
  match
    run_level_configs ~store ~level ~configs:[ (num_pus, in_order) ] entry
  with
  | [ r ] -> r
  | _ -> assert false
