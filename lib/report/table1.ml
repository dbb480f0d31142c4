(* Table 1: dynamic task size, control-transfer instructions per task,
   task / per-branch misprediction rates, and window span, per benchmark,
   for basic-block, control-flow and data-dependence tasks on 8 PUs. *)

type cols = {
  dyn_inst : float;
  ct_inst : float;
  task_mispred : float;  (* % *)
  br_mispred : float;    (* % normalised per control transfer *)
  win_span : float;      (* paper's formula *)
}

type row = {
  workload : string;
  kind : Workloads.Registry.kind;
  bb : cols;
  cf : cols;
  dd : cols;
}

(* The paper normalises task prediction accuracy by the number of dynamic
   control transfers per task: an effective per-branch accuracy a_b such
   that a_b^ct = a_task. *)
let normalised_mispred ~task_mispred ~ct =
  if ct <= 0.0 then task_mispred
  else begin
    let acc = (100.0 -. task_mispred) /. 100.0 in
    if acc <= 0.0 then 100.0 else 100.0 *. (1.0 -. (acc ** (1.0 /. ct)))
  end

let cols_of_stats (s : Sim.Stats.t) ~num_pus =
  let task_mispred = Sim.Stats.task_mispredict_rate s in
  let ct = Sim.Stats.avg_ct_per_task s in
  let task_size = Sim.Stats.avg_task_size s in
  let pred = (100.0 -. task_mispred) /. 100.0 in
  {
    dyn_inst = task_size;
    ct_inst = ct;
    task_mispred;
    br_mispred = normalised_mispred ~task_mispred ~ct;
    win_span = Window_span.formula ~task_size ~pred ~num_pus;
  }

let num_pus = 8

let run ~store ?jobs entries =
  let cells =
    Array.of_list
      (Harness.Artifact.grid store ?jobs
         ~levels:
           Core.Heuristics.[ Basic_block; Control_flow; Data_dependence ]
         entries
         (fun art ->
           cols_of_stats
             (Harness.Artifact.sim store art ~num_pus ~in_order:false)
             ~num_pus))
  in
  List.mapi
    (fun i (entry : Workloads.Registry.entry) ->
      {
        workload = entry.Workloads.Registry.name;
        kind = entry.Workloads.Registry.kind;
        bb = cells.(3 * i);
        cf = cells.((3 * i) + 1);
        dd = cells.((3 * i) + 2);
      })
    entries

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Table 1: task size, control transfers, misprediction and window \
     span (8 PUs)@,@,";
  Format.fprintf ppf
    "%-10s | %6s %6s %6s | %6s %6s %6s %6s %6s | %6s %6s %6s %6s %6s@,"
    "bench" "#dyn" "tpred%" "wspan" "#dyn" "#ct" "tpred%" "bpred%" "wspan"
    "#dyn" "#ct" "tpred%" "bpred%" "wspan";
  Format.fprintf ppf
    "%-10s | %20s | %34s | %34s@," "" "basic block" "control flow"
    "data dependence";
  List.iter
    (fun row ->
      Format.fprintf ppf
        "%-10s | %6.1f %6.1f %6.0f | %6.1f %6.2f %6.1f %6.1f %6.0f | %6.1f \
         %6.2f %6.1f %6.1f %6.0f@,"
        row.workload row.bb.dyn_inst row.bb.task_mispred row.bb.win_span
        row.cf.dyn_inst row.cf.ct_inst row.cf.task_mispred row.cf.br_mispred
        row.cf.win_span row.dd.dyn_inst row.dd.ct_inst row.dd.task_mispred
        row.dd.br_mispred row.dd.win_span)
    rows;
  Format.fprintf ppf "@]"
