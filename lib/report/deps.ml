(* Static dependence analysis vs dynamic cost: the Core.Depend edge counts
   per workload × heuristic level, grounded against the observed trace
   flows, side by side with the data_wait / mem_squash shares of the
   default 8-PU out-of-order machine — and, per level, the Pearson
   correlation between static edge density and those dynamic penalty
   categories.  The paper's data-dependence heuristic (§3.3) is exactly a
   bet that the static edges predict the dynamic stalls. *)

type row = {
  dep : Harness.Job.dep;
  num_pus : int;           (** machine the dynamic shares come from *)
  in_order : bool;
  data_wait_pct : float;   (** of the machine's cycle budget *)
  mem_squash_pct : float;
}

let run ~store ?jobs ?(levels = Core.Heuristics.all_levels) ?(num_pus = 8)
    ?(in_order = false) entries =
  Harness.Artifact.grid store ?jobs ~levels entries (fun art ->
      let dep = Harness.Job.dep_of_artifact art in
      let stats = Harness.Artifact.sim store art ~num_pus ~in_order in
      let acct = stats.Sim.Stats.acct in
      {
        dep;
        num_pus;
        in_order;
        data_wait_pct = Sim.Account.pct acct Sim.Account.Data_wait;
        mem_squash_pct = Sim.Account.pct acct Sim.Account.Mem_squash;
      })

(* Invariant (holds on any subset of the grid): every observed cross-task
   store->load flow is statically predicted. *)
let invariants rows =
  List.filter_map
    (fun r ->
      match Harness.Job.dep_violations r.dep with
      | 0 -> None
      | n ->
        Some
          (Printf.sprintf
             "dep/sound: %s %s: %d observed dependences not statically \
              predicted"
             r.dep.Harness.Job.d_workload
             (Harness.Job.level_tag r.dep.Harness.Job.d_level)
             n))
    rows

(* Fraction of predicted store→load task pairs never observed in the
   trace — the cost of over-approximating. *)
let imprecision (d : Harness.Job.dep) =
  if d.Harness.Job.d_mem_edges = 0 then 0.0
  else
    float_of_int (d.Harness.Job.d_mem_edges - d.Harness.Job.d_predicted_hit)
    /. float_of_int d.Harness.Job.d_mem_edges

(* Static cross-task edge density (register + memory edges per task)
   against the summed dynamic dependence penalty, one sample per workload,
   correlated within each heuristic level. *)
let correlation rows =
  List.filter_map
    (fun level ->
      let pts =
        List.filter_map
          (fun r ->
            let d = r.dep in
            if d.Harness.Job.d_level <> level || d.Harness.Job.d_tasks = 0 then
              None
            else
              Some
                ( float_of_int
                    (d.Harness.Job.d_reg_edges + d.Harness.Job.d_mem_edges)
                  /. float_of_int d.Harness.Job.d_tasks,
                  r.data_wait_pct +. r.mem_squash_pct ))
          rows
      in
      if pts = [] then None
      else Some (level, List.length pts, Harness.Stat.pearson pts))
    Core.Heuristics.extended_levels

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Static cross-task dependences vs dynamic penalties@,";
  Format.fprintf ppf "%-10s %-3s %6s %6s %6s %6s %6s %5s %7s %6s %6s@,"
    "workload" "lvl" "tasks" "regE" "memE" "obs" "hit" "viol" "unobs%" "data%"
    "mem%";
  List.iter
    (fun r ->
      let d = r.dep in
      Format.fprintf ppf "%-10s %-3s %6d %6d %6d %6d %6d %5d %7.1f %6.1f %6.1f@,"
        d.Harness.Job.d_workload
        (Harness.Job.level_tag d.Harness.Job.d_level)
        d.Harness.Job.d_tasks d.Harness.Job.d_reg_edges
        d.Harness.Job.d_mem_edges d.Harness.Job.d_observed
        d.Harness.Job.d_predicted_hit
        (Harness.Job.dep_violations d)
        (100.0 *. imprecision d)
        r.data_wait_pct r.mem_squash_pct)
    rows;
  Format.fprintf ppf
    "@,Pearson r: static edges/task vs data_wait+mem_squash share@,";
  List.iter
    (fun (level, n, r) ->
      Format.fprintf ppf "  %-3s over %2d workloads: %+.3f@,"
        (Harness.Job.level_tag level) n r)
    (correlation rows);
  Format.fprintf ppf "@]"

let to_json rows =
  Harness.Json.Obj
    [
      ( "deps",
        Harness.Json.List
          (List.map
             (fun r ->
               match Harness.Job.dep_to_json r.dep with
               | Harness.Json.Obj fields ->
                 Harness.Json.Obj
                   (fields
                   @ [
                       ("num_pus", Harness.Json.Int r.num_pus);
                       ("in_order", Harness.Json.Bool r.in_order);
                       ("data_wait_pct", Harness.Json.Float r.data_wait_pct);
                       ("mem_squash_pct", Harness.Json.Float r.mem_squash_pct);
                     ])
               | j -> j)
             rows) );
      ( "correlation",
        Harness.Json.List
          (List.map
             (fun (level, n, r) ->
               Harness.Json.Obj
                 [
                   ("level", Harness.Json.String (Harness.Job.level_tag level));
                   ("points", Harness.Json.Int n);
                   ("pearson", Harness.Json.Float r);
                 ])
             (correlation rows)) );
    ]
