(* Cycle-accounting breakdown: where every PU-cycle of the grid went, per
   workload × task-selection heuristic × machine configuration — the §2
   performance issues (control squash, data wait, memory squash, load
   imbalance, overhead) plus useful work and idleness, as percentages of
   the machine's cycle budget (PUs × total cycles). *)

(* one (workload, level) pipeline simulated on one machine *)
type row = {
  workload : string;
  kind : Workloads.Registry.kind;
  level : Core.Heuristics.level;
  num_pus : int;
  in_order : bool;
  stats : Sim.Stats.t;
}

let default_pus = [ 1; 2; 4; 8 ]

let run ~store ?jobs ?(levels = Core.Heuristics.all_levels)
    ?(pus = default_pus) ?(in_order = false) entries =
  List.concat
    (Harness.Artifact.grid store ?jobs ~levels entries (fun art ->
         let key = art.Harness.Artifact.key in
         List.map
           (fun num_pus ->
             {
               workload = key.Harness.Artifact.workload;
               kind = art.Harness.Artifact.kind;
               level = key.Harness.Artifact.level;
               num_pus;
               in_order;
               stats = Harness.Artifact.sim store art ~num_pus ~in_order;
             })
           pus))

let accounts rows =
  List.map
    (fun r ->
      Harness.Job.account_of_stats
        {
          Harness.Job.workload = r.workload;
          level = r.level;
          num_pus = r.num_pus;
          in_order = r.in_order;
        }
        ~kind:r.kind r.stats)
    rows

let to_json rows = Harness.Job.accounts_to_json (accounts rows)

(* Whole-suite totals per (level, PUs, issue discipline) cell, folded into
   one Account each: a 1-"PU" account whose cycle budget is the sum of the
   member budgets, so percentages and the conservation check carry over. *)
let aggregate rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.level, r.num_pus, r.in_order) in
      let acc =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
          let a = Sim.Account.create () in
          a.Sim.Account.pus <- 1;
          Hashtbl.replace tbl key a;
          a
      in
      let src = r.stats.Sim.Stats.acct in
      List.iter
        (fun c -> Sim.Account.add acc c (Sim.Account.get src c))
        Sim.Account.all;
      acc.Sim.Account.cycles <- acc.Sim.Account.cycles + Sim.Account.budget src)
    rows;
  let machines =
    List.sort_uniq compare (List.map (fun r -> (r.num_pus, r.in_order)) rows)
  in
  List.filter_map
    (fun key -> Option.map (fun a -> (key, a)) (Hashtbl.find_opt tbl key))
    (List.concat_map
       (fun level ->
         List.map (fun (p, io) -> (level, p, io)) machines)
       Core.Heuristics.all_levels)

let category_tag = function
  | Sim.Account.Useful -> "useful"
  | Sim.Account.Ctrl_squash -> "ctrl"
  | Sim.Account.Data_wait -> "data"
  | Sim.Account.Mem_squash -> "mem"
  | Sim.Account.Load_imbalance -> "imbal"
  | Sim.Account.Overhead -> "ovh"
  | Sim.Account.Idle -> "idle"

let ord_name in_order = if in_order then "io" else "ooo"

(* Invariant (holds on any subset of the grid): every record's categories
   sum to exactly PUs x cycles. *)
let invariants rows =
  List.filter_map
    (fun r ->
      match Sim.Account.check r.stats.Sim.Stats.acct with
      | Ok () -> None
      | Error msg ->
        Some
          (Printf.sprintf "acct/conserve: %s %s %dPU %s: %s" r.workload
             (Harness.Job.level_tag r.level)
             r.num_pus (ord_name r.in_order) msg))
    rows

let pp_category_header ppf =
  List.iter
    (fun c -> Format.fprintf ppf " %6s" (category_tag c))
    Sim.Account.all

let pp_acct_row ppf acct =
  List.iter
    (fun c -> Format.fprintf ppf " %6.1f" (Sim.Account.pct acct c))
    Sim.Account.all

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Cycle accounting: %% of the PU-cycle budget by category@,";
  Format.fprintf ppf "%-10s %-3s %3s %4s %10s" "workload" "lvl" "pus" "ord"
    "cycles";
  pp_category_header ppf;
  Format.fprintf ppf "@,";
  List.iter
    (fun r ->
      let acct = r.stats.Sim.Stats.acct in
      Format.fprintf ppf "%-10s %-3s %3d %4s %10d" r.workload
        (Harness.Job.level_tag r.level)
        r.num_pus (ord_name r.in_order) acct.Sim.Account.cycles;
      pp_acct_row ppf acct;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let pp_aggregate ppf rows =
  Format.fprintf ppf
    "@[<v>Suite-wide cycle accounting: %% of the summed PU-cycle budget@,";
  Format.fprintf ppf "%-3s %3s %4s %14s" "lvl" "pus" "ord" "budget";
  pp_category_header ppf;
  Format.fprintf ppf "@,";
  List.iter
    (fun ((level, num_pus, in_order), acct) ->
      Format.fprintf ppf "%-3s %3d %4s %14d"
        (Harness.Job.level_tag level) num_pus
        (ord_name in_order)
        (Sim.Account.budget acct);
      pp_acct_row ppf acct;
      Format.fprintf ppf "@,")
    (aggregate rows);
  Format.fprintf ppf "@]"
