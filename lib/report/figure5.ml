(* Figure 5: IPC of the four task-selection schemes on 4 and 8 PUs, with
   out-of-order and in-order PUs, for the integer and fp benchmarks. *)

type row = {
  workload : string;
  kind : Workloads.Registry.kind;
  (* ipc.(level_index).(config_index); configs fixed as
     [4PU ooo; 8PU ooo; 4PU io; 8PU io] *)
  ipc : float array array;
}

let configs = [ (4, false); (8, false); (4, true); (8, true) ]
let config_names = [ "4PU/ooo"; "8PU/ooo"; "4PU/io"; "8PU/io" ]

let levels = Core.Heuristics.all_levels

let run ~store ?jobs entries =
  let cells =
    Array.of_list
      (Harness.Artifact.grid store ?jobs ~levels entries (fun art ->
           Array.of_list
             (List.map
                (fun (num_pus, in_order) ->
                  Sim.Stats.ipc
                    (Harness.Artifact.sim store art ~num_pus ~in_order))
                configs)))
  in
  let n = List.length levels in
  List.mapi
    (fun i (entry : Workloads.Registry.entry) ->
      {
        workload = entry.Workloads.Registry.name;
        kind = entry.Workloads.Registry.kind;
        ipc = Array.sub cells (i * n) n;
      })
    entries

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 5: IPC by task-selection heuristic (rows) and machine \
     configuration@,";
  List.iteri
    (fun ci cname ->
      Format.fprintf ppf "@,-- %s --@," cname;
      Format.fprintf ppf "%-10s %6s %6s %6s %6s   %s@," "bench" "bb" "cf" "dd"
        "ts" "gain cf/bb dd/cf ts/dd";
      List.iter
        (fun row ->
          let v l = row.ipc.(l).(ci) in
          let gain a b = if a <= 0.0 then 0.0 else 100.0 *. (b -. a) /. a in
          Format.fprintf ppf "%-10s %6.2f %6.2f %6.2f %6.2f   %+5.1f%% %+5.1f%% %+5.1f%%@,"
            row.workload (v 0) (v 1) (v 2) (v 3)
            (gain (v 0) (v 1))
            (gain (v 1) (v 2))
            (gain (v 2) (v 3)))
        rows)
    config_names;
  Format.fprintf ppf "@]"

(* Per machine, the geometric-mean IPC gains of cf, dd and ts over bb for
   the int and the fp rows.  A kind with no rows is left out: the
   geometric mean of nothing is 0, which would read as a -100% gain. *)
let pp_gains ppf rows =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun ci cname ->
      Format.fprintf ppf
        (if ci = 0 then "@,-- %s --" else "@,@,-- %s --")
        cname;
      List.iter
        (fun (kname, kind) ->
          match List.filter (fun r -> r.kind = kind) rows with
          | [] -> ()
          | rs ->
            let gain li =
              100.0
              *. (Harness.Stat.geomean
                    (List.map
                       (fun r -> r.ipc.(li).(ci) /. max 1e-9 r.ipc.(0).(ci))
                       rs)
                 -. 1.0)
            in
            Format.fprintf ppf "@,%-4s: cf %+.1f%%  dd %+.1f%%  ts %+.1f%%"
              kname (gain 1) (gain 2) (gain 3))
        [ ("int", `Int); ("fp", `Fp) ])
    config_names;
  Format.fprintf ppf "@]"
