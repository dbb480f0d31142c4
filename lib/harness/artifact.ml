type variant = {
  optimize : bool;
  if_convert : bool;
}

let base_variant = { optimize = false; if_convert = false }

type key = {
  workload : string;
  level : Core.Heuristics.level;
  params : Core.Heuristics.params;
  profile_alt : bool;
  variant : variant;
}

type artifact = {
  key : key;
  kind : Workloads.Registry.kind;
  plan : Core.Partition.plan;
  trace : Interp.Trace.t;
}

(* The four tables are Memo tables, so each key is computed once even
   when scheduler workers request it at once, and a failed computation
   is retried by the next request.  Deadlock-freedom: the only cross-key
   waits go get -> prep -> sim and get -> run (never backwards), and a
   run's computation waits on nothing, so the wait graph is acyclic. *)
type t = {
  pipeline : (key, artifact) Memo.t;
  (* interpreter outcomes by structural program digest: a program whose
     trace some artifact holds is interpreted once per store, and its
     profiling runs for other levels reuse it.  Only the runs behind
     artifacts' traces land here, so the table holds no trace that no
     artifact holds. *)
  runs : (Digest.t, Interp.Run.outcome) Memo.t;
  (* configuration-independent Sim.Engine.prep per pipeline artifact,
     shared by every machine configuration simulated against it *)
  preps : (key, Sim.Engine.prep) Memo.t;
  sims : (key * int * bool, Sim.Stats.t) Memo.t;
  builds : int Atomic.t;
}

let create () =
  {
    pipeline = Memo.create 64;
    runs = Memo.create 64;
    preps = Memo.create 64;
    sims = Memo.create 256;
    builds = Atomic.make 0;
  }

let memo tbl key compute = fst (Memo.find_or_compute tbl key compute)

let digest (prog : Ir.Prog.t) =
  Digest.string (Marshal.to_string prog [ Marshal.No_sharing ])

let get t ?(params = Core.Heuristics.default) ?(profile_alt = false)
    ?(variant = base_variant) ~level (entry : Workloads.Registry.entry) =
  let key =
    { workload = entry.Workloads.Registry.name; level; params; profile_alt;
      variant }
  in
  memo t.pipeline key (fun () ->
      Atomic.incr t.builds;
      let prog = entry.Workloads.Registry.build () in
      let profile_input =
        if profile_alt then Some (entry.Workloads.Registry.build_alt ())
        else None
      in
      (* the variant's front-end transforms are structure-only and
         deterministic, so the training program keeps the evaluated one's
         block labels and function names *)
      let transform p =
        let p = if variant.optimize then Opt.Pipeline.run p else p in
        if variant.if_convert then Core.Transform.if_convert_program p else p
      in
      let prog = transform prog in
      let profile_input = Option.map transform profile_input in
      (* a profiling run takes a landed or in-flight outcome, but one it
         interprets itself stays this pipeline's: a callee-size run or a
         losing fb seed's run would keep a trace no artifact holds *)
      let own = ref [] in
      let run p =
        let d = digest p in
        match Memo.find t.runs d with
        | Some outcome -> outcome
        | None ->
          let outcome = Interp.Run.execute p in
          own := (d, outcome) :: !own;
          outcome
      in
      let plan =
        Core.Cost.plan_for_level ~params ?profile_input ~run level prog
      in
      let d = digest plan.Core.Partition.prog in
      let outcome =
        memo t.runs d (fun () ->
            match List.assoc_opt d !own with
            | Some outcome -> outcome
            | None -> Interp.Run.execute plan.Core.Partition.prog)
      in
      {
        key;
        kind = entry.Workloads.Registry.kind;
        plan;
        trace = outcome.Interp.Run.trace;
      })

let prep t (art : artifact) =
  memo t.preps art.key (fun () -> Sim.Engine.prepare art.plan art.trace)

let sim t (art : artifact) ~num_pus ~in_order =
  let p = prep t art in
  memo t.sims (art.key, num_pus, in_order) (fun () ->
      let cfg = Sim.Config.default ~num_pus ~in_order in
      (Sim.Engine.run_prepared cfg p art.trace).Sim.Engine.stats)

let grid t ?jobs ~levels entries f =
  Pool.map ?jobs
    (fun (entry, level) -> f (get t ~level entry))
    (List.concat_map
       (fun entry -> List.map (fun level -> (entry, level)) levels)
       entries)

let builds t = Atomic.get t.builds

let level_index level =
  let rec go i = function
    | [] -> invalid_arg "Artifact.level_index"
    | l :: rest -> if l = level then i else go (i + 1) rest
  in
  go 0 Core.Heuristics.extended_levels

(* the deterministic order of {!sim_results} *)
let order (k : key) =
  (k.workload, level_index k.level, k.params, k.profile_alt, k.variant)

(* every artifact's trace is the trace of one landed run, and every landed
   run's trace is some artifact's *)
let trace_bytes t =
  List.fold_left
    (fun acc (_, outcome) -> acc + Interp.Trace.bytes outcome.Interp.Run.trace)
    0 (Memo.bindings t.runs)

let sim_results t =
  List.sort
    (fun (ka, machine_a, _) (kb, machine_b, _) ->
      compare (order ka, machine_a) (order kb, machine_b))
    (List.map
       (fun ((key, num_pus, in_order), stats) ->
         (key, (num_pus, in_order), stats))
       (Memo.bindings t.sims))
