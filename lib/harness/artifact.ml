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

(* The six tables are Memo tables, so each key is computed once even
   when scheduler workers request it at once, and a failed computation
   is retried by the next request.  Deadlock-freedom: the only cross-key
   waits go get -> prep -> sim, get -> sources, get -> run and get ->
   programs (never backwards), and neither a source's, a run's nor a
   record's computation waits on anything, so the wait graph is
   acyclic. *)
type t = {
  pipeline : (key, artifact) Memo.t;
  (* source programs by (workload, profile input, variant): each workload
     input is built, and the variant's transforms run on it, once per
     store; every pass returns a new program and mutates none it is
     given, so pipelines share them *)
  sources : (string * bool * variant, Ir.Prog.t) Memo.t;
  (* interpreter outcomes by structural program digest: a program whose
     trace some artifact holds is interpreted once per store, and its
     profiling runs for other levels reuse it.  Only the runs behind
     artifacts' traces land here, so the table holds no trace that no
     artifact holds. *)
  runs : (Digest.t, Interp.Run.outcome) Memo.t;
  (* program records by the digest of the program given to the lookup,
     before hoisting, under the same rule: only the records of artifacts'
     plans land here *)
  programs : (Digest.t, Core.Partition.program) Memo.t;
  (* configuration-independent Sim.Engine.prep per pipeline artifact,
     shared by every machine configuration simulated against it *)
  preps : (key, Sim.Engine.prep) Memo.t;
  sims : (key * int * bool, Sim.Stats.t) Memo.t;
  builds : int Atomic.t;
  (* machines the cells of running grids finished with, and the number of
     running grids; both change only under [lending], and the list is
     dropped when the last running grid returns *)
  lending : Mutex.t;
  mutable idle : Sim.Engine.machine list;
  running : int Atomic.t;
}

let create () =
  {
    pipeline = Memo.create 64;
    sources = Memo.create 64;
    runs = Memo.create 64;
    programs = Memo.create 64;
    preps = Memo.create 64;
    sims = Memo.create 256;
    builds = Atomic.make 0;
    lending = Mutex.create ();
    idle = [];
    running = Atomic.make 0;
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
      (* the variant's front-end transforms are structure-only and
         deterministic, so the training program keeps the evaluated one's
         block labels and function names *)
      let source alt =
        memo t.sources (entry.Workloads.Registry.name, alt, variant) (fun () ->
            let p =
              if alt then entry.Workloads.Registry.build_alt ()
              else entry.Workloads.Registry.build ()
            in
            let p = if variant.optimize then Opt.Pipeline.run p else p in
            if variant.if_convert then Core.Transform.if_convert_program p else p)
      in
      let prog = source false in
      let profile_input = if profile_alt then Some (source true) else None in
      (* a profiling run or a program record takes a landed or in-flight
         value, but one this pipeline makes itself stays its own until its
         plan lands: a callee-size run, or a losing fb seed's run or
         record, would be kept with no artifact holding it *)
      let lookup tbl own make p =
        let d = digest p in
        match Memo.find tbl d with
        | Some v -> v
        | None -> (
          match List.assoc_opt d !own with
          | Some v -> v
          | None ->
            let v = make p in
            own := (d, v) :: !own;
            v)
      in
      let own_runs = ref [] and own_programs = ref [] in
      let plan =
        Core.Cost.plan_for_level ~params ?profile_input
          ~run:(lookup t.runs own_runs Interp.Run.execute)
          ~program:(lookup t.programs own_programs Core.Partition.hoist)
          level prog
      in
      List.iter
        (fun (d, r) ->
          if r == plan.Core.Partition.program then
            ignore (memo t.programs d (fun () -> r)))
        !own_programs;
      let d = digest plan.Core.Partition.prog in
      let outcome =
        memo t.runs d (fun () ->
            match List.assoc_opt d !own_runs with
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

(* An idle machine of [cfg] while a grid runs, else a fresh one; no lock
   is taken while none runs *)
let borrow t cfg =
  let lent =
    if Atomic.get t.running = 0 then None
    else
      Mutex.protect t.lending (fun () ->
          let fits m = Sim.Engine.config m = cfg in
          let m = List.find_opt fits t.idle in
          Option.iter (fun m -> t.idle <- List.filter (( != ) m) t.idle) m;
          m)
  in
  match lent with Some m -> m | None -> Sim.Engine.machine cfg

let give_back t m =
  if Atomic.get t.running > 0 then
    Mutex.protect t.lending (fun () ->
        if Atomic.get t.running > 0 then t.idle <- m :: t.idle)

let sim t (art : artifact) ~num_pus ~in_order =
  let p = prep t art in
  memo t.sims (art.key, num_pus, in_order) (fun () ->
      let m = borrow t (Sim.Config.default ~num_pus ~in_order) in
      let r = Sim.Engine.run_on m p art.trace in
      give_back t m;
      r.Sim.Engine.stats)

let grid t ?jobs ~levels entries f =
  Mutex.protect t.lending (fun () -> Atomic.incr t.running);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lending (fun () ->
          if Atomic.fetch_and_add t.running (-1) = 1 then t.idle <- []))
    (fun () ->
      Pool.map ?jobs
        (fun (entry, level) -> f (get t ~level entry))
        (List.concat_map
           (fun entry -> List.map (fun level -> (entry, level)) levels)
           entries))

let builds t = Atomic.get t.builds
let programs t = List.length (Memo.bindings t.programs)

let idle_machines t =
  Mutex.protect t.lending (fun () -> List.length t.idle)

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
