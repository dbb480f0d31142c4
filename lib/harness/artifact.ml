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

(* Exactly-once memoization under work stealing: each key owns a cell
   with its own mutex/condvar.  The store mutex only guards table
   lookup-or-insert, so the winner of a key races nobody while it
   computes and a landing broadcasts only to waiters of that key —
   not, as the old single store-wide condvar did, to every waiter of
   every key.  Failures are cached too, so every requester of a key
   sees the same exception instead of re-running a computation that
   cannot succeed.

   Deadlock-freedom: the only cross-key waits go get -> prep -> sim
   (never backwards), so the wait graph is acyclic; and a cell is
   In_flight only while some domain is actively inside [compute] — a
   waiter never waits on work that is queued but unowned. *)
type 'a cell = {
  cmu : Mutex.t;
  ccond : Condition.t;
  mutable cst : 'a outcome;  (* guarded by [cmu] *)
}

and 'a outcome = In_flight | Landed of 'a | Crashed of exn

type t = {
  mu : Mutex.t;
  pipeline : (key, artifact cell) Hashtbl.t;
  (* configuration-independent Sim.Engine.prep per pipeline artifact,
     shared by every machine configuration simulated against it *)
  preps : (key, Sim.Engine.prep cell) Hashtbl.t;
  sims : (key * int * bool, Sim.Stats.t cell) Hashtbl.t;
  mutable pipeline_builds : int;
}

let create () =
  {
    mu = Mutex.create ();
    pipeline = Hashtbl.create 64;
    preps = Hashtbl.create 64;
    sims = Hashtbl.create 256;
    pipeline_builds = 0;
  }

let memo t tbl key ?(on_miss = fun () -> ()) compute =
  Mutex.lock t.mu;
  let cell, owner =
    match Hashtbl.find_opt tbl key with
    | Some c -> (c, false)
    | None ->
      let c =
        { cmu = Mutex.create (); ccond = Condition.create ();
          cst = In_flight }
      in
      Hashtbl.replace tbl key c;
      on_miss ();
      (c, true)
  in
  Mutex.unlock t.mu;
  if owner then begin
    let outcome = try Landed (compute ()) with e -> Crashed e in
    Mutex.lock cell.cmu;
    cell.cst <- outcome;
    Condition.broadcast cell.ccond;
    Mutex.unlock cell.cmu;
    match outcome with
    | Landed v -> v
    | Crashed e -> raise e
    | In_flight -> assert false
  end
  else begin
    Mutex.lock cell.cmu;
    let rec settle () =
      match cell.cst with
      | In_flight ->
        Condition.wait cell.ccond cell.cmu;
        settle ()
      | Landed v ->
        Mutex.unlock cell.cmu;
        v
      | Crashed e ->
        Mutex.unlock cell.cmu;
        raise e
    in
    settle ()
  end

let get t ?(params = Core.Heuristics.default) ?(profile_alt = false)
    ?(variant = base_variant) ~level (entry : Workloads.Registry.entry) =
  let key =
    { workload = entry.Workloads.Registry.name; level; params; profile_alt;
      variant }
  in
  memo t t.pipeline key
    ~on_miss:(fun () -> t.pipeline_builds <- t.pipeline_builds + 1)
    (fun () ->
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
      let plan =
        Core.Cost.plan_for_level ~params ?profile_input level prog
      in
      let trace =
        (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
      in
      { key; kind = entry.Workloads.Registry.kind; plan; trace })

let prep t (art : artifact) =
  memo t t.preps art.key (fun () -> Sim.Engine.prepare art.plan art.trace)

let sim t (art : artifact) ~num_pus ~in_order =
  let p = prep t art in
  memo t t.sims (art.key, num_pus, in_order) (fun () ->
      let cfg = Sim.Config.default ~num_pus ~in_order in
      (Sim.Engine.run_prepared cfg p art.trace).Sim.Engine.stats)

let builds t =
  Mutex.lock t.mu;
  let n = t.pipeline_builds in
  Mutex.unlock t.mu;
  n

let level_index level =
  let rec go i = function
    | [] -> invalid_arg "Artifact.level_index"
    | l :: rest -> if l = level then i else go (i + 1) rest
  in
  go 0 Core.Heuristics.extended_levels

(* snapshot of a cell's outcome; locks only that cell *)
let peek cell =
  Mutex.lock cell.cmu;
  let st = cell.cst in
  Mutex.unlock cell.cmu;
  st

let traces t =
  Mutex.lock t.mu;
  let landed =
    Hashtbl.fold
      (fun key cell acc ->
        match peek cell with
        | Landed art -> (key, art.trace) :: acc
        | In_flight | Crashed _ -> acc)
      t.pipeline []
  in
  Mutex.unlock t.mu;
  List.sort
    (fun ((ka : key), _) ((kb : key), _) ->
      compare
        (ka.workload, level_index ka.level, ka.params, ka.profile_alt,
         ka.variant)
        (kb.workload, level_index kb.level, kb.params, kb.profile_alt,
         kb.variant))
    landed

let trace_bytes t =
  List.fold_left
    (fun acc (_, trace) -> acc + Interp.Trace.bytes trace)
    0 (traces t)

let sim_results t =
  Mutex.lock t.mu;
  let landed =
    Hashtbl.fold
      (fun (key, num_pus, in_order) cell acc ->
        match peek cell with
        | Landed stats -> (key, (num_pus, in_order), stats) :: acc
        | In_flight | Crashed _ -> acc)
      t.sims []
  in
  Mutex.unlock t.mu;
  List.sort
    (fun (ka, (pa, ioa), _) (kb, (pb, iob), _) ->
      compare
        (ka.workload, level_index ka.level, ka.params, ka.profile_alt,
         ka.variant, pa, ioa)
        (kb.workload, level_index kb.level, kb.params, kb.profile_alt,
         kb.variant, pb, iob))
    landed
