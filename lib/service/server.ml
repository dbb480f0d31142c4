module Json = Harness.Json
module Job = Harness.Job
module Hist = Harness.Stat.Histogram

type t = {
  socket : string;
  listen_fd : Unix.file_descr;
  jobs : int;
  sched : Sched.t option; (* None when jobs = 1 *)
  store : Harness.Artifact.t;
  draining : bool Atomic.t;
  dedup : (string, Json.t) Harness.Memo.t;
      (* request-level dedup: equal keys share one computation *)
  mu : Mutex.t; (* guards everything below *)
  latency : Hist.t;
  mutable requests : int;
  mutable dedup_hits : int;
  mutable errors : int;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

let create ?jobs ~socket () =
  let jobs =
    match jobs with
    | Some j -> min (max 1 j) (Domain.recommended_domain_count ())
    | None -> Harness.Pool.default_jobs ()
  in
  (match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (* stale socket from a dead daemon; bind would fail on it *)
    (try Unix.unlink socket with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  {
    socket;
    listen_fd;
    jobs;
    sched = (if jobs >= 2 then Some (Harness.Pool.scheduler ~jobs) else None);
    store = Harness.Artifact.create ();
    draining = Atomic.make false;
    dedup = Harness.Memo.create 64;
    mu = Mutex.create ();
    latency = Hist.create ();
    requests = 0;
    dedup_hits = 0;
    errors = 0;
    conns = [];
  }

let request_stop t = Atomic.set t.draining true

(* --- handlers ---------------------------------------------------------- *)

let artifact t ~workload ~level =
  let entry =
    try Workloads.Suite.find workload
    with Not_found -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  (entry, Harness.Artifact.get t.store ~level entry)

let handle_op t (op : Protocol.op) : Json.t =
  match op with
  | Protocol.Simulate { workload; level; num_pus; in_order } ->
    let entry, art = artifact t ~workload ~level in
    let stats = Harness.Artifact.sim t.store art ~num_pus ~in_order in
    let spec = { Job.workload; level; num_pus; in_order } in
    Job.result_to_json
      (Job.result_of_stats spec ~kind:entry.Workloads.Registry.kind stats)
  | Protocol.Partition { workload; level } ->
    let _, art = artifact t ~workload ~level in
    let parts = art.Harness.Artifact.plan.Core.Partition.parts in
    let funcs, tasks =
      Ir.Prog.Smap.fold
        (fun _ (p : Core.Task.partition) (f, n) ->
          (f + 1, n + Array.length p.Core.Task.tasks))
        parts (0, 0)
    in
    let trace = art.Harness.Artifact.trace in
    Json.Obj
      [
        ("workload", Json.String workload);
        ("level", Json.String (Job.level_tag level));
        ("funcs", Json.Int funcs);
        ("tasks", Json.Int tasks);
        ("events", Json.Int (Interp.Trace.num_events trace));
        ("insns", Json.Int trace.Interp.Trace.dyn_insns);
        ("trace_bytes", Json.Int (Interp.Trace.bytes trace));
      ]
  | Protocol.Deps { workload; level } ->
    let _, art = artifact t ~workload ~level in
    Job.dep_to_json (Job.dep_of_artifact art)
  | Protocol.Absint { workload; level } ->
    let _, art = artifact t ~workload ~level in
    Report.Precision.to_json [ Report.Precision.row_of_artifact art ]
  | Protocol.Cost { workload; level } ->
    let _, art = artifact t ~workload ~level in
    Job.cost_to_json (Job.cost_of_artifact art)
  | Protocol.Breakdown { workload; level; num_pus; in_order } ->
    let entry, art = artifact t ~workload ~level in
    let stats = Harness.Artifact.sim t.store art ~num_pus ~in_order in
    let spec = { Job.workload; level; num_pus; in_order } in
    Job.account_to_json
      (Job.account_of_stats spec ~kind:entry.Workloads.Registry.kind stats)
  | Protocol.Lint { workload; level } ->
    let _, art = artifact t ~workload ~level in
    let reports =
      [ { Lint.workload; level; diags = Lint.check_artifact t.store art } ]
    in
    Json.Obj
      [
        ("errors", Json.Int (Lint.total_errors reports));
        ("report", Lint.report_to_json reports);
      ]
  | Protocol.Fuzz { seed; n; profile } ->
    (* the corpus sweep is CPU-bound and dedup-cached by (seed, n,
       profile); clamp n so one request cannot monopolise the daemon *)
    let n = min n 500 in
    let profiles =
      match profile with
      | None -> Workloads.Synth.Profile.all
      | Some p -> (
        match Workloads.Synth.Profile.find p with
        | Some prof -> [ prof ]
        | None -> failwith (Printf.sprintf "unknown fuzz profile %S" p))
    in
    let cfg = { Fuzz.default_config with Fuzz.seed; n; profiles } in
    let o = Fuzz.run ~jobs:t.jobs cfg in
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("programs", Json.Int o.Fuzz.o_programs);
        ("checks", Json.Int o.Fuzz.o_checks);
        ("violations", Json.Int (List.length o.Fuzz.o_violations));
        ( "first_violation",
          match o.Fuzz.o_violations with
          | [] -> Json.Null
          | v :: _ -> Json.String (Fuzz.violation_text v) );
        ("wall_seconds", Json.Float o.Fuzz.o_wall_seconds);
        ( "records",
          Json.List (List.map Job.fuzz_to_json o.Fuzz.o_records) );
      ]
  | Protocol.Stats | Protocol.Shutdown -> assert false (* handled inline *)

let stats_json t =
  Mutex.lock t.mu;
  let requests = t.requests
  and dedup_hits = t.dedup_hits
  and errors = t.errors
  and latency = Hist.to_json t.latency in
  Mutex.unlock t.mu;
  let sched_fields =
    match t.sched with
    | None -> [ ("sched", Json.Null); ("queue_depth", Json.Int 0) ]
    | Some s ->
      let st = Sched.stats s in
      [
        ( "sched",
          Json.Obj
            [
              ("tasks", Json.Int st.Sched.tasks);
              ("steals", Json.Int st.Sched.steals);
              ("injected", Json.Int st.Sched.injected);
              ("local", Json.Int st.Sched.local);
              ("parks", Json.Int st.Sched.parks);
            ] );
        ("queue_depth", Json.Int (Sched.queue_depth s));
      ]
  in
  Json.Obj
    ([
       ("requests", Json.Int requests);
       ("dedup_hits", Json.Int dedup_hits);
       ("errors", Json.Int errors);
       ("jobs", Json.Int t.jobs);
       ("pipeline_builds", Json.Int (Harness.Artifact.builds t.store));
       ("latency", latency);
     ]
     @ sched_fields)

(* run [f] on the scheduler when there is one: handler work then lands
   on worker domains, and nested Pool.map calls inside handlers fan out
   on the same scheduler, where any free worker can take their tasks *)
let on_sched t f =
  match t.sched with None -> f () | Some s -> Sched.run s f

let record t ~micros ~ok =
  Mutex.lock t.mu;
  t.requests <- t.requests + 1;
  if not ok then t.errors <- t.errors + 1;
  Hist.add t.latency micros;
  Mutex.unlock t.mu

let handle_line t line =
  let t0 = Unix.gettimeofday () in
  let finish ~id ~ok payload =
    let micros = (Unix.gettimeofday () -. t0) *. 1e6 in
    record t ~micros ~ok;
    match payload with
    | `Ok (result, dedup) -> Protocol.ok_response ~id ~dedup ~micros result
    | `Err msg -> Protocol.error_response ~id msg
  in
  match Protocol.parse_request line with
  | Error msg -> finish ~id:Json.Null ~ok:false (`Err msg)
  | Ok { Protocol.id; op } -> (
    match op with
    | Protocol.Stats -> finish ~id ~ok:true (`Ok (stats_json t, false))
    | Protocol.Shutdown ->
      request_stop t;
      finish ~id ~ok:true (`Ok (Json.Obj [ ("draining", Json.Bool true) ], false))
    | _ -> (
      (* every op but stats and shutdown has a dedup key *)
      let key = Option.get (Protocol.key op) in
      match
        Harness.Memo.find_or_compute t.dedup key (fun () ->
            on_sched t (fun () -> handle_op t op))
      with
      | v, dedup ->
        if dedup then begin
          Mutex.lock t.mu;
          t.dedup_hits <- t.dedup_hits + 1;
          Mutex.unlock t.mu
        end;
        finish ~id ~ok:true (`Ok (v, dedup))
      | exception Failure msg -> finish ~id ~ok:false (`Err msg)
      | exception e -> finish ~id ~ok:false (`Err (Printexc.to_string e))))

(* --- connection + accept loops ---------------------------------------- *)

let conn_loop t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line ->
      let line = String.trim line in
      if line <> "" then begin
        let resp = handle_line t line in
        output_string oc resp;
        output_char oc '\n';
        flush oc
      end;
      if not (Atomic.get t.draining) then loop ()
  in
  (try loop () with _ -> ());
  (* the connection thread is the sole closer of its fd; deregistering
     under the server mutex keeps the drain path from shutting down a
     recycled descriptor *)
  Mutex.lock t.mu;
  t.conns <- List.filter (fun (fd', _) -> fd' != fd) t.conns;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.mu

let serve t =
  (* a client that disconnects mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec accept_loop () =
    if Atomic.get t.draining then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
          let th = Thread.create (fun () -> conn_loop t fd) () in
          Mutex.lock t.mu;
          t.conns <- (fd, th) :: t.conns;
          Mutex.unlock t.mu
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* drain: stop accepting, unblock idle readers, join everyone *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket with Unix.Unix_error _ -> ());
  Mutex.lock t.mu;
  (* every fd still registered is owned by a live connection thread that
     cannot close it while we hold the mutex; SHUTDOWN_RECEIVE wakes the
     ones blocked in input_line, and in-flight handlers still write
     their response before conn_loop observes the shutdown *)
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  let threads = List.map snd t.conns in
  Mutex.unlock t.mu;
  List.iter Thread.join threads
