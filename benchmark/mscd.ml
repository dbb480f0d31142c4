(* The mscd-zipf workload: a freshly started daemon (Service.Server, the
   code behind [msc daemon -j 2]) driven by closed-loop clients with a
   Zipf-skewed request mix, and the in-process replay the traced run uses
   to attribute the daemon's work to layers. *)

module Json = Harness.Json
module Protocol = Service.Protocol
module Sample = Bench_kit.Sample
module Span = Bench_kit.Span

let clients = 2
let zipf_s = 1.1

let machines = [ (4, false); (8, false); (4, true); (8, true) ]

(* 18 workloads x 5 levels x {simulate on 4 machines, deps, cost, absint,
   breakdown} = 720 keys, in a fixed canonical order: the 8 keys of one
   (workload, level) pipeline after another *)
let universe =
  Array.of_list
    (List.concat_map
       (fun (entry : Workloads.Registry.entry) ->
         let workload = entry.Workloads.Registry.name in
         List.concat_map
           (fun level ->
             List.map
               (fun (num_pus, in_order) ->
                 Protocol.Simulate { workload; level; num_pus; in_order })
               machines
             @ [
                 Protocol.Deps { workload; level };
                 Protocol.Cost { workload; level };
                 Protocol.Absint { workload; level };
                 Protocol.Breakdown { workload; level; num_pus = 8; in_order = false };
               ])
           Core.Heuristics.extended_levels)
       Workloads.Suite.all)

(* The seed deals the popularity ranks, then shuffles the order of the
   requests.  Dealing gives each round of 90 ranks one key of every
   (workload, level) pipeline, so every seed spreads the hot ranks evenly
   over the suite; a plain shuffle let the seed decide whose cold fills
   the daemon paid and moved its peak RSS by 11 % between seeds.  A batch
   holds each rank exactly its Zipf share of the requests, so seeds
   differ in which keys are hot, not in how the load is skewed. *)
let batch ~seed ~requests =
  let rng = Random.State.make [| seed |] in
  let size = List.length machines + 4 in
  let popularity = Sample.dealt rng ~groups:(Array.length universe / size) ~size in
  let counts = Sample.zipf_counts ~n:(Array.length universe) ~s:zipf_s ~total:requests in
  let pool =
    Array.concat
      (Array.to_list (Array.mapi (fun r c -> Array.make c universe.(popularity.(r))) counts))
  in
  let order = Sample.permutation rng requests in
  Array.map (fun i -> pool.(i)) order

let key op = Option.get (Protocol.key op)

(* eight fixed keys whose responses are pinned by a golden file *)
let probes =
  let sim workload level num_pus in_order =
    Protocol.Simulate { workload; level; num_pus; in_order }
  in
  let cost workload level = Protocol.Cost { workload; level } in
  Core.Heuristics.
    [
      sim "compress" Task_size 8 false;
      sim "go" Basic_block 4 true;
      sim "fpppp" Feedback 8 false;
      sim "swim" Data_dependence 4 false;
      cost "li" Control_flow;
      cost "tomcatv" Feedback;
      cost "cc" Task_size;
      cost "fpppp" Data_dependence;
    ]

(* --- closed-loop clients ----------------------------------------------- *)

type reply = {
  latency_us : float;  (** client-observed round trip *)
  server_us : float;  (** the response's [micros] *)
  dedup : bool;
  result : string option;  (** compact result JSON; [None] on failure *)
}

let failed_reply = { latency_us = 0.0; server_us = 0.0; dedup = false; result = None }

let decode = function
  | Error msg ->
    prerr_endline ("mscd-zipf: request failed: " ^ msg);
    failed_reply
  | Ok resp ->
    let num f = match Json.member f resp with Some (Json.Float x) -> x | Some (Json.Int i) -> float_of_int i | _ -> 0.0 in
    {
      latency_us = 0.0;
      server_us = num "micros";
      dedup = Json.member "dedup" resp = Some (Json.Bool true);
      result = Option.map (Json.to_string ~indent:false) (Json.member "result" resp);
    }

let with_conn ~socket f =
  let conn = Service.Client.connect ~socket in
  Fun.protect ~finally:(fun () -> Service.Client.close conn) (fun () -> f conn)

(* Client [c] sends requests c, c + clients, ... each only after the
   previous reply: experiment scripts waiting on their results. *)
let run_batch ~socket ops =
  let replies = Array.make (Array.length ops) failed_reply in
  let client c () =
    with_conn ~socket (fun conn ->
        let i = ref c in
        while !i < Array.length ops do
          let t0 = Span.now_ns () in
          let r = decode (Service.Client.request conn ops.(!i)) in
          let dt = float_of_int (Span.now_ns () - t0) /. 1e3 in
          replies.(!i) <- { r with latency_us = dt };
          i := !i + clients
        done)
  in
  let t0 = Span.now_ns () in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  (replies, float_of_int (Span.now_ns () - t0) /. 1e9)

(* failed requests, plus any whose result differs from the first reply of
   the same key (dedup and artifact hits must serve the computed answer) *)
let inconsistent ops replies =
  let first = Hashtbl.create 512 in
  let bad = ref 0 in
  Array.iteri
    (fun i r ->
      match r.result with
      | None -> incr bad
      | Some res -> (
        let k = key ops.(i) in
        match Hashtbl.find_opt first k with
        | None -> Hashtbl.replace first k res
        | Some res0 -> if not (String.equal res res0) then incr bad))
    replies;
  (!bad, first)

let probe_text ~socket =
  with_conn ~socket (fun conn ->
      String.concat ""
        (List.map
           (fun op ->
             let r = decode (Service.Client.request conn op) in
             Printf.sprintf "%s\t%s\n" (key op) (Option.value ~default:"FAILED" r.result))
           probes))

let server_stats ~socket =
  with_conn ~socket (fun conn ->
      match Service.Client.request conn Protocol.Stats with
      | Ok resp -> Option.value ~default:Json.Null (Json.member "result" resp)
      | Error msg -> failwith ("mscd-zipf: stats failed: " ^ msg))

let shutdown ~socket =
  with_conn ~socket (fun conn -> ignore (Service.Client.request conn Protocol.Shutdown))

(* --- in-process replay ----------------------------------------------------- *)

(* The distinct keys of a batch, computed through the layers' public
   functions with the daemon's handlers' exact calls, pipelines fanned out
   on the same pool width.  Returns each key's compact result JSON. *)
let replay ~seed ~requests =
  let ops = batch ~seed ~requests in
  let seen = Hashtbl.create 512 in
  let groups = ref [] in
  Array.iter
    (fun op ->
      let k = key op in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        let workload, level =
          match op with
          | Protocol.Simulate { workload; level; _ }
          | Protocol.Breakdown { workload; level; _ }
          | Protocol.Deps { workload; level }
          | Protocol.Cost { workload; level }
          | Protocol.Absint { workload; level } ->
            (workload, level)
          | _ -> invalid_arg "Mscd.replay: op outside the key universe"
        in
        match List.assoc_opt (workload, level) !groups with
        | Some ops -> ops := op :: !ops
        | None -> groups := ((workload, level), ref [ op ]) :: !groups
      end)
    ops;
  let groups = List.rev_map (fun (wl, ops) -> (wl, List.rev !ops)) !groups in
  let results =
    Harness.Pool.map ~jobs:(Pass.grid_jobs ())
      (fun ((workload, level), ops) ->
        let entry = Workloads.Suite.find workload in
        let plan, out = Pass.pipeline entry level in
        let trace = out.Interp.Run.trace in
        let art = Pass.artifact entry level plan trace in
        let prep = lazy (Pass.prepare plan trace) in
        let sims = Hashtbl.create 4 in
        let stats machine =
          match Hashtbl.find_opt sims machine with
          | Some s -> s
          | None ->
            let s = (Pass.simulate (Lazy.force prep) trace machine).Sim.Engine.stats in
            Hashtbl.replace sims machine s;
            s
        in
        let spec num_pus in_order = { Harness.Job.workload; level; num_pus; in_order } in
        let kind = entry.Workloads.Registry.kind in
        let result = function
          | Protocol.Simulate { num_pus; in_order; _ } ->
            Harness.Job.result_to_json
              (Harness.Job.result_of_stats (spec num_pus in_order) ~kind (stats (num_pus, in_order)))
          | Protocol.Breakdown { num_pus; in_order; _ } ->
            Harness.Job.account_to_json
              (Harness.Job.account_of_stats (spec num_pus in_order) ~kind (stats (num_pus, in_order)))
          | Protocol.Deps _ ->
            Span.record "core.depend" (fun () ->
                Harness.Job.dep_to_json (Harness.Job.dep_of_artifact art))
          | Protocol.Absint _ ->
            Span.record "core.depend" (fun () ->
                Report.Precision.to_json [ Report.Precision.row_of_artifact art ])
          | Protocol.Cost _ ->
            Span.record "core.plan_cost" (fun () ->
                Harness.Job.cost_to_json (Harness.Job.cost_of_artifact art))
          | _ -> assert false
        in
        let answers = List.map (fun op -> (key op, Json.to_string ~indent:false (result op))) ops in
        ((plan, out), answers, Hashtbl.fold (fun _ s acc -> s :: acc) sims []))
      groups
  in
  let pipelines = List.map (fun (p, _, _) -> p) results in
  let sims = List.concat_map (fun (_, _, s) -> s) results in
  (List.concat_map (fun (_, r, _) -> r) results, Pass.flow_counts pipelines sims)
