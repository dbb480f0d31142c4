(* In-process mscd service: protocol round-trips, request dedup, stats
   and graceful drain, over a real Unix domain socket with the server
   accept loop on a systhread. *)

module Json = Harness.Json
module P = Service.Protocol

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let temp_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mscd-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

(* --- protocol (no server needed) ------------------------------------- *)

let test_protocol_parse () =
  (match
     P.parse_request
       {|{"id": 7, "op": "simulate", "workload": "compress", "level": "ts"}|}
   with
  | Ok { P.id = Json.Int 7; op = P.Simulate s } ->
    checkb "workload" true (s.workload = "compress");
    checkb "level" true (s.level = Core.Heuristics.Task_size);
    checki "default pus" 8 s.num_pus;
    checkb "default issue" false s.in_order
  | _ -> Alcotest.fail "simulate did not parse");
  (match P.parse_request {|{"op": "stats"}|} with
  | Ok { P.id = Json.Null; op = P.Stats } -> ()
  | _ -> Alcotest.fail "stats did not parse");
  (match
     P.parse_request {|{"op": "absint", "workload": "compress", "level": "dd"}|}
   with
  | Ok { P.op = P.Absint a; _ } ->
    checkb "absint workload" true (a.workload = "compress");
    checkb "absint level" true (a.level = Core.Heuristics.Data_dependence)
  | _ -> Alcotest.fail "absint did not parse");
  let is_error s =
    match P.parse_request s with Error _ -> true | Ok _ -> false
  in
  checkb "unknown op rejected" true (is_error {|{"op": "frobnicate"}|});
  checkb "unknown level rejected" true
    (is_error {|{"op": "deps", "workload": "li", "level": "zz"}|});
  checkb "missing workload rejected" true
    (is_error {|{"op": "cost", "level": "ts"}|});
  checkb "garbage rejected" true (is_error "not json");
  let sim_pus n =
    Printf.sprintf
      {|{"op": "simulate", "workload": "li", "level": "bb", "num_pus": %d}|} n
  in
  checkb "largest machine accepted" false
    (is_error (sim_pus Sim.Config.max_pus));
  checkb "zero PUs rejected" true (is_error (sim_pus 0));
  checkb "oversized machine rejected" true
    (is_error (sim_pus (Sim.Config.max_pus + 1)))

let test_protocol_key () =
  let sim w =
    P.Simulate
      { workload = w; level = Core.Heuristics.Task_size; num_pus = 8;
        in_order = false }
  in
  checkb "equal ops share a key" true (P.key (sim "li") = P.key (sim "li"));
  checkb "different ops differ" true (P.key (sim "li") <> P.key (sim "go"));
  checkb "stats uncached" true (P.key P.Stats = None);
  checkb "shutdown uncached" true (P.key P.Shutdown = None)

(* Mutants of a few request lines: a character deleted, or a token
   inserted or put in place of the token around a position, one to three
   times.  The tokens include numbers no double or int holds, a lone
   surrogate escape and a NUL byte. *)
let request_seeds =
  [|
    {|{"id": 7, "op": "simulate", "workload": "li", "level": "ts", "num_pus": 4}|};
    {|{"id": -2.5e-3, "op": "breakdown", "workload": "go", "level": "cf"}|};
    {|{"id": "a", "op": "deps", "workload": "li", "level": "dd"}|};
    {|{"id": [1, 2.5], "op": "fuzz", "seed": 3, "n": 10, "profile": "big"}|};
    {|{"id": null, "op": "stats"}|};
    {|{"op": "lint", "workload": "go", "level": "cf"}|};
  |]

let request_tokens =
  [|
    "1e999"; "-1e999"; "99999999999999999999"; {|"\ud800"|}; "\000";
    {|"\u0000"|}; "-0.0"; "1.5e-300"; "null"; "true"; "{"; "}"; "[";
    "]"; ","; ":"; {|"|}; {|\|}; {|"id"|}; {|"op"|}; {|"stats"|};
    {|"lint"|}; {|"fb"|}; " ";
  |]

let mutate_request line =
  let open QCheck.Gen in
  let n = String.length line in
  let* op = int_bound 2 in
  let* pos = int_bound (max 0 (n - 1)) in
  let* tok = oneofa request_tokens in
  match op with
  | 0 when n > 0 ->
    return (String.sub line 0 pos ^ String.sub line (pos + 1) (n - pos - 1))
  | 0 | 1 ->
    return (String.sub line 0 pos ^ tok ^ String.sub line pos (n - pos))
  | _ ->
    let is_sep c = c = ' ' || c = ',' || c = ':' in
    let stop = ref pos in
    while !stop < n && not (is_sep line.[!stop]) do incr stop done;
    let start = ref pos in
    while !start > 0 && not (is_sep line.[!start - 1]) do decr start done;
    return (String.sub line 0 !start ^ tok ^ String.sub line !stop (n - !stop))

let gen_request_mutant =
  let open QCheck.Gen in
  let* line = oneofa request_seeds in
  let* k = int_range 1 3 in
  let rec go k line =
    if k = 0 then return line else mutate_request line >>= go (k - 1)
  in
  go k line

(* Whatever a client sends, parse_request returns, a parsed op re-encodes
   to itself, and every reply the server can build from the parsed id is
   JSON that echoes that id. *)
let prop_request_mutants =
  QCheck.Test.make ~name:"mutated requests parse or fail cleanly" ~count:2000
    (QCheck.make ~print:String.escaped gen_request_mutant) (fun line ->
      let echoes id reply =
        match Json.parse reply with
        | Ok json -> Json.member "id" json = Some id
        | Error _ -> false
      in
      match P.parse_request line with
      | Error msg -> echoes Json.Null (P.error_response ~id:Json.Null msg)
      | Ok { P.id; op } ->
        P.parse_request (Json.to_string ~indent:false (P.op_to_json op))
        = Ok { P.id = Json.Null; op }
        && echoes id (P.ok_response ~id ~dedup:false ~micros:1.5 Json.Null)
        && echoes id (P.error_response ~id "failed"))

(* --- live server ------------------------------------------------------ *)

let with_server f =
  let socket = temp_socket () in
  let srv = Service.Server.create ~jobs:2 ~socket () in
  let th = Thread.create (fun () -> Service.Server.serve srv) () in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.request_stop srv;
      Thread.join th;
      (try Unix.unlink socket with Unix.Unix_error _ -> ()))
    (fun () -> f ~socket srv)

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "response missing %S" name)

let test_service_simulate_and_dedup () =
  with_server (fun ~socket srv ->
      let c = Service.Client.connect ~socket in
      let op =
        P.Simulate
          { workload = "compress"; level = Core.Heuristics.Task_size;
            num_pus = 8; in_order = false }
      in
      (match Service.Client.request c ~id:(Json.Int 1) op with
      | Error msg -> Alcotest.fail msg
      | Ok resp ->
        checkb "id echoed" true (field "id" resp = Json.Int 1);
        checkb "first is a miss" true (field "dedup" resp = Json.Bool false);
        let result = field "result" resp in
        checkb "ipc present" true
          (match Json.member "ipc" result with
          | Some (Json.Float f) -> f > 0.0
          | _ -> false));
      (* same op again, same connection: served from the dedup cache *)
      (match Service.Client.request c ~id:(Json.Int 2) op with
      | Error msg -> Alcotest.fail msg
      | Ok resp ->
        checkb "second is a hit" true (field "dedup" resp = Json.Bool true));
      (* a second connection hits the same cache *)
      let c2 = Service.Client.connect ~socket in
      (match Service.Client.request c2 op with
      | Error msg -> Alcotest.fail msg
      | Ok resp ->
        checkb "cross-connection hit" true (field "dedup" resp = Json.Bool true));
      Service.Client.close c2;
      (* errors are structured, not connection-fatal *)
      (match
         Service.Client.request c
           (P.Simulate
              { workload = "nonesuch"; level = Core.Heuristics.Task_size;
                num_pus = 8; in_order = false })
       with
      | Error msg ->
        let contains ~sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        checkb "unknown workload named" true (contains ~sub:"nonesuch" msg)
      | Ok _ -> Alcotest.fail "unknown workload accepted");
      (* the connection survived the error *)
      (match Service.Client.request c op with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      Service.Client.close c;
      ignore srv)

let test_service_stats_and_drain () =
  with_server (fun ~socket srv ->
      let c = Service.Client.connect ~socket in
      let op =
        P.Deps { workload = "compress"; level = Core.Heuristics.Control_flow }
      in
      (match Service.Client.request c op with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      (match Service.Client.request c op with
      | Ok resp -> checkb "dedup hit" true (field "dedup" resp = Json.Bool true)
      | Error msg -> Alcotest.fail msg);
      (match
         Service.Client.request c
           (P.Absint
              { workload = "compress"; level = Core.Heuristics.Control_flow })
       with
      | Ok resp ->
        checkb "absint result has a precision row" true
          (match Json.member "precision" (field "result" resp) with
          | Some (Json.List [ _ ]) -> true
          | _ -> false)
      | Error msg -> Alcotest.fail msg);
      (match Service.Client.request c P.Stats with
      | Error msg -> Alcotest.fail msg
      | Ok resp ->
        let stats = field "result" resp in
        (match field "requests" stats with
        | Json.Int n -> checkb "requests counted" true (n >= 2)
        | _ -> Alcotest.fail "requests not an int");
        checkb "dedup hits counted" true
          (match field "dedup_hits" stats with
          | Json.Int n -> n >= 1
          | _ -> false);
        checkb "latency histogram present" true
          (match Json.member "p99" (field "latency" stats) with
          | Some (Json.Float _) -> true
          | _ -> false));
      (* shutdown op drains the server; serve returns and the socket dies *)
      (match Service.Client.request c P.Shutdown with
      | Ok resp ->
        checkb "draining acknowledged" true
          (field "result" resp = Json.Obj [ ("draining", Json.Bool true) ])
      | Error msg -> Alcotest.fail msg);
      Service.Client.close c;
      (* stats_json stays readable after drain *)
      let final = Service.Server.stats_json srv in
      checkb "final stats readable" true
        (match Json.member "requests" final with
        | Some (Json.Int n) -> n >= 3
        | _ -> false))

(* A request for a machine past Sim.Config.max_pus (here a million PUs,
   about 7.5 GB of simulator state) gets an error reply naming the field,
   and the daemon keeps serving the same connection. *)
let test_service_oversized_machine () =
  with_server (fun ~socket _srv ->
      let c = Service.Client.connect ~socket in
      let sim num_pus =
        P.Simulate
          { workload = "compress"; level = Core.Heuristics.Basic_block;
            num_pus; in_order = false }
      in
      (match Service.Client.request c (sim 1_000_000) with
      | Error msg ->
        checkb "num_pus named" true
          (String.length msg >= 15 && String.sub msg 0 15 = "field \"num_pus\"")
      | Ok _ -> Alcotest.fail "a million PUs accepted");
      (match Service.Client.request c (sim 4) with
      | Ok resp ->
        checkb "served after the error" true (field "ok" resp = Json.Bool true)
      | Error msg -> Alcotest.fail msg);
      Service.Client.close c)

(* One request line past the daemon's 64 KiB cap is answered with an error
   and its connection closed; the next client is served. *)
let test_service_overlong_line () =
  with_server (fun ~socket _srv ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let line = String.make ((64 * 1024) + 1) 'x' ^ "\n" in
      (* the daemon may close before it reads the newline *)
      (try ignore (Unix.write_substring fd line 0 (String.length line))
       with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
      let ic = Unix.in_channel_of_descr fd in
      (match Json.parse (input_line ic) with
      | Ok resp ->
        checkb "error response" true (field "ok" resp = Json.Bool false);
        checkb "the cap named" true
          (match field "error" resp with
          | Json.String msg -> msg = "request line longer than 65536 bytes"
          | _ -> false)
      | Error msg -> Alcotest.fail msg);
      checkb "connection closed" true
        (match input_line ic with
        | exception (End_of_file | Sys_error _) -> true
        | _ -> false);
      close_in ic;
      let c = Service.Client.connect ~socket in
      (match Service.Client.request c P.Stats with
      | Ok resp ->
        checkb "next client served" true (field "ok" resp = Json.Bool true);
        checkb "the line counted as an error" true
          (field "errors" (field "result" resp) = Json.Int 1)
      | Error msg -> Alcotest.fail msg);
      Service.Client.close c)

(* --- the daemon and the report layer agree ---------------------------- *)

(* For one (workload, level) cell, every analysis op answers with exactly
   what the report layer prints for the same one-cell run on a fresh
   store: the daemon's deps/cost/breakdown objects are the leading members
   of the matching report row (deps and cost rows append [extra]
   machine-side columns), simulate is the store's recorded job result,
   absint the whole precision document, lint's report member the lint
   document, and partition counts the store artifact's plan and trace.
   Compared as printed JSON — the bytes a client sees. *)
let test_service_matches_reports () =
  let text = Json.to_string ~indent:false in
  let result c op =
    match Service.Client.request c op with
    | Ok resp -> field "result" resp
    | Error msg -> Alcotest.fail msg
  in
  let only_row name doc =
    match Json.member name doc with
    | Some (Json.List [ row ]) -> row
    | _ -> Alcotest.failf "expected one %S row" name
  in
  let leading name ~extra ~daemon ~row =
    match (daemon, row) with
    | Json.Obj d, Json.Obj r ->
      checki (name ^ " extra columns") extra (List.length r - List.length d);
      Alcotest.(check string)
        name (text daemon)
        (text (Json.Obj (List.filteri (fun i _ -> i < List.length d) r)))
    | _ -> Alcotest.failf "%s: expected two objects" name
  in
  with_server (fun ~socket _ ->
      let c = Service.Client.connect ~socket in
      List.iter
        (fun (workload, level) ->
          let cell = workload ^ "/" ^ Harness.Job.level_tag level in
          let entries = [ Workloads.Suite.find workload ] in
          let levels = [ level ] in
          let store = Harness.Artifact.create () in
          leading (cell ^ " deps") ~extra:4
            ~daemon:(result c (P.Deps { workload; level }))
            ~row:
              (only_row "deps"
                 (Report.Deps.to_json (Report.Deps.run ~store ~levels entries)));
          leading (cell ^ " cost") ~extra:9
            ~daemon:(result c (P.Cost { workload; level }))
            ~row:
              (only_row "cost"
                 (Report.Cost.to_json (Report.Cost.run ~store ~levels entries)));
          leading (cell ^ " breakdown") ~extra:0
            ~daemon:
              (result c
                 (P.Breakdown { workload; level; num_pus = 8; in_order = false }))
            ~row:
              (only_row "accounts"
                 (Report.Breakdown.to_json
                    (Report.Breakdown.run ~store ~levels ~pus:[ 8 ] entries)));
          (match Harness.Job.results_of_store store with
          | [ r ] ->
            Alcotest.(check string)
              (cell ^ " simulate")
              (text (Harness.Job.result_to_json r))
              (text
                 (result c
                    (P.Simulate
                       { workload; level; num_pus = 8; in_order = false })))
          | _ -> Alcotest.fail "expected one recorded simulation");
          Alcotest.(check string)
            (cell ^ " absint")
            (text
               (Report.Precision.to_json
                  (Report.Precision.run ~store ~levels entries)))
            (text (result c (P.Absint { workload; level })));
          Alcotest.(check string)
            (cell ^ " lint")
            (text
               (Lint.report_to_json (Lint.check_suite ~levels ~store entries)))
            (text (field "report" (result c (P.Lint { workload; level }))));
          let art = Harness.Artifact.get store ~level (List.hd entries) in
          let parts = art.Harness.Artifact.plan.Core.Partition.parts in
          let trace = art.Harness.Artifact.trace in
          Alcotest.(check string)
            (cell ^ " partition")
            (text
               (Json.Obj
                  [
                    ("workload", Json.String workload);
                    ("level", Json.String (Harness.Job.level_tag level));
                    ("funcs", Json.Int (Ir.Prog.Smap.cardinal parts));
                    ( "tasks",
                      Json.Int
                        (Ir.Prog.Smap.fold
                           (fun _ (p : Core.Task.partition) n ->
                             n + Array.length p.Core.Task.tasks)
                           parts 0) );
                    ( "events",
                      Json.Int (Interp.Trace.stats trace).Interp.Trace.events );
                    ("insns", Json.Int trace.Interp.Trace.dyn_insns);
                    ("trace_bytes", Json.Int (Interp.Trace.bytes trace));
                  ]))
            (text (result c (P.Partition { workload; level }))))
        [ ("compress", Core.Heuristics.Control_flow);
          ("fpppp", Core.Heuristics.Feedback) ];
      Service.Client.close c)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "dedup keys" `Quick test_protocol_key;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            prop_request_mutants;
        ] );
      ( "server",
        [
          Alcotest.test_case "simulate + dedup" `Slow
            test_service_simulate_and_dedup;
          Alcotest.test_case "stats + drain" `Slow test_service_stats_and_drain;
          Alcotest.test_case "matches the reports" `Slow
            test_service_matches_reports;
          Alcotest.test_case "oversized machine" `Slow
            test_service_oversized_machine;
          Alcotest.test_case "overlong line" `Slow test_service_overlong_line;
        ] );
    ]
