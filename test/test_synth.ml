(* Tests for the synthetic corpus (Workloads.Synth) and the differential
   fuzzing harness (Fuzz): generation determinism, corpus-wide validity
   and round-trip health, a small end-to-end Fuzz.run with zero
   violations, deterministic shrinking of a seeded injected fault, and
   the golden shrunken reproducers under test/golden/fuzz/. *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let cfg = Fuzz.default_config

(* --- generation ------------------------------------------------------------ *)

let test_deterministic () =
  List.iter
    (fun (profile : Workloads.Synth.Profile.t) ->
      let seed = Workloads.Synth.program_seed ~seed:42 ~index:7 in
      let a = Workloads.Synth.generate ~profile ~seed in
      let b = Workloads.Synth.generate ~profile ~seed in
      if compare a b <> 0 then
        Alcotest.failf "profile %s: generation not deterministic"
          profile.Workloads.Synth.Profile.name)
    Workloads.Synth.Profile.all

let test_program_seeds_distinct () =
  let seeds =
    List.init 64 (fun index -> Workloads.Synth.program_seed ~seed:42 ~index)
  in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "distinct per-program seeds" 64 (List.length distinct)

let test_corpus_valid () =
  List.iter
    (fun (profile : Workloads.Synth.Profile.t) ->
      let name = profile.Workloads.Synth.Profile.name in
      for index = 0 to 7 do
        let seed = Workloads.Synth.program_seed ~seed:1 ~index in
        let p = Workloads.Synth.generate ~profile ~seed in
        (match Ir.Prog.validate p with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s #%d invalid: %s" name index msg);
        (match Lint.Diag.errors (Lint.check_prog p) with
        | [] -> ()
        | d :: _ ->
          Alcotest.failf "%s #%d lint: %s" name index
            (Format.asprintf "%a" Lint.Diag.pp d));
        match Lint.check_roundtrip p with
        | [] -> ()
        | d :: _ ->
          Alcotest.failf "%s #%d roundtrip: %s" name index
            (Format.asprintf "%a" Lint.Diag.pp d)
      done)
    Workloads.Synth.Profile.all

(* --- a small end-to-end run ------------------------------------------------- *)

let test_fuzz_run_clean () =
  let run_cfg = { cfg with Fuzz.n = 11; ref_sample = 5 } in
  let o = Fuzz.run ~jobs:2 run_cfg in
  List.iter
    (fun v -> Printf.printf "violation: %s\n" (Fuzz.violation_text v))
    o.Fuzz.o_violations;
  Alcotest.(check int) "violations" 0 (List.length o.Fuzz.o_violations);
  Alcotest.(check int) "programs" 11 o.Fuzz.o_programs;
  Alcotest.(check int) "checks" 55 o.Fuzz.o_checks;
  let progs =
    List.fold_left
      (fun acc (r : Harness.Job.fuzz) -> acc + r.Harness.Job.z_programs)
      0 o.Fuzz.o_records
  in
  Alcotest.(check int) "records cover the corpus" 11 progs;
  (* at least one program went through the sim_ref differential *)
  let ref_checked =
    List.fold_left
      (fun acc (r : Harness.Job.fuzz) -> acc + r.Harness.Job.z_ref_checked)
      0 o.Fuzz.o_records
  in
  if ref_checked < 1 then Alcotest.fail "no sim_ref differential sampled";
  (* the outcome is job-count invariant *)
  let o1 = Fuzz.run ~jobs:1 run_cfg in
  Alcotest.(check bool) "job-count invariant" true
    (o1.Fuzz.o_records = o.Fuzz.o_records
    && o1.Fuzz.o_violations = o.Fuzz.o_violations)

(* --- injected fault: catch, shrink, dump ------------------------------------ *)

let test_injected_fault_shrinks () =
  let profile = Workloads.Synth.Profile.default in
  let seed = Workloads.Synth.program_seed ~seed:7 ~index:3 in
  let p = Workloads.Synth.generate ~profile ~seed in
  let bad = Fuzz.inject_div0 ~seed:5 p in
  let fails = Fuzz.fails_oracle cfg ~oracle:"crash" in
  Alcotest.(check bool) "clean program passes" false (fails p);
  Alcotest.(check bool) "injected fault caught" true (fails bad);
  let small = Fuzz.minimize ~fails bad in
  Alcotest.(check bool) "shrunken program still fails" true (fails small);
  if Ir.Prog.static_size small >= Ir.Prog.static_size bad then
    Alcotest.failf "no shrink: %d -> %d insns" (Ir.Prog.static_size bad)
      (Ir.Prog.static_size small);
  (* deterministic: the same fault shrinks to the same program *)
  let small' = Fuzz.minimize ~fails (Fuzz.inject_div0 ~seed:5 p) in
  Alcotest.(check bool) "shrink deterministic" true (compare small small' = 0);
  (* the reproducer round-trips through dump + parse *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "msc_fuzz_test" in
  match Fuzz.dump_reproducer ~dir ~name:"div0" small with
  | Error msg -> Alcotest.failf "dump: %s" msg
  | Ok path -> (
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Ir.Parse.program text with
    | Error e -> Alcotest.failf "reproducer does not parse: %s" e
    | Ok p' ->
      Alcotest.(check bool) "parsed reproducer still fails" true (fails p'))

let test_fault_hook () =
  let hooked = { cfg with Fuzz.fault_hook = Some (Fuzz.inject_div0 ~seed:5) } in
  match (Fuzz.check_one hooked ~index:3).Fuzz.p_violations with
  | [] -> Alcotest.fail "hooked fault not caught"
  | v :: _ ->
    if not (contains v.Fuzz.v_detail "division by zero") then
      Alcotest.failf "unexpected first violation: %s" (Fuzz.violation_text v)

(* An interpreter error while a level's artifact is built is that level's
   crash, whether a profiling run or the final run raised it, and the
   store does not cache the failed run: every level reports its own. *)
let test_fault_every_level () =
  let profile = Workloads.Synth.Profile.default in
  let seed = Workloads.Synth.program_seed ~seed:7 ~index:3 in
  let p = Workloads.Synth.generate ~profile ~seed in
  let bad = Fuzz.inject_div0 ~seed:5 p in
  let r = Fuzz.check_value cfg ~profile:"div0" ~index:0 ~seed:0 bad in
  let levels oracle =
    List.filter_map
      (fun v ->
        if v.Fuzz.v_oracle = oracle then Some v.Fuzz.v_level else None)
      r.Fuzz.p_violations
  in
  Alcotest.(check (list string)) "crash at every level"
    [ "bb"; "cf"; "dd"; "ts"; "fb" ] (levels "crash");
  Alcotest.(check (list string)) "no plan failure" [] (levels "plan");
  List.iter
    (fun v ->
      if not (contains v.Fuzz.v_detail "division by zero") then
        Alcotest.failf "unexpected violation: %s" (Fuzz.violation_text v))
    r.Fuzz.p_violations

(* --- golden reproducers ----------------------------------------------------- *)

(* Shrunken regression programs dumped by the minimizer from seeded
   injected faults: each must parse, stay structurally valid and still
   trip the crash oracle with the division it was shrunk around. *)
let test_golden name =
  let path = Filename.concat "golden/fuzz" (name ^ ".ir") in
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ir.Parse.program text with
  | Error e -> Alcotest.failf "%s does not parse: %s" path e
  | Ok p -> (
    (match Ir.Prog.validate p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s invalid: %s" path msg);
    let r = Fuzz.check_value cfg ~profile:"golden" ~index:0 ~seed:0 p in
    match
      List.find_opt
        (fun v ->
          (v.Fuzz.v_oracle = "crash" || v.Fuzz.v_oracle = "plan")
          && contains v.Fuzz.v_detail "division by zero")
        r.Fuzz.p_violations
    with
    | Some _ -> ()
    | None ->
      Alcotest.failf "%s no longer trips the crash oracle (%d violations)"
        path
        (List.length r.Fuzz.p_violations))

(* Shrunken fixed-bug regressions: programs the fuzzer once flagged and
   whose analysis bug has since been fixed — every oracle must stay
   clean.  [absint-operand-clobber]: a compare whose destination is also
   its own right operand ([sgt t11, t5, t11]); the branch refinement used
   to read the operand's block-exit value (the 0/1 result) and prove the
   live arm dead. *)
let test_golden_clean name =
  let path = Filename.concat "golden/fuzz" (name ^ ".ir") in
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ir.Parse.program text with
  | Error e -> Alcotest.failf "%s does not parse: %s" path e
  | Ok p -> (
    let r = Fuzz.check_value cfg ~profile:"golden" ~index:0 ~seed:0 p in
    match r.Fuzz.p_violations with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "%s regressed: %s (+%d more)" path
        (Fuzz.violation_text v)
        (List.length r.Fuzz.p_violations - 1))

(* --- fuzz records ride along in results.json ------------------------------- *)

let test_fuzz_export_shape () =
  let record =
    {
      Harness.Job.z_seed = 42;
      z_profile = "default";
      z_programs = 3;
      z_levels = 5;
      z_lint_pass = 3;
      z_roundtrip_pass = 3;
      z_trace_pass = 3;
      z_dep_pass = 3;
      z_absint_pass = 3;
      z_acct_pass = 3;
      z_cost_pass = 3;
      z_fb_bound_pass = 3;
      z_ref_checked = 1;
      z_ref_pass = 1;
      z_violations = 0;
    }
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "msc_fuzz_export.json"
  in
  Harness.Json.to_file path (Harness.Job.document ~fuzz:[ record ] []);
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Harness.Json.parse text with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok json ->
    Alcotest.(check bool) "jobs section empty" true
      (Harness.Json.member "jobs" json = Some (Harness.Json.List []));
    (match Harness.Json.member "fuzz" json with
    | Some (Harness.Json.List [ r ]) -> (
      match Harness.Json.member "programs" r with
      | Some (Harness.Json.Int 3) -> ()
      | _ -> Alcotest.fail "fuzz record lost its programs field")
    | _ -> Alcotest.fail "fuzz section missing from export")

let () =
  Alcotest.run "synth"
    [
      ( "corpus",
        [
          Alcotest.test_case "generation deterministic" `Quick
            test_deterministic;
          Alcotest.test_case "per-program seeds distinct" `Quick
            test_program_seeds_distinct;
          Alcotest.test_case "corpus valid + roundtrip clean" `Slow
            test_corpus_valid;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "small run, zero violations" `Slow
            test_fuzz_run_clean;
          Alcotest.test_case "injected fault shrinks deterministically" `Slow
            test_injected_fault_shrinks;
          Alcotest.test_case "fault hook drives check_one" `Quick
            test_fault_hook;
          Alcotest.test_case "fuzz records in results.json" `Quick
            test_fuzz_export_shape;
          Alcotest.test_case "div0 crashes every level" `Quick
            test_fault_every_level;
        ] );
      ( "golden",
        [
          Alcotest.test_case "div0-default reproducer" `Quick (fun () ->
              test_golden "div0-default");
          Alcotest.test_case "div0-loopy reproducer" `Quick (fun () ->
              test_golden "div0-loopy");
          Alcotest.test_case "div0-deep-calls reproducer" `Quick (fun () ->
              test_golden "div0-deep-calls");
          Alcotest.test_case "absint-operand-clobber stays clean" `Quick
            (fun () -> test_golden_clean "absint-operand-clobber");
        ] );
    ]
