(* Tests for the static plan & IR verifier (Lint) — and, through its
   differential audit, for Regcomm on handcrafted CFGs with hand-computed
   forward/release/dead answers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let blk label insns term =
  { Ir.Block.label; insns = Array.of_list insns; term }

let prog_of funcs =
  {
    Ir.Prog.funcs =
      List.fold_left
        (fun m (f : Ir.Func.t) -> Ir.Prog.Smap.add f.Ir.Func.name f m)
        Ir.Prog.Smap.empty funcs;
    main = "main";
    mem_init = [];
    mem_top = 0;
  }

let r = Ir.Reg.tmp 0
let s = Ir.Reg.tmp 1
let c = Ir.Reg.tmp 2

let rules ds = List.map (fun d -> d.Lint.Diag.rule) ds
let has_rule rule ds = List.mem rule (rules ds)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let whole_task f =
  let n = Ir.Func.num_blocks f in
  let included_calls = Array.make n false in
  let blocks = Core.Task.Iset.of_list (List.init n (fun i -> i)) in
  let t = Core.Task.of_blocks f ~included_calls ~entry:0 blocks in
  {
    Core.Task.fname = f.Ir.Func.name;
    tasks = [| t |];
    task_of_entry = Array.init n (fun i -> if i = 0 then 0 else -1);
    included_calls;
  }

(* --- IR well-formedness --------------------------------------------------- *)

let straight_main insns =
  { Ir.Func.name = "main"; blocks = [| blk 0 insns Ir.Block.Halt |] }

let test_prog_clean () =
  let p = prog_of [ straight_main [ Ir.Insn.Li (r, 1) ] ] in
  checki "no diagnostics" 0 (List.length (Lint.check_prog p))

let test_prog_no_main () =
  let f = { (straight_main []) with Ir.Func.name = "not_main" } in
  checkb "ir/no-main" true
    (has_rule "ir/no-main" (Lint.check_prog (prog_of [ f ])))

let test_prog_label_range () =
  let f = { Ir.Func.name = "main"; blocks = [| blk 0 [] (Ir.Block.Jump 7) |] } in
  checkb "ir/label-range" true
    (has_rule "ir/label-range" (Lint.check_prog (prog_of [ f ])))

let test_prog_block_label () =
  let f =
    {
      Ir.Func.name = "main";
      blocks = [| blk 3 [ Ir.Insn.Li (r, 1) ] Ir.Block.Halt |];
    }
  in
  checkb "ir/block-label" true
    (has_rule "ir/block-label" (Lint.check_prog (prog_of [ f ])))

let test_prog_call_target () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [| blk 0 [] (Ir.Block.Call ("nowhere", 1)); blk 1 [] Ir.Block.Halt |];
    }
  in
  checkb "ir/call-target" true
    (has_rule "ir/call-target" (Lint.check_prog (prog_of [ f ])))

let test_prog_unreachable () =
  let f =
    {
      Ir.Func.name = "main";
      blocks = [| blk 0 [] Ir.Block.Halt; blk 1 [] Ir.Block.Halt |];
    }
  in
  let ds = Lint.check_prog (prog_of [ f ]) in
  checkb "ir/unreachable" true (has_rule "ir/unreachable" ds);
  checkb "only a warning" true (Lint.Diag.errors ds = [])

let test_prog_empty_switch () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (c, 0) ] (Ir.Block.Switch (c, [||], 1));
          blk 1 [] Ir.Block.Halt;
        |];
    }
  in
  checkb "ir/empty-switch" true
    (has_rule "ir/empty-switch" (Lint.check_prog (prog_of [ f ])))

let test_prog_use_before_def () =
  (* main reads s on a path where no definition reaches the use *)
  let body =
    [|
      blk 0 [ Ir.Insn.Li (c, 1) ] (Ir.Block.Br (c, 1, 2));
      blk 1 [ Ir.Insn.Li (s, 4) ] (Ir.Block.Jump 2);
      blk 2 [ Ir.Insn.Mov (r, s) ] Ir.Block.Halt;
    |]
  in
  let f = { Ir.Func.name = "main"; blocks = body } in
  let ds = Lint.check_prog (prog_of [ f ]) in
  checkb "ir/use-before-def" true (has_rule "ir/use-before-def" ds);
  checkb "only a warning" true (Lint.Diag.errors ds = []);
  (* the same body in a non-main function is quiet: registers are
     architecturally global, so the caller may have set anything *)
  let g =
    {
      Ir.Func.name = "g";
      blocks =
        Array.map
          (fun (b : Ir.Block.t) ->
            match b.Ir.Block.term with
            | Ir.Block.Halt -> { b with Ir.Block.term = Ir.Block.Ret }
            | _ -> b)
          body;
    }
  in
  let main =
    {
      Ir.Func.name = "main";
      blocks =
        [| blk 0 [] (Ir.Block.Call ("g", 1)); blk 1 [] Ir.Block.Halt |];
    }
  in
  checkb "non-main quiet" false
    (has_rule "ir/use-before-def" (Lint.check_prog (prog_of [ main; g ])))

(* --- partition invariants ------------------------------------------------- *)

(* 0: c=..      -> 1 | 2
   1: r=2       -> 3
   2: s=5       -> 3
   3: halt *)
let diamond_main () =
  {
    Ir.Func.name = "main";
    blocks =
      [|
        blk 0 [ Ir.Insn.Li (c, 0) ] (Ir.Block.Br (c, 1, 2));
        blk 1 [ Ir.Insn.Li (r, 2) ] (Ir.Block.Jump 3);
        blk 2 [ Ir.Insn.Li (s, 5) ] (Ir.Block.Jump 3);
        blk 3 [] Ir.Block.Halt;
      |];
  }

let plan_of_main f level = Core.Partition.build level (prog_of [ f ])

let find_main_part plan = Ir.Prog.Smap.find "main" plan.Core.Partition.parts

let with_main_part plan part =
  Core.Partition.with_parts plan
    (Ir.Prog.Smap.add "main" part plan.Core.Partition.parts)

let test_plan_clean () =
  List.iter
    (fun level ->
      let plan = plan_of_main (diamond_main ()) level in
      checki
        (Core.Heuristics.level_name level ^ " clean")
        0
        (List.length (Lint.check_plan plan));
      checkb
        (Core.Heuristics.level_name level ^ " validates")
        true
        (Core.Partition.validate plan = Ok ()))
    Core.Heuristics.all_levels

let test_corrupt_targets () =
  let plan = plan_of_main (diamond_main ()) Core.Heuristics.Basic_block in
  let part = find_main_part plan in
  (* blank out a task's stored targets: only the independent recomputation
     can notice, since the closure check iterates the true CFG exits *)
  let victim =
    let found = ref (-1) in
    Array.iteri
      (fun i (t : Core.Task.t) ->
        if !found < 0 && t.Core.Task.targets <> [] then found := i)
      part.Core.Task.tasks;
    if !found < 0 then Alcotest.fail "no task with targets" else !found
  in
  let tasks =
    Array.mapi
      (fun i (t : Core.Task.t) ->
        if i = victim then { t with Core.Task.targets = [] } else t)
      part.Core.Task.tasks
  in
  let bad = with_main_part plan { part with Core.Task.tasks } in
  let ds = Lint.check_plan bad in
  checkb "part/stale-targets" true (has_rule "part/stale-targets" ds);
  (* Partition.validate delegates to the same checker and names the rule *)
  match Core.Partition.validate bad with
  | Ok () -> Alcotest.fail "corrupted plan validated"
  | Error msg ->
    checkb "rule id in message" true
      (contains_substring msg "part/stale-targets")

let test_corrupt_task_of_entry () =
  let plan = plan_of_main (diamond_main ()) Core.Heuristics.Basic_block in
  let part = find_main_part plan in
  let task_of_entry = Array.copy part.Core.Task.task_of_entry in
  task_of_entry.(0) <- -1;
  let bad = with_main_part plan { part with Core.Task.task_of_entry } in
  let ds = Lint.check_plan bad in
  checkb "part/entry-task" true (has_rule "part/entry-task" ds);
  checkb "part/entry-mismatch" true (has_rule "part/entry-mismatch" ds)

let test_corrupt_included_calls () =
  let plan = plan_of_main (diamond_main ()) Core.Heuristics.Basic_block in
  let part = find_main_part plan in
  let included_calls = Array.copy part.Core.Task.included_calls in
  included_calls.(3) <- true;
  (* block 3 ends in Halt, not a call *)
  let bad = with_main_part plan { part with Core.Task.included_calls } in
  checkb "part/included-noncall" true
    (has_rule "part/included-noncall" (Lint.check_plan bad))

let test_corrupt_connectivity () =
  let plan = plan_of_main (diamond_main ()) Core.Heuristics.Basic_block in
  let part = find_main_part plan in
  (* glue the join block onto the entry task: L3 is not reachable from L0
     without leaving the two-block set, so the task is disconnected *)
  let tasks = Array.copy part.Core.Task.tasks in
  let t0 = tasks.(0) in
  tasks.(0) <-
    { t0 with Core.Task.blocks = Core.Task.Iset.add 3 t0.Core.Task.blocks };
  let bad = with_main_part plan { part with Core.Task.tasks } in
  checkb "part/connected" true
    (has_rule "part/connected" (Lint.check_plan bad))

(* The diamond's bb artifact with its entry block unmapped from its task:
   walking the trace as task instances raises at the first event. *)
let unmapped_entry_artifact store =
  let entry =
    Workloads.Registry.of_program ~name:"diamond" (prog_of [ diamond_main () ])
  in
  let art =
    Harness.Artifact.get store ~level:Core.Heuristics.Basic_block entry
  in
  let plan = art.Harness.Artifact.plan in
  let part = find_main_part plan in
  let task_of_entry = Array.copy part.Core.Task.task_of_entry in
  task_of_entry.(0) <- -1;
  {
    art with
    Harness.Artifact.plan =
      with_main_part plan { part with Core.Task.task_of_entry };
  }

(* A plan error stands alone: the later audits and the simulations assume
   a valid plan, so check_artifact returns the plan's diagnostics only. *)
let test_gated_artifact () =
  let store = Harness.Artifact.create () in
  let bad = unmapped_entry_artifact store in
  let errs = Lint.Diag.errors (Lint.check_artifact store bad) in
  checkb "part/entry-task" true (has_rule "part/entry-task" errs);
  List.iter
    (fun rule ->
      checkb (rule ^ " is a part/* rule") true
        (Lint.rule_matches ~pat:"part/*" rule))
    (rules errs)

(* check_deps on the same plan: the memory-flow replay walks the task
   instances, and the walk's Not_closed is one dep/sound error. *)
let test_unchoppable_trace () =
  let store = Harness.Artifact.create () in
  let bad = unmapped_entry_artifact store in
  let errs =
    Lint.Diag.errors
      (Lint.check_deps bad.Harness.Artifact.plan bad.Harness.Artifact.trace)
  in
  Alcotest.(check (list string))
    "one dep/sound error"
    [
      "dep/sound: trace cannot be chopped into task instances: event 0: \
       block main/L0 is not a task entry";
    ]
    (List.map
       (fun (d : Lint.Diag.t) -> d.Lint.Diag.rule ^ ": " ^ d.Lint.Diag.message)
       errs)

(* --- regcomm: handcrafted CFGs, hand-computed answers ---------------------- *)

(* Diamond with a partial kill: r is rewritten on one arm only. *)
let test_regcomm_diamond_partial_kill () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          blk 0
            [ Ir.Insn.Li (r, 1); Ir.Insn.Li (c, 0) ]
            (Ir.Block.Br (c, 1, 2));
          blk 1 [ Ir.Insn.Li (r, 2) ] (Ir.Block.Jump 3);
          blk 2 [ Ir.Insn.Li (s, 5) ] (Ir.Block.Jump 3);
          blk 3 [] Ir.Block.Halt;
        |];
    }
  in
  let part = whole_task f in
  let rc = Core.Regcomm.create f part in
  (* hand-computed forward bits *)
  checkb "r@0 may be killed on the left arm" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  checkb "r@1 is final" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:1 ~idx:0 ~reg:r);
  checkb "s@2 is final" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:2 ~idx:0 ~reg:s);
  (* hand-computed release points *)
  checkb "entry: r still writable" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:0 ~reg:r);
  checkb "right arm: r released" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:2 ~reg:r);
  checkb "join: r released" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:3 ~reg:r);
  (* the task halts: every register is needed downstream *)
  checkb "needed on halt exit" true (Core.Regcomm.needed rc ~task:0 ~reg:s);
  (* and the independent audit agrees everywhere *)
  checki "audit agrees" 0 (List.length (Lint.check_regcomm f part))

(* Loop task re-entering its own entry: the back edge starts a fresh task
   instance, so it neither extends reachability nor kills forward bits. *)
let test_regcomm_loop_reentry () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          blk 0
            [
              Ir.Insn.Bin (Ir.Insn.Add, r, r, Ir.Insn.Imm 1);
              Ir.Insn.Bin (Ir.Insn.Lt, c, r, Ir.Insn.Imm 10);
            ]
            (Ir.Block.Br (c, 0, 1));
          blk 1 [] Ir.Block.Halt;
        |];
    }
  in
  let included_calls = [| false; false |] in
  let t =
    Core.Task.of_blocks f ~included_calls ~entry:0
      (Core.Task.Iset.singleton 0)
  in
  let u =
    Core.Task.of_blocks f ~included_calls ~entry:1
      (Core.Task.Iset.singleton 1)
  in
  let part =
    {
      Core.Task.fname = "main";
      tasks = [| t; u |];
      task_of_entry = [| 0; 1 |];
      included_calls;
    }
  in
  let rc = Core.Regcomm.create f part in
  checkb "increment forwardable despite back edge" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  checkb "condition forwardable" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:1 ~reg:c);
  checkb "loop block may rewrite its own regs" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:0 ~reg:r);
  checki "audit agrees" 0 (List.length (Lint.check_regcomm f part))

(* Included call kills everything: writes before it are not final, and the
   mega-write site itself is never forwardable (regression: Regcomm used to
   answer true there for registers nothing later rewrote). *)
let test_regcomm_included_call_kill_all () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (r, 1) ] (Ir.Block.Call ("callee", 1));
          blk 1 [ Ir.Insn.Li (s, 2) ] Ir.Block.Halt;
        |];
    }
  in
  let included_calls = [| true; false |] in
  let t =
    Core.Task.of_blocks f ~included_calls ~entry:0
      (Core.Task.Iset.of_list [ 0; 1 ])
  in
  let part =
    {
      Core.Task.fname = "main";
      tasks = [| t |];
      task_of_entry = [| 0; -1 |];
      included_calls;
    }
  in
  let rc = Core.Regcomm.create f part in
  checkb "write before included call not forwardable" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  (* the terminator index is the callee mega-write site: never forwardable,
     for any register — including one nothing later writes *)
  checkb "mega-write site not forwardable (r)" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:1 ~reg:r);
  checkb "mega-write site not forwardable (t5)" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:1 ~reg:(Ir.Reg.tmp 5));
  checkb "call block may rewrite anything" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:0 ~reg:(Ir.Reg.tmp 9));
  checkb "s@1 final" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:1 ~idx:0 ~reg:s);
  checkb "after call: r released" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:1 ~reg:r);
  checki "audit agrees" 0 (List.length (Lint.check_regcomm f part))

(* Dead-register analysis: a successor task that provably redefines r
   before reading it makes r's final value dead on the ring. *)
let test_regcomm_needed_dead_register () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (r, 1); Ir.Insn.Li (s, 7) ] (Ir.Block.Jump 1);
          blk 1 [ Ir.Insn.Li (r, 2); Ir.Insn.Mov (c, s) ] Ir.Block.Halt;
        |];
    }
  in
  let included_calls = [| false; false |] in
  let t0 =
    Core.Task.of_blocks f ~included_calls ~entry:0
      (Core.Task.Iset.singleton 0)
  in
  let t1 =
    Core.Task.of_blocks f ~included_calls ~entry:1
      (Core.Task.Iset.singleton 1)
  in
  let part =
    {
      Core.Task.fname = "main";
      tasks = [| t0; t1 |];
      task_of_entry = [| 0; 1 |];
      included_calls;
    }
  in
  let rc = Core.Regcomm.create f part in
  checkb "r dead: successor redefines first" false
    (Core.Regcomm.needed rc ~task:0 ~reg:r);
  checkb "s needed: successor reads it" true
    (Core.Regcomm.needed rc ~task:0 ~reg:s);
  checkb "halting task needs everything" true
    (Core.Regcomm.needed rc ~task:1 ~reg:r);
  checki "audit agrees" 0 (List.length (Lint.check_regcomm f part))

(* --- packed-trace decode audit ------------------------------------------- *)

let test_trace_decode () =
  let tr = (Interp.Run.execute (Gen.fib_program 8)).Interp.Run.trace in
  checki "clean trace lints clean" 0 (List.length (Lint.check_trace tr));
  (* smash the first event word: the fid field decodes out of range *)
  tr.Interp.Trace.packed.(0).(0) <- max_int;
  let ds = Lint.check_trace tr in
  checkb "trace/decode" true (has_rule "trace/decode" ds);
  checki "reported as error" (List.length ds)
    (List.length (Lint.Diag.errors ds))

(* The chunk layout the accessors assume: a trace of several chunks with
   one chunk cut short must be a [trace/decode] error naming the chunk, not
   an out-of-bounds read or a clean audit. *)
let chunked_trace () =
  let tr = (Interp.Run.execute (Gen.fib_program 14)).Interp.Run.trace in
  checkb "three or more event chunks" true
    (Array.length tr.Interp.Trace.packed >= 3);
  checkb "two or more pool chunks" true
    (Array.length tr.Interp.Trace.apool >= 2);
  checki "clean trace lints clean" 0 (List.length (Lint.check_trace tr));
  tr

let check_layout_error tr =
  let ds = Lint.check_trace tr in
  checkb "trace/decode" true (has_rule "trace/decode" ds);
  checki "reported as error" (List.length ds)
    (List.length (Lint.Diag.errors ds));
  checkb "names the chunk layout" true
    (List.exists (fun d -> contains_substring d.Lint.Diag.message "chunk") ds)

let test_trace_short_chunk () =
  let tr = chunked_trace () in
  let cs = tr.Interp.Trace.packed in
  cs.(1) <- Array.sub cs.(1) 0 (Interp.Trace.chunk - 1);
  check_layout_error tr

let test_trace_short_pool () =
  let tr = chunked_trace () in
  let cs = tr.Interp.Trace.apool in
  let last = Array.length cs - 1 in
  cs.(last) <- Array.sub cs.(last) 0 (Array.length cs.(last) - 1);
  check_layout_error tr

(* --- the whole suite, every workload x every level ------------------------- *)

let test_suite_zero_errors () =
  let store = Harness.Artifact.create () in
  let reports = Lint.check_suite ~store Workloads.Suite.all in
  checki "all plans checked"
    (List.length Core.Heuristics.all_levels * List.length Workloads.Suite.all)
    (List.length reports);
  List.iter
    (fun (rep : Lint.report) ->
      checki
        (Printf.sprintf "%s/%s clean" rep.Lint.workload
           (Core.Heuristics.level_name rep.Lint.level))
        0
        (List.length (Lint.Diag.errors rep.Lint.diags)))
    reports

(* The artifacts behind msc ablation and msc crossinput, which no report
   grid holds: the target limit, if-conversion, the optimiser, LOOP_THRESH
   and the alternative-input profiles. *)
let test_ablation_zero_errors () =
  let store = Harness.Artifact.create () in
  let arts = Report.Studies.artifacts store in
  checki "artifacts" 19 (List.length arts);
  List.iter
    (fun (art : Harness.Artifact.artifact) ->
      let key = art.Harness.Artifact.key in
      checki
        (Printf.sprintf "%s/%s clean" key.Harness.Artifact.workload
           (Core.Heuristics.level_name key.Harness.Artifact.level))
        0
        (List.length (Lint.Diag.errors (Lint.check_artifact store art))))
    arts

let () =
  Alcotest.run "lint"
    [
      ( "ir",
        [
          Alcotest.test_case "clean program" `Quick test_prog_clean;
          Alcotest.test_case "missing main" `Quick test_prog_no_main;
          Alcotest.test_case "label range" `Quick test_prog_label_range;
          Alcotest.test_case "block label" `Quick test_prog_block_label;
          Alcotest.test_case "call target" `Quick test_prog_call_target;
          Alcotest.test_case "unreachable" `Quick test_prog_unreachable;
          Alcotest.test_case "empty switch" `Quick test_prog_empty_switch;
          Alcotest.test_case "use before def" `Quick test_prog_use_before_def;
        ] );
      ( "partition",
        [
          Alcotest.test_case "clean plans" `Quick test_plan_clean;
          Alcotest.test_case "stale targets" `Quick test_corrupt_targets;
          Alcotest.test_case "entry unmapped" `Quick
            test_corrupt_task_of_entry;
          Alcotest.test_case "included non-call" `Quick
            test_corrupt_included_calls;
          Alcotest.test_case "disconnected" `Quick test_corrupt_connectivity;
          Alcotest.test_case "gated artifact" `Quick test_gated_artifact;
          Alcotest.test_case "unchoppable trace" `Quick test_unchoppable_trace;
        ] );
      ( "regcomm",
        [
          Alcotest.test_case "diamond partial kill" `Quick
            test_regcomm_diamond_partial_kill;
          Alcotest.test_case "loop re-entry" `Quick test_regcomm_loop_reentry;
          Alcotest.test_case "included call kill-all" `Quick
            test_regcomm_included_call_kill_all;
          Alcotest.test_case "dead register" `Quick
            test_regcomm_needed_dead_register;
        ] );
      ( "trace",
        [
          Alcotest.test_case "decode audit" `Quick test_trace_decode;
          Alcotest.test_case "short event chunk" `Quick test_trace_short_chunk;
          Alcotest.test_case "short address pool" `Quick test_trace_short_pool;
        ] );
      ( "suite",
        [
          Alcotest.test_case "zero errors everywhere" `Slow
            test_suite_zero_errors;
          Alcotest.test_case "ablation artifacts" `Slow
            test_ablation_zero_errors;
        ] );
    ]
