(* Cycle-exact differential between the event-driven, structure-of-arrays
   engine (Sim.Engine) and the frozen pre-event-core oracle
   (Sim_ref.Engine_ref): over random programs, all four heuristic levels
   and a grid of machine shapes, the two cores must agree on every
   statistic, every cycle-account category, and the full per-task schedule
   (PU, assign, complete, retire, misprediction, violation count).  Also
   pins one prep shared across machines to a fresh prep per machine, and
   one machine reused across runs to a fresh machine per run. *)

let pipelines prog =
  List.map
    (fun level ->
      let plan = Core.Partition.build level prog in
      let trace =
        (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
      in
      (plan, trace))
    Core.Heuristics.all_levels

(* machine shapes: the table-1 corners plus stress variants — a tiny ARB to
   force overflow stalls and a machine with oracle task prediction *)
let machine_grid =
  [
    Sim.Config.default ~num_pus:1 ~in_order:false;
    Sim.Config.default ~num_pus:2 ~in_order:true;
    Sim.Config.default ~num_pus:4 ~in_order:false;
    Sim.Config.default ~num_pus:8 ~in_order:true;
    { (Sim.Config.default ~num_pus:4 ~in_order:false) with
      Sim.Config.arb_entries_per_pu = 2 };
    { (Sim.Config.default ~num_pus:8 ~in_order:false) with
      Sim.Config.perfect_task_pred = true };
  ]

(* --- reads of a register no earlier task wrote --------------------------- *)

(* The two highest temporaries no instruction of [prog] writes: [r], which
   the program will read, and [d], which those reads write. *)
let unwritten prog =
  let written = Array.make Ir.Reg.count false in
  List.iter
    (fun name ->
      Array.iter
        (fun (b : Ir.Block.t) ->
          Array.iter
            (fun i -> List.iter (fun r -> written.(r) <- true) (Ir.Insn.defs i))
            b.Ir.Block.insns)
        (Ir.Prog.find prog name).Ir.Func.blocks)
    (Ir.Prog.func_names prog);
  match
    List.filter
      (fun r -> r >= Ir.Reg.tmp 0 && not written.(r))
      (List.init Ir.Reg.count (fun i -> Ir.Reg.count - 1 - i))
  with
  | r :: d :: _ -> (r, d)
  | _ -> invalid_arg "unwritten: fewer than two temporaries left"

let map_blocks f prog =
  Ir.Prog.map_funcs
    (fun fn -> { fn with Ir.Func.blocks = Array.map (f fn) fn.Ir.Func.blocks })
    prog

(* [prog] reading [r] into [d] at the top of every block, so every task
   reads a register that none of them writes *)
let reading r d prog =
  map_blocks
    (fun _ (b : Ir.Block.t) ->
      let read = [| Ir.Insn.Mov (d, r) |] in
      { b with Ir.Block.insns = Array.append read b.Ir.Block.insns })
    prog

(* [other] writing [r] at the end of every block that returns from its
   main: the run's last task sends it, late *)
let writing_late r (other : Ir.Prog.t) =
  map_blocks
    (fun fn (b : Ir.Block.t) ->
      match b.Ir.Block.term with
      | Ir.Block.Ret when fn.Ir.Func.name = other.Ir.Prog.main ->
        let write = [| Ir.Insn.Li (r, 7) |] in
        { b with Ir.Block.insns = Array.append b.Ir.Block.insns write }
      | _ -> b)
    other

let with_unwritten_reads prog =
  let r, d = unwritten prog in
  reading r d prog

let differential cfg (plan, trace) =
  Sim_ref.Engine_ref.differential cfg (Sim.Engine.prepare plan trace) plan
    trace

(* each drawn program as it is and reading a register no task writes *)
let prop_differential =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"event core matches the frozen oracle cycle-for-cycle"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun pipe ->
          List.iter
            (fun cfg ->
              match differential cfg pipe with
              | None -> ()
              | Some msg ->
                QCheck.Test.fail_reportf "%dPU: %s" cfg.Sim.Config.num_pus
                  msg)
            machine_grid)
        (pipelines prog @ pipelines (with_unwritten_reads prog));
      true)

let prop_prepared_matches =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"one shared prep reproduces every per-config run"
    Gen.arbitrary_program (fun prog ->
      List.iter
        (fun (plan, trace) ->
          let prep = Sim.Engine.prepare plan trace in
          List.iter
            (fun cfg ->
              let fresh =
                Sim.Engine.run_prepared cfg (Sim.Engine.prepare plan trace)
                  trace
              in
              let shared = Sim.Engine.run_prepared cfg prep trace in
              if fresh.Sim.Engine.stats <> shared.Sim.Engine.stats then
                QCheck.Test.fail_reportf
                  "%dPU: the shared prep diverges from a fresh one"
                  cfg.Sim.Config.num_pus)
            machine_grid)
        (pipelines prog);
      true)

(* A run's statistics (cycle account included), instance count and
   per-task schedule as its observer sees it. *)
let observed run =
  let log = ref [] in
  let r =
    run ~observer:(fun (e : Sim.Engine.event) ->
        log :=
          Sim.Engine.(e.e_index, e.e_pu, e.e_assign, e.e_complete, e.e_retire,
                      e.e_mispredicted, e.e_violations)
          :: !log)
  in
  (r.Sim.Engine.stats, r.Sim.Engine.instances, !log)

exception Halfway

(* One machine of each shape runs [other] (a prep and its trace), then
   every one of [runs] forward, then a run that its observer stops halfway
   through the trace, then every one backward: each compared run must
   equal the same run on a fresh machine.  The first divergence, if any. *)
let reuse_diverges (other_prep, other_trace) runs =
  let diverged = ref None in
  List.iter
    (fun cfg ->
      let fresh =
        List.map
          (fun (prep, trace) ->
            ( prep,
              trace,
              observed (fun ~observer ->
                  Sim.Engine.run_prepared ~observer cfg prep trace) ))
          runs
      in
      let m = Sim.Engine.machine cfg in
      let check order (prep, trace, expected) =
        let reused =
          observed (fun ~observer -> Sim.Engine.run_on ~observer m prep trace)
        in
        if reused <> expected && !diverged = None then
          diverged :=
            Some
              (Printf.sprintf
                 "%dPU, %s: the reused machine diverges from a fresh one"
                 cfg.Sim.Config.num_pus order)
      in
      ignore (Sim.Engine.run_on m other_prep other_trace);
      List.iter (check "forward") fresh;
      (let prep, trace, (_, instances, _) = List.hd fresh in
       try
         ignore
           (Sim.Engine.run_on m prep trace ~observer:(fun e ->
                if e.Sim.Engine.e_index >= instances / 2 then raise Halfway))
       with Halfway -> ());
      List.iter (check "backward") (List.rev fresh))
    machine_grid;
  !diverged

let prepared (plan, trace) = (Sim.Engine.prepare plan trace, trace)

(* Each drawn pair in the pattern of the t9 case below: [prog] reads, in
   every task, a register it never writes, which [other] writes in its
   last task.  Only the machine's reset of the send times, send stamps
   and last writers keeps [other]'s late send out of [prog]'s runs. *)
let prop_reused_machine =
  QCheck.Test.make ~count:10 ~max_gen:50
    ~name:"a reused machine reproduces every fresh run"
    (QCheck.pair Gen.arbitrary_program Gen.arbitrary_program)
    (fun (other, prog) ->
      let r, d = unwritten prog in
      let other = writing_late r other and prog = reading r d prog in
      match
        reuse_diverges
          (prepared (List.hd (pipelines other)))
          (List.map prepared (pipelines prog))
      with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* deterministic anchor: a real workload's pipelines through both cores *)
let test_workload_differential () =
  let entry = Workloads.Suite.find "compress" in
  let store = Harness.Artifact.create () in
  List.iter
    (fun level ->
      let art = Harness.Artifact.get store ~level entry in
      let pipe = (art.Harness.Artifact.plan, art.Harness.Artifact.trace) in
      let cfg = Sim.Config.default ~num_pus:4 ~in_order:false in
      Alcotest.(check (option string))
        (Core.Heuristics.level_name level)
        None (differential cfg pipe))
    Core.Heuristics.all_levels

(* Two 40-trip loops.  The writer carries t9 through a division in every
   trip, so its last writer of t9 is a late task with a late send; the
   reader reads t9 in every trip and never writes it. *)
let t9_writer =
  "func main {\nL0:\n  li t9, 7\n  li t0, 0\n  jump L1\nL1:\n\
  \  slt r3, t0, #40\n  br r3, L2, L3\nL2:\n  div t9, t9, #1\n\
  \  add t0, t0, #1\n  jump L1\nL3:\n  ret\n}\nmain main\n"

let t9_reader =
  "func main {\nL0:\n  li t1, 0\n  li t0, 0\n  jump L1\nL1:\n\
  \  slt r3, t0, #40\n  br r3, L2, L3\nL2:\n  add t1, t1, t9\n\
  \  add t0, t0, #1\n  jump L1\nL3:\n  mov rv, t1\n  ret\n}\nmain main\n"

(* the same on real workloads, compress's dd pipeline and then m88ksim's
   four, whose runs squash on memory dependences and fill the
   synchronization table; and on the reader's pipelines after the
   writer's, where only the last-writer table or the send stamps keep the
   writer's late send out of the reader's runs *)
let test_workload_reuse () =
  let store = Harness.Artifact.create () in
  let pipe entry level =
    let art = Harness.Artifact.get store ~level entry in
    (Harness.Artifact.prep store art, art.Harness.Artifact.trace)
  in
  let parsed name text =
    match Ir.Parse.program text with
    | Ok prog -> Workloads.Registry.of_program ~name prog
    | Error e -> Alcotest.failf "parse: %s" e
  in
  Alcotest.(check (option string))
    "m88ksim after compress" None
    (reuse_diverges
       (pipe (Workloads.Suite.find "compress") Core.Heuristics.Data_dependence)
       (List.map
          (pipe (Workloads.Suite.find "m88ksim"))
          Core.Heuristics.all_levels));
  Alcotest.(check (option string))
    "a register no task of the run writes" None
    (reuse_diverges
       (pipe (parsed "writer" t9_writer) Core.Heuristics.Basic_block)
       (List.map (pipe (parsed "reader" t9_reader)) Core.Heuristics.all_levels))

let () =
  Alcotest.run "event_core"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_prepared_matches;
          QCheck_alcotest.to_alcotest prop_reused_machine;
          Alcotest.test_case "compress workload" `Quick
            test_workload_differential;
          Alcotest.test_case "workloads, reused machine" `Quick
            test_workload_reuse;
        ] );
    ]
