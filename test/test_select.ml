(* Tests for the task-selection heuristics (the paper's Figure 3) and the
   partition driver. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let params = Core.Heuristics.default
let no_calls f = Array.make (Ir.Func.num_blocks f) false

let find_task (part : Core.Task.partition) entry =
  match part.Core.Task.task_of_entry.(entry) with
  | -1 -> Alcotest.failf "no task at entry L%d" entry
  | i -> part.Core.Task.tasks.(i)

(* The partition audit every plan passes ([part/*]): connectivity, single
   entry, closure, stored exits against the CFG, block coverage and, given
   the level, the hardware target bound. *)
let valid ~level f part =
  Lint.Diag.errors (Lint.check_partition ~level ~params f part) = []

(* --- basic block tasks --------------------------------------------------- *)

let test_basic_block () =
  let prog = Gen.square_sum_program 5 in
  let f = Ir.Prog.find prog "main" in
  let part = Core.Select.basic_block f in
  checki "one task per block" (Ir.Func.num_blocks f)
    (Array.length part.Core.Task.tasks);
  checkb "valid" true (valid ~level:Core.Heuristics.Basic_block f part);
  Array.iter
    (fun (t : Core.Task.t) ->
      checki "singleton" 1 (Core.Task.Iset.cardinal t.Core.Task.blocks))
    part.Core.Task.tasks

(* --- control flow heuristic ---------------------------------------------- *)

let diamond_prog () =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 1;
      Ir.Builder.if_ b t0
        (fun b -> Ir.Builder.nop b)
        (fun b -> Ir.Builder.nop b);
      Ir.Builder.li b Ir.Reg.rv 0;
      Ir.Builder.ret b);
  Ir.Builder.finish pb ~main:"main"

let test_cf_reconvergence () =
  (* a diamond reconverges: one task, despite two internal paths *)
  let prog = diamond_prog () in
  let f = Ir.Prog.find prog "main" in
  let part = Core.Select.control_flow params f ~included_calls:(no_calls f) in
  checkb "valid" true (valid ~level:Core.Heuristics.Control_flow f part);
  let t = find_task part Ir.Func.entry in
  checki "whole diamond in one task" (Ir.Func.num_blocks f)
    (Core.Task.Iset.cardinal t.Core.Task.blocks)

let test_cf_loop_body_task () =
  let prog = Gen.square_sum_program 5 in
  let f = Ir.Prog.find prog "main" in
  let part = Core.Select.control_flow params f ~included_calls:(no_calls f) in
  checkb "valid" true (valid ~level:Core.Heuristics.Control_flow f part);
  let loops = Gen.loops f in
  let lo = List.hd loops.Analysis.Loops.loops in
  let t = find_task part lo.Analysis.Loops.header in
  (* the loop-body task's targets include its own entry (next iteration) *)
  checkb "re-entry target" true
    (List.mem lo.Analysis.Loops.header t.Core.Task.targets);
  (* the loop body blocks are all inside it *)
  checkb "covers body" true
    (List.for_all
       (fun l -> Core.Task.Iset.mem l t.Core.Task.blocks)
       lo.Analysis.Loops.blocks)

let test_cf_call_terminates () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "leaf" (fun b -> Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.nop b;
      Ir.Builder.call b "leaf";
      Ir.Builder.nop b;
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let f = Ir.Prog.find prog "main" in
  let part = Core.Select.control_flow params f ~included_calls:(no_calls f) in
  checkb "valid" true (valid ~level:Core.Heuristics.Control_flow f part);
  let t = find_task part Ir.Func.entry in
  checkb "call is an out-call" true (t.Core.Task.calls_out = [ "leaf" ]);
  (* the continuation is a separate task even though nobody targets it *)
  checkb "continuation is a task entry" true
    (Array.exists
       (fun (t : Core.Task.t) ->
         t.Core.Task.entry <> Ir.Func.entry && t.Core.Task.has_ret)
       part.Core.Task.tasks)

let switch_prog arms =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 2;
      Ir.Builder.switch_ b t0
        (Array.init arms (fun i b -> Ir.Builder.li b Ir.Reg.rv i))
        ~default:(fun b -> Ir.Builder.li b Ir.Reg.rv 99);
      Ir.Builder.ret b);
  Ir.Builder.finish pb ~main:"main"

let test_cf_target_limit () =
  (* an 8-way switch reconverges: greedy exploration should still swallow it
     because the join reduces targets back to one *)
  let prog = switch_prog 8 in
  let f = Ir.Prog.find prog "main" in
  let part = Core.Select.control_flow params f ~included_calls:(no_calls f) in
  checkb "valid" true (valid ~level:Core.Heuristics.Control_flow f part);
  let t = find_task part Ir.Func.entry in
  checkb "targets within limit" true
    (Core.Task.num_hw_targets t <= params.Core.Heuristics.max_targets)

let prop_cf_partitions_valid =
  QCheck.Test.make ~name:"control-flow partitions are valid and closed"
    ~count:40 Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun name ->
          let f = Ir.Prog.find prog name in
          let part =
            Core.Select.control_flow params f ~included_calls:(no_calls f)
          in
          valid ~level:Core.Heuristics.Control_flow f part)
        (Ir.Prog.func_names prog))

let prop_cf_multiblock_within_limit =
  QCheck.Test.make
    ~name:"multi-block control-flow tasks respect the target limit" ~count:40
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun name ->
          let f = Ir.Prog.find prog name in
          let part =
            Core.Select.control_flow params f ~included_calls:(no_calls f)
          in
          Array.for_all
            (fun (t : Core.Task.t) ->
              Core.Task.Iset.cardinal t.Core.Task.blocks = 1
              || Core.Task.num_hw_targets t
                 <= params.Core.Heuristics.max_targets)
            part.Core.Task.tasks)
        (Ir.Prog.func_names prog))

(* --- data dependence heuristic ------------------------------------------- *)

let test_dd_no_deps_equals_cf () =
  let prog = diamond_prog () in
  let f = Ir.Prog.find prog "main" in
  let cf = Core.Select.control_flow params f ~included_calls:(no_calls f) in
  let dd =
    Core.Select.data_dependence params f ~included_calls:(no_calls f) ~deps:[]
  in
  checkb "same number of tasks" true
    (Array.length cf.Core.Task.tasks = Array.length dd.Core.Task.tasks);
  checkb "same block sets" true
    (Array.for_all2
       (fun (a : Core.Task.t) (b : Core.Task.t) ->
         Core.Task.Iset.equal a.Core.Task.blocks b.Core.Task.blocks)
       cf.Core.Task.tasks dd.Core.Task.tasks)

let prop_dd_partitions_valid =
  QCheck.Test.make ~name:"data-dependence partitions are valid" ~count:25
    Gen.arbitrary_program (fun prog ->
      let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
      Core.Partition.validate plan = Ok ())

(* --- partition driver ---------------------------------------------------- *)

let test_build_all_levels () =
  let prog = Gen.fib_program 10 in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      match Core.Partition.validate plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) e)
    Core.Heuristics.all_levels

let test_dep_edges_sorted () =
  let prog = Gen.square_sum_program 20 in
  let o = Interp.Run.execute prog in
  let tr = o.Interp.Run.trace in
  let fid = Interp.Trace.fid tr "main" in
  let deps =
    Core.Partition.dep_edges_of_profile o.Interp.Run.profile ~fid
      tr.Interp.Trace.funcs.(fid)
  in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Core.Select.freq >= b.Core.Select.freq && sorted rest
    | _ -> true
  in
  checkb "deps sorted by frequency" true (sorted deps);
  checkb "some deps profiled" true
    (List.exists (fun d -> d.Core.Select.freq > 0) deps)

let prop_build_deterministic =
  QCheck.Test.make ~name:"partitioning is deterministic" ~count:15
    Gen.arbitrary_program (fun prog ->
      let p1 = Core.Partition.build Core.Heuristics.Control_flow prog in
      let p2 = Core.Partition.build Core.Heuristics.Control_flow prog in
      Ir.Prog.Smap.equal
        (fun (a : Core.Task.partition) b ->
          Array.length a.Core.Task.tasks = Array.length b.Core.Task.tasks
          && Array.for_all2
               (fun (x : Core.Task.t) (y : Core.Task.t) ->
                 Core.Task.Iset.equal x.Core.Task.blocks y.Core.Task.blocks)
               a.Core.Task.tasks b.Core.Task.tasks)
        p1.Core.Partition.parts p2.Core.Partition.parts)

(* --- the exit walk and the target count ------------------------------------ *)

module Iset = Core.Task.Iset

(* of_blocks as it was, over Ir.Block.successors lists *)
let old_of_blocks f ~included_calls ~entry blocks =
  let targets = ref Iset.empty and calls_out = ref [] and has_ret = ref false in
  Iset.iter
    (fun b ->
      let blk = Ir.Func.block f b in
      match blk.Ir.Block.term with
      | Ir.Block.Call (callee, _) when not included_calls.(b) ->
        calls_out := callee :: !calls_out
      | Ir.Block.Ret | Ir.Block.Halt -> has_ret := true
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
        ->
        List.iter
          (fun s ->
            if s = entry || not (Iset.mem s blocks) then
              targets := Iset.add s !targets)
          (Ir.Block.successors blk))
    blocks;
  {
    Core.Task.entry;
    blocks;
    targets = Iset.elements !targets;
    calls_out = List.sort_uniq compare !calls_out;
    has_ret = !has_ret;
  }

let exit_func terms =
  {
    Ir.Func.name = "exits";
    blocks =
      Array.mapi
        (fun label term -> { Ir.Block.label; insns = [||]; term })
        terms;
  }

(* Every entry and every block set of [f] under [included_calls], one
   marks value serving all of them in turn: the count must equal the
   record's, and the record the old definition's. *)
let check_exits f ~included_calls sets =
  let marks = Core.Task.marks f ~included_calls in
  List.iter
    (fun (entry, blocks) ->
      let t = Core.Task.of_blocks f ~included_calls ~entry blocks in
      if t <> old_of_blocks f ~included_calls ~entry blocks then
        Alcotest.failf "of_blocks differs from the old definition at L%d {%s}"
          entry
          (String.concat "," (List.map string_of_int (Iset.elements blocks)));
      let want = Core.Task.num_hw_targets t in
      let got = Core.Task.count_hw_targets marks ~entry blocks in
      if got <> want then
        Alcotest.failf "count_hw_targets %d, of_blocks %d at L%d {%s}" got want
          entry
          (String.concat "," (List.map string_of_int (Iset.elements blocks))))
    sets

let subsets n =
  List.init (1 lsl n) (fun mask ->
      Iset.of_list (List.filter (fun b -> mask land (1 lsl b) <> 0) (List.init n Fun.id)))

(* One function with each shape the count must dedupe: a switch naming a
   label twice (and the entry), a callee called from two blocks, a branch
   with both arms the same, a successor that is the task entry, and an
   included call; every entry and block set, with and without the
   inclusion. *)
let test_count_shapes () =
  let f =
    exit_func
      [|
        Ir.Block.Switch (1, [| 1; 2; 1; 0 |], 2);
        Ir.Block.Call ("g", 3);
        Ir.Block.Br (1, 4, 4);
        Ir.Block.Call ("g", 5);
        Ir.Block.Call ("h", 0);
        Ir.Block.Jump 0;
        Ir.Block.Ret;
      |]
  in
  let n = Ir.Func.num_blocks f in
  let sets =
    List.concat_map
      (fun entry -> List.map (fun s -> (entry, s)) (subsets n))
      (List.init n Fun.id)
  in
  check_exits f ~included_calls:(Array.make n false) sets;
  check_exits f
    ~included_calls:(Array.init n (fun b -> b = 1 || b = 4))
    sets;
  (* the count allocates nothing: both readings box one float *)
  let marks = Core.Task.marks f ~included_calls:(Array.make n false) in
  let all = Iset.of_list (List.init n Fun.id) in
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let count () = ignore (Core.Task.count_hw_targets marks ~entry:0 all) in
  count ();
  Alcotest.(check (float 0.0)) "words beyond an empty reading" 0.0
    (words count -. words ignore)

(* Random functions of up to 8 blocks, whose small label range makes
   repeated switch labels, repeated callees and successors that are the
   entry common, each with random included calls and 30 random
   (entry, block set) pairs read through one marks value. *)
let gen_exit_case =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    let label = int_bound (n - 1) in
    let term =
      frequency
        [
          (2, map (fun l -> Ir.Block.Jump l) label);
          (2, map2 (fun a b -> Ir.Block.Br (1, a, b)) label label);
          (1, map (fun l -> Ir.Block.Br (1, l, l)) label);
          ( 2,
            map2
              (fun ls d -> Ir.Block.Switch (1, Array.of_list ls, d))
              (list_size (int_range 1 5) label)
              label );
          ( 3,
            map2 (fun g c -> Ir.Block.Call (g, c)) (oneofl [ "f"; "g"; "h" ])
              label );
          (1, return Ir.Block.Ret);
          (1, return Ir.Block.Halt);
        ]
    in
    let set = map (fun l -> Iset.of_list l) (list_size (int_range 0 n) label) in
    triple (array_repeat n term) (array_repeat n bool)
      (list_repeat 30 (pair label set)))

let prop_count_model =
  QCheck.Test.make ~count:500
    ~name:"count_hw_targets equals num_hw_targets of of_blocks"
    (QCheck.make gen_exit_case) (fun (terms, included, sets) ->
      check_exits (exit_func terms) ~included_calls:included sets;
      true)

let () =
  Alcotest.run "select"
    [
      ("basic block", [ Alcotest.test_case "partition" `Quick test_basic_block ]);
      ( "control flow",
        [
          Alcotest.test_case "reconvergence" `Quick test_cf_reconvergence;
          Alcotest.test_case "loop body task" `Quick test_cf_loop_body_task;
          Alcotest.test_case "calls terminate" `Quick test_cf_call_terminates;
          Alcotest.test_case "target limit" `Quick test_cf_target_limit;
          QCheck_alcotest.to_alcotest prop_cf_partitions_valid;
          QCheck_alcotest.to_alcotest prop_cf_multiblock_within_limit;
        ] );
      ( "data dependence",
        [
          Alcotest.test_case "no deps = control flow" `Quick
            test_dd_no_deps_equals_cf;
          QCheck_alcotest.to_alcotest prop_dd_partitions_valid;
        ] );
      ( "exit walk",
        [
          Alcotest.test_case "count shapes" `Quick test_count_shapes;
          QCheck_alcotest.to_alcotest prop_count_model;
        ] );
      ( "driver",
        [
          Alcotest.test_case "all levels" `Quick test_build_all_levels;
          Alcotest.test_case "dep edges sorted" `Quick test_dep_edges_sorted;
          QCheck_alcotest.to_alcotest prop_build_deterministic;
        ] );
    ]
