(* Tests for the classical optimisation pipeline: constant/copy propagation
   and folding, local CSE, peephole simplification, global DCE, and the
   combined fixpoint. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let result prog = Ir.Value.to_int (Interp.Run.execute prog).Interp.Run.result

let single_block insns term =
  {
    Ir.Func.name = "main";
    blocks = [| { Ir.Block.label = 0; insns = Array.of_list insns; term } |];
  }

let prog_of f =
  {
    Ir.Prog.funcs = Ir.Prog.Smap.singleton "main" f;
    main = "main";
    mem_init = [];
    mem_top = 0x1000;
  }

let t0 = Ir.Reg.tmp 0
let t1 = Ir.Reg.tmp 1
let t2 = Ir.Reg.tmp 2

(* --- constant propagation -------------------------------------------------- *)

let test_constprop_folds_chain () =
  let f =
    single_block
      [
        Ir.Insn.Li (t0, 6);
        Ir.Insn.Li (t1, 7);
        Ir.Insn.Bin (Ir.Insn.Mul, t2, t0, Ir.Insn.Reg t1);
        Ir.Insn.Bin (Ir.Insn.Add, Ir.Reg.rv, t2, Ir.Insn.Imm 0);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Constprop.run_func f in
  let has_li_42 =
    Array.exists
      (fun i -> i = Ir.Insn.Li (t2, 42) || i = Ir.Insn.Li (Ir.Reg.rv, 42))
      (Ir.Func.block f' 0).Ir.Block.insns
  in
  checkb "folded to 42" true has_li_42;
  checki "semantics" 42 (result (prog_of f'))

let test_constprop_keeps_div_by_zero () =
  let f =
    single_block
      [
        Ir.Insn.Li (t0, 5);
        Ir.Insn.Li (t1, 0);
        Ir.Insn.Bin (Ir.Insn.Div, Ir.Reg.rv, t0, Ir.Insn.Reg t1);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Constprop.run_func f in
  checkb "division preserved" true
    (Array.exists
       (fun i -> match i with Ir.Insn.Bin (Ir.Insn.Div, _, _, _) -> true | _ -> false)
       (Ir.Func.block f' 0).Ir.Block.insns);
  checkb "still faults" true
    (try
       ignore (result (prog_of f'));
       false
     with Interp.Run.Runtime_error _ -> true)

let test_constprop_folds_branch () =
  let f =
    {
      Ir.Func.name = "main";
      blocks =
        [|
          {
            Ir.Block.label = 0;
            insns = [| Ir.Insn.Li (t0, 1) |];
            term = Ir.Block.Br (t0, 1, 2);
          };
          {
            Ir.Block.label = 1;
            insns = [| Ir.Insn.Li (Ir.Reg.rv, 10) |];
            term = Ir.Block.Ret;
          };
          {
            Ir.Block.label = 2;
            insns = [| Ir.Insn.Li (Ir.Reg.rv, 20) |];
            term = Ir.Block.Ret;
          };
        |];
    }
  in
  let f' = Opt.Constprop.run_func f in
  checki "dead arm dropped" 2 (Ir.Func.num_blocks f');
  checki "semantics" 10 (result (prog_of f'))

let test_constprop_cmov () =
  let f =
    single_block
      [
        Ir.Insn.Li (Ir.Reg.rv, 1);
        Ir.Insn.Li (t0, 0);
        Ir.Insn.Li (t1, 99);
        Ir.Insn.Cmov (Ir.Reg.rv, t0, t1);  (* never fires: dropped *)
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Constprop.run_func f in
  checkb "cmov gone" true
    (Array.for_all
       (fun i -> match i with Ir.Insn.Cmov _ -> false | _ -> true)
       (Ir.Func.block f' 0).Ir.Block.insns);
  checki "semantics" 1 (result (prog_of f'))

(* --- DCE -------------------------------------------------------------------- *)

let test_dce_removes_dead () =
  let f =
    single_block
      [
        Ir.Insn.Li (t0, 5);        (* dead: overwritten *)
        Ir.Insn.Li (t0, 6);        (* dead: never read *)
        Ir.Insn.Li (Ir.Reg.rv, 1);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Dce.run_func f in
  (* rv is conservatively live at Ret; t0 writes must survive only if some
     path could read them — there is none inside, but the conservative
     exit-liveness keeps the LAST write of t0 *)
  checkb "first dead store removed" true
    (Array.for_all (fun i -> i <> Ir.Insn.Li (t0, 5))
       (Ir.Func.block f' 0).Ir.Block.insns);
  checki "semantics" 1 (result (prog_of f'))

let test_dce_keeps_stores () =
  let f =
    single_block
      [
        Ir.Insn.Li (t0, 4096);
        Ir.Insn.Li (t1, 7);
        Ir.Insn.Store (t1, t0, 0);
        Ir.Insn.Li (Ir.Reg.rv, 0);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Dce.run_func f in
  checkb "store kept" true
    (Array.exists
       (fun i -> match i with Ir.Insn.Store _ -> true | _ -> false)
       (Ir.Func.block f' 0).Ir.Block.insns)

(* --- CSE -------------------------------------------------------------------- *)

let count_matching p f =
  Array.fold_left
    (fun acc (b : Ir.Block.t) ->
      Array.fold_left (fun acc i -> if p i then acc + 1 else acc) acc
        b.Ir.Block.insns)
    0 f.Ir.Func.blocks

let test_cse_dedupes () =
  let f =
    single_block
      [
        Ir.Insn.Bin (Ir.Insn.Add, t1, t0, Ir.Insn.Imm 3);
        Ir.Insn.Bin (Ir.Insn.Add, t2, t0, Ir.Insn.Imm 3);  (* same expr *)
        Ir.Insn.Bin (Ir.Insn.Add, Ir.Reg.rv, t1, Ir.Insn.Reg t2);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Cse.run_func f in
  checki "one add of 3 left" 1
    (count_matching
       (fun i -> match i with
        | Ir.Insn.Bin (Ir.Insn.Add, _, _, Ir.Insn.Imm 3) -> true
        | _ -> false)
       f');
  checki "semantics" 6 (result (prog_of f'))

let test_cse_respects_redefinition () =
  let f =
    single_block
      [
        Ir.Insn.Bin (Ir.Insn.Add, t1, t0, Ir.Insn.Imm 3);
        Ir.Insn.Bin (Ir.Insn.Add, t0, t0, Ir.Insn.Imm 1);  (* t0 changes *)
        Ir.Insn.Bin (Ir.Insn.Add, t2, t0, Ir.Insn.Imm 3);  (* NOT the same *)
        Ir.Insn.Bin (Ir.Insn.Add, Ir.Reg.rv, t1, Ir.Insn.Reg t2);
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Cse.run_func f in
  checki "both adds of 3 survive" 2
    (count_matching
       (fun i -> match i with
        | Ir.Insn.Bin (Ir.Insn.Add, _, _, Ir.Insn.Imm 3) -> true
        | _ -> false)
       f');
  checki "semantics" 7 (result (prog_of f'))

let test_cse_load_store () =
  let f =
    single_block
      [
        Ir.Insn.Li (t0, 4096);
        Ir.Insn.Load (t1, t0, 0);
        Ir.Insn.Li (t2, 9);
        Ir.Insn.Store (t2, t0, 0);
        Ir.Insn.Load (Ir.Reg.rv, t0, 0);  (* after a store: must reload *)
      ]
      Ir.Block.Ret
  in
  let f' = Opt.Cse.run_func f in
  checki "both loads survive" 2
    (count_matching
       (fun i -> match i with Ir.Insn.Load _ -> true | _ -> false)
       f');
  checki "semantics" 9 (result (prog_of f'))

(* --- peephole ---------------------------------------------------------------- *)

let test_peephole_rules () =
  let open Ir.Insn in
  let cases =
    [
      (Bin (Mul, t1, t0, Imm 8), Some (Bin (Shl, t1, t0, Imm 3)));
      (Bin (Mul, t1, t0, Imm 1), Some (Mov (t1, t0)));
      (Bin (Add, t1, t0, Imm 0), Some (Mov (t1, t0)));
      (Bin (Xor, t1, t0, Reg t0), Some (Li (t1, 0)));
      (Bin (Mul, t1, t0, Imm 6), None) (* not a power of two *);
    ]
  in
  List.iter
    (fun (before, expected) ->
      let f = single_block [ before; Ir.Insn.Mov (Ir.Reg.rv, t1) ] Ir.Block.Ret in
      let f' = Opt.Peephole.run_func f in
      let got = (Ir.Func.block f' 0).Ir.Block.insns.(0) in
      match expected with
      | Some e -> checkb (Ir.Insn.to_string before) true (got = e)
      | None -> checkb (Ir.Insn.to_string before) true (got = before))
    cases

(* --- pipeline ----------------------------------------------------------------- *)

let test_pipeline_workloads_preserved () =
  List.iter
    (fun name ->
      let e = Workloads.Suite.find name in
      let prog = e.Workloads.Registry.build () in
      let base = Interp.Run.execute prog in
      let prog' = Opt.Pipeline.run prog in
      checkb name true (Ir.Prog.validate prog' = Ok ());
      checkb (name ^ " result") true
        (Ir.Value.equal base.Interp.Run.result
           (Interp.Run.execute prog').Interp.Run.result))
    [ "go"; "compress"; "tomcatv"; "cc" ]

let test_pipeline_shrinks_naive_code () =
  (* a deliberately naive code sequence: the pipeline should crush it *)
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 10;
      Ir.Builder.li b t1 20;
      Ir.Builder.bin b Ir.Insn.Add t2 t0 (Ir.Insn.Reg t1);
      Ir.Builder.bin b Ir.Insn.Add t2 t0 (Ir.Insn.Reg t1);
      Ir.Builder.bin b Ir.Insn.Mul t2 t2 (Ir.Insn.Imm 4);
      Ir.Builder.mov b t0 t2;
      Ir.Builder.mov b t1 t0;
      Ir.Builder.mov b Ir.Reg.rv t1;
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let prog' = Opt.Pipeline.run prog in
  checkb "shrunk" true (Ir.Prog.static_size prog' < Ir.Prog.static_size prog);
  checki "rv = (10+20)*4" 120 (result prog')

let test_optimize_option_in_partition () =
  (* the optimiser is an artifact variant, run before task selection *)
  let entry =
    {
      Workloads.Registry.name = "square_sum";
      kind = `Int;
      build = (fun () -> Gen.square_sum_program 30);
      build_alt = (fun () -> Gen.square_sum_program 30);
      description = "";
    }
  in
  let art =
    Harness.Artifact.get (Harness.Artifact.create ())
      ~variant:{ Harness.Artifact.base_variant with optimize = true }
      ~level:Core.Heuristics.Control_flow entry
  in
  let plan = art.Harness.Artifact.plan in
  checkb "optimized plan valid" true (Core.Partition.validate plan = Ok ());
  let o = Interp.Run.execute plan.Core.Partition.prog in
  checki "optimized semantics" (Gen.square_sum_spec 30)
    (Ir.Value.to_int o.Interp.Run.result)

let prop_pipeline_preserves =
  QCheck.Test.make ~name:"optimisation preserves results" ~count:40
    Gen.arbitrary_program (fun prog ->
      let base = Interp.Run.execute prog in
      let prog' = Opt.Pipeline.run prog in
      Ir.Prog.validate prog' = Ok ()
      && Ir.Value.equal base.Interp.Run.result
           (Interp.Run.execute prog').Interp.Run.result)

let prop_pipeline_never_grows =
  QCheck.Test.make ~name:"optimisation never grows static code" ~count:40
    Gen.arbitrary_program (fun prog ->
      Ir.Prog.static_size (Opt.Pipeline.run prog) <= Ir.Prog.static_size prog)

let () =
  Alcotest.run "opt"
    [
      ( "constprop",
        [
          Alcotest.test_case "folds chain" `Quick test_constprop_folds_chain;
          Alcotest.test_case "keeps div by zero" `Quick
            test_constprop_keeps_div_by_zero;
          Alcotest.test_case "folds branch" `Quick test_constprop_folds_branch;
          Alcotest.test_case "cmov" `Quick test_constprop_cmov;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "keeps stores" `Quick test_dce_keeps_stores;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedupes" `Quick test_cse_dedupes;
          Alcotest.test_case "redefinition" `Quick test_cse_respects_redefinition;
          Alcotest.test_case "load/store" `Quick test_cse_load_store;
        ] );
      ("peephole", [ Alcotest.test_case "rules" `Quick test_peephole_rules ]);
      ( "pipeline",
        [
          Alcotest.test_case "workloads preserved" `Quick
            test_pipeline_workloads_preserved;
          Alcotest.test_case "shrinks naive code" `Quick
            test_pipeline_shrinks_naive_code;
          Alcotest.test_case "partition option" `Quick
            test_optimize_option_in_partition;
          QCheck_alcotest.to_alcotest prop_pipeline_preserves;
          QCheck_alcotest.to_alcotest prop_pipeline_never_grows;
        ] );
    ]
