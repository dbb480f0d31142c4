(* Tests for the SPEC95-like workload suite: every kernel builds, validates,
   terminates, and produces its golden (deterministic) result; the suite has
   the structural properties the paper relies on. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* golden results: the workloads are deterministic, so any unintended change
   to a kernel or to interpreter semantics shows up here *)
let goldens =
  [
    ("go", 6227);
    ("m88ksim", 140557);
    ("cc", -6522900);
    ("compress", 28147);
    ("li", 6352);
    ("ijpeg", 33232);
    ("perl", 604);
    ("vortex", 41398);
    ("tomcatv", 8379);
    ("swim", 8501);
    ("su2cor", 51357);
    ("hydro2d", 20026);
    ("mgrid", 23712);
    ("applu", 122385);
    ("turb3d", 1490645);
    ("apsi", 121372);
    ("fpppp", 117972);
    ("wave5", 1302400);
  ]

let test_goldens () =
  List.iter
    (fun (name, expected) ->
      let e = Workloads.Suite.find name in
      let o = Interp.Run.execute (e.Workloads.Registry.build ()) in
      checki name expected (Ir.Value.to_int o.Interp.Run.result))
    goldens

let test_levels_preserve_results () =
  (* task selection at every level, fb included, must not change what a
     workload computes: each partitioned program returns the golden *)
  let entries = List.map (fun (name, _) -> Workloads.Suite.find name) goldens in
  List.iter
    (fun (name, level, got) ->
      checki
        (Printf.sprintf "%s at %s" name (Harness.Job.level_tag level))
        (List.assoc name goldens) got)
    (Harness.Artifact.grid (Harness.Artifact.create ())
       ~levels:Core.Heuristics.extended_levels entries (fun art ->
         let key = art.Harness.Artifact.key in
         ( key.Harness.Artifact.workload,
           key.Harness.Artifact.level,
           Ir.Value.to_int
             (Interp.Run.execute art.Harness.Artifact.plan.Core.Partition.prog)
               .Interp.Run.result )))

let test_all_build_and_validate () =
  List.iter
    (fun e ->
      let prog = e.Workloads.Registry.build () in
      match Ir.Prog.validate prog with
      | Ok () -> ()
      | Error err -> Alcotest.failf "%s: %s" e.Workloads.Registry.name err)
    Workloads.Suite.all

let test_all_terminate_in_budget () =
  List.iter
    (fun e ->
      let o =
        Interp.Run.execute ~max_steps:1_000_000 (e.Workloads.Registry.build ())
      in
      checkb
        (e.Workloads.Registry.name ^ " size sane")
        true
        (o.Interp.Run.steps > 5_000 && o.Interp.Run.steps < 1_000_000))
    Workloads.Suite.all

let test_suite_composition () =
  checki "8 integer benchmarks" 8 (List.length Workloads.Suite.integer);
  checki "10 fp benchmarks" 10 (List.length Workloads.Suite.floating);
  checki "names unique" 18
    (List.length (List.sort_uniq compare (Workloads.Suite.names ())));
  checkb "find works" true
    (String.equal (Workloads.Suite.find "compress").Workloads.Registry.name
       "compress");
  checkb "find raises" true
    (try
       ignore (Workloads.Suite.find "nonexistent");
       false
     with Not_found -> true)

let count_fp_insns prog =
  Ir.Prog.Smap.fold
    (fun _ f acc ->
      Array.fold_left
        (fun acc b ->
          Array.fold_left
            (fun acc i ->
              match Ir.Insn.fu_class i with
              | Ir.Insn.Fu_fp | Ir.Insn.Fu_fp_div -> acc + 1
              | Ir.Insn.Fu_int | Ir.Insn.Fu_int_mul | Ir.Insn.Fu_int_div
              | Ir.Insn.Fu_load | Ir.Insn.Fu_store -> acc)
            acc b.Ir.Block.insns)
        acc f.Ir.Func.blocks)
    prog.Ir.Prog.funcs 0

let test_fp_workloads_use_fp () =
  List.iter
    (fun e ->
      let prog = e.Workloads.Registry.build () in
      checkb (e.Workloads.Registry.name ^ " has fp work") true
        (count_fp_insns prog > 10))
    Workloads.Suite.floating

let test_int_workloads_mostly_int () =
  List.iter
    (fun e ->
      let prog = e.Workloads.Registry.build () in
      checki (e.Workloads.Registry.name ^ " has no fp") 0 (count_fp_insns prog))
    Workloads.Suite.integer

(* the paper's Table 1: integer basic blocks are small, fp blocks larger *)
let avg_block_size prog =
  let total = Ir.Prog.static_size prog in
  let blocks =
    Ir.Prog.Smap.fold
      (fun _ f acc -> acc + Ir.Func.num_blocks f)
      prog.Ir.Prog.funcs 0
  in
  float_of_int total /. float_of_int blocks

let test_block_size_shape () =
  let avg kind =
    let entries =
      List.filter (fun e -> e.Workloads.Registry.kind = kind) Workloads.Suite.all
    in
    List.fold_left
      (fun acc e -> acc +. avg_block_size (e.Workloads.Registry.build ()))
      0.0 entries
    /. float_of_int (List.length entries)
  in
  checkb "fp blocks bigger than int blocks on average" true
    (avg `Fp > avg `Int)

let test_fpppp_has_huge_blocks () =
  let prog = (Workloads.Suite.find "fpppp").Workloads.Registry.build () in
  let biggest =
    Ir.Prog.Smap.fold
      (fun _ f acc ->
        Array.fold_left
          (fun acc b -> max acc (Ir.Block.size b))
          acc f.Ir.Func.blocks)
      prog.Ir.Prog.funcs 0
  in
  checkb "fpppp block > 100 insns" true (biggest > 100)

let test_interpreter_workloads_have_switches () =
  (* m88ksim and li-style dispatch: at least m88ksim must use Switch *)
  let prog = (Workloads.Suite.find "m88ksim").Workloads.Registry.build () in
  let has_switch =
    Ir.Prog.Smap.exists
      (fun _ f ->
        Array.exists
          (fun b ->
            match b.Ir.Block.term with
            | Ir.Block.Switch _ -> true
            | _ -> false)
          f.Ir.Func.blocks)
      prog.Ir.Prog.funcs
  in
  checkb "m88ksim dispatches via switch" true has_switch

let test_call_structure () =
  (* go/cc/li/perl/vortex are call-heavy; compress is single-function *)
  let funcs name =
    let prog = (Workloads.Suite.find name).Workloads.Registry.build () in
    List.length (Ir.Prog.func_names prog)
  in
  checki "compress single function" 1 (funcs "compress");
  checkb "cc multi-function" true (funcs "cc" >= 4);
  checkb "go has helpers" true (funcs "go" >= 3)

let test_alt_inputs_differ () =
  (* the alternative input must change the data (different results) while
     keeping the structure (same CFGs) *)
  List.iter
    (fun name ->
      let e = Workloads.Suite.find name in
      let a = e.Workloads.Registry.build () in
      let b = e.Workloads.Registry.build_alt () in
      checkb (name ^ " same structure") true
        (List.for_all2
           (fun fa fb ->
             let f1 = Ir.Prog.find a fa and f2 = Ir.Prog.find b fb in
             Ir.Func.num_blocks f1 = Ir.Func.num_blocks f2)
           (Ir.Prog.func_names a) (Ir.Prog.func_names b));
      let ra = (Interp.Run.execute a).Interp.Run.result in
      let rb = (Interp.Run.execute b).Interp.Run.result in
      checkb (name ^ " different data") true (not (Ir.Value.equal ra rb)))
    [ "compress"; "go"; "tomcatv"; "li" ]

let test_cross_profile_plan_valid () =
  let e = Workloads.Suite.find "compress" in
  let prog = e.Workloads.Registry.build () in
  let store = Harness.Artifact.create () in
  List.iter
    (fun level ->
      let plan =
        (Harness.Artifact.get store ~profile_alt:true ~level e)
          .Harness.Artifact.plan
      in
      match Core.Partition.validate plan with
      | Ok () ->
        (* the plan must carry the EVALUATION program *)
        let o = Interp.Run.execute plan.Core.Partition.prog in
        let base = Interp.Run.execute prog in
        checkb
          (Core.Heuristics.level_name level ^ " evaluates reference input")
          true
          (Ir.Value.equal o.Interp.Run.result base.Interp.Run.result)
      | Error err ->
        Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) err)
    Core.Heuristics.all_levels

let () =
  Alcotest.run "workloads"
    [
      ( "correctness",
        [
          Alcotest.test_case "goldens" `Quick test_goldens;
          Alcotest.test_case "validate" `Quick test_all_build_and_validate;
          Alcotest.test_case "terminate" `Quick test_all_terminate_in_budget;
          Alcotest.test_case "every level preserves the goldens" `Slow
            test_levels_preserve_results;
        ] );
      ( "structure",
        [
          Alcotest.test_case "suite composition" `Quick test_suite_composition;
          Alcotest.test_case "fp uses fp" `Quick test_fp_workloads_use_fp;
          Alcotest.test_case "int avoids fp" `Quick test_int_workloads_mostly_int;
          Alcotest.test_case "block size shape" `Quick test_block_size_shape;
          Alcotest.test_case "fpppp huge blocks" `Quick
            test_fpppp_has_huge_blocks;
          Alcotest.test_case "switch dispatch" `Quick
            test_interpreter_workloads_have_switches;
          Alcotest.test_case "call structure" `Quick test_call_structure;
        ] );
      ( "cross-input",
        [
          Alcotest.test_case "alt inputs differ" `Quick test_alt_inputs_differ;
          Alcotest.test_case "cross-profile plans" `Quick
            test_cross_profile_plan_valid;
        ] );
    ]
