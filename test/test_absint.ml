(* Tests for the generic abstract-interpretation engine (Analysis.Absint)
   and the flow-sensitive refinement it powers in Analysis.Memdep:
   supergraph reachability across calls, widening on an infinite-chain
   lattice, branch-driven edge refinement (dead arms, loop induction
   bounds), the refinement bound and the absint/* lint rules on random
   programs, and golden precision tables for two workloads. *)

module M = Analysis.Memdep

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let i = Ir.Reg.tmp 0
let n = Ir.Reg.tmp 1
let c = Ir.Reg.tmp 2
let v = Ir.Reg.tmp 3
let a = Ir.Reg.tmp 4

(* --- engine: reachability lattice ------------------------------------------ *)

(* The smallest useful instantiation: one boolean per block.  Everything
   the supergraph connects from the seeded entry must go true, nothing
   else may. *)
module Reach = Analysis.Absint.Make (struct
  type t = bool ref

  let create () = ref false
  let is_bot s = not !s
  let assign dst src = dst := !src
  let join_into dst src = dst := !dst || !src
  let widen_into ~old:_ _ = () (* finite lattice: join already converges *)
  let equal a b = Bool.equal !a !b
  let leq a b = (not !a) || !b
end)

let test_reachability () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "helper" (fun b ->
      Ir.Builder.li b Ir.Reg.rv 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "orphan" (fun b ->
      Ir.Builder.li b Ir.Reg.rv 2;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b c 0;
      Ir.Builder.if_ b c
        (fun b -> Ir.Builder.call b "helper")
        (fun b -> Ir.Builder.nop b);
      Ir.Builder.halt b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let r =
    Reach.solve
      ~seed:(fun f -> if f = "main" then Some (ref true) else None)
      ~transfer:(fun _ _ ~src ~dst -> dst := !src)
      prog
  in
  checkb "main entry reached" true !(Reach.entry_state r "main" 0);
  checkb "helper reached through the call" true
    !(Reach.entry_state r "helper" 0);
  checkb "orphan stays bottom" false !(Reach.entry_state r "orphan" 0);
  checkb "unknown function is bottom" false !(Reach.entry_state r "nope" 0);
  checkb "orphan states all bottom" true
    (match Reach.func_states r "orphan" with
    | Some sts -> Array.for_all (fun s -> not !s) sts
    | None -> false)

(* --- engine: widening on an infinite ascending chain ----------------------- *)

(* Path-length upper bounds: the lattice has an infinite ascending chain,
   so a loop only converges because the engine widens past the update
   threshold. *)
module UB = Analysis.Absint.Make (struct
  type t = int ref (* -1 = bot; k = entry reachable along <= k instructions *)

  let create () = ref (-1)
  let is_bot s = !s < 0
  let assign dst src = dst := !src
  let join_into dst src = dst := max !dst !src
  let widen_into ~old dst = if !dst > !old then dst := max_int
  let equal a b = Int.equal !a !b
  let leq a b = !a <= !b
end)

let test_widening_terminates () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b i 0;
      Ir.Builder.li b n 1000;
      Ir.Builder.while_ b
        ~cond:(fun b ->
          Ir.Builder.bin b Ir.Insn.Lt c i (Ir.Insn.Reg n);
          c)
        (fun b -> Ir.Builder.addi b i i 1);
      Ir.Builder.halt b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let r =
    UB.solve
      ~seed:(fun f -> if f = "main" then Some (ref 0) else None)
      ~transfer:(fun _ blk ~src ~dst ->
        let st = !src in
        dst :=
          if st < 0 then st
          else if st > max_int - 64 then max_int
          else st + Array.length blk.Ir.Block.insns)
      prog
  in
  checkb "loop converged only by widening" true (UB.widenings r > 0);
  checkb "states non-bottom once reached" true
    (match UB.func_states r "main" with
    | Some sts -> Array.for_all (fun s -> !s >= 0) sts
    | None -> false)

(* --- engine: every round solves from scratch ------------------------------- *)

(* Path-length bounds capped at 100: the transfer's cap lets the
   descending passes narrow the loop header the ascending pass widened. *)
let capped_transfer _ (blk : Ir.Block.t) ~src ~dst =
  let st = !src in
  dst :=
    if st < 0 then st
    else if st >= 100 then 100
    else min 100 (st + Array.length blk.Ir.Block.insns)

(* A round asked for by [again], over the first round's supergraph and
   buffers with another seed, must end with the states and counts of a
   solve from scratch with that seed: nothing may leak from the previous
   round's states, queue flags or update counts. *)
let test_rounds_start_from_scratch () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "step" (fun b ->
      Ir.Builder.addi b v v 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b i 0;
      Ir.Builder.li b n 1000;
      Ir.Builder.while_ b
        ~cond:(fun b ->
          Ir.Builder.bin b Ir.Insn.Lt c i (Ir.Insn.Reg n);
          c)
        (fun b ->
          Ir.Builder.call b "step";
          Ir.Builder.addi b i i 1);
      Ir.Builder.halt b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let start = ref 1000 in
  let seed f = if f = "main" then Some (ref !start) else None in
  let rounds = ref 0 in
  let again _ =
    incr rounds;
    start := 0;
    !rounds = 1
  in
  let r = UB.solve ~again ~seed ~transfer:capped_transfer prog in
  let fresh = UB.solve ~seed ~transfer:capped_transfer prog in
  checki "two rounds" 2 !rounds;
  checkb "the rounds' seeds differ" true (!start = 0);
  let states r =
    List.concat_map
      (fun f ->
        match UB.func_states r f with
        | Some sts -> Array.to_list (Array.map ( ! ) sts)
        | None -> [])
      [ "main"; "step" ]
  in
  checkb "same states" true (states r = states fresh);
  checki "same updates" (UB.updates fresh) (UB.updates r);
  checki "same widenings" (UB.widenings fresh) (UB.widenings r);
  checki "same narrowings" (UB.narrowed fresh) (UB.narrowed r);
  checkb "the solve widens and narrows" true
    (UB.widenings fresh > 0 && UB.narrowed fresh > 0)

(* --- refinement: constant branch kills the dead arm ------------------------ *)

let test_constant_branch_prunes () =
  let pb = Ir.Builder.program () in
  let base = Ir.Builder.data_ints pb [ 0; 0; 0; 0 ] in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b c 0;
      Ir.Builder.li b v 9;
      Ir.Builder.li b a base;
      Ir.Builder.if_ b c
        (fun b -> Ir.Builder.store b v a 1)
        (fun b -> Ir.Builder.store b v a 2);
      Ir.Builder.halt b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let t = M.analyze ~sp:Interp.Run.initial_sp prog in
  let stores = List.filter (fun s -> s.M.store) (M.sites t "main") in
  checki "two store sites" 2 (List.length stores);
  let dead, live = List.partition (fun s -> M.is_bot s.M.region) stores in
  checki "exactly one statically dead arm" 1 (List.length dead);
  (match live with
  | [ s ] ->
    checkb "live arm is the else store" true
      (M.equal s.M.region (M.singleton (base + 2)))
  | _ -> Alcotest.fail "expected exactly one live store");
  (* the flow-insensitive baseline cannot see the dead arm *)
  List.iter
    (fun (f : M.site) -> checkb "baseline keeps both arms" false
        (M.is_bot f.M.region))
    (List.filter (fun (s : M.site) -> s.M.store) (M.fi_sites t "main"))

(* --- refinement: loop induction bound -------------------------------------- *)

let test_loop_bound_refined () =
  let pb = Ir.Builder.program () in
  let base = Ir.Builder.data_ints pb [ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ] in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b v 7;
      Ir.Builder.for_ b i ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 40)
        ~step:4
        (fun b ->
          Ir.Builder.bin b Ir.Insn.Add a i (Ir.Insn.Imm base);
          Ir.Builder.store b v a 0);
      Ir.Builder.halt b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let t = M.analyze ~sp:Interp.Run.initial_sp prog in
  let site = List.find (fun s -> s.M.store) (M.sites t "main") in
  let fi = List.find (fun s -> s.M.store) (M.fi_sites t "main") in
  checkb "refined region within the baseline" true
    (M.leq site.M.region fi.M.region);
  (* the branch-condition refinement must bound the induction variable *)
  checkb "refined region finite" true (M.width site.M.region <> None);
  List.iter
    (fun k ->
      checkb "covers every walked address" true
        (M.contains site.M.region (base + k)))
    [ 0; 4; 8; 12; 16; 20; 24; 28; 32; 36 ]

(* --- refinement bound and absint/* rules on random programs ---------------- *)

let prop_refines =
  QCheck.Test.make ~count:15
    ~name:"refined site regions within the fi bound on random programs"
    Gen.arbitrary_program (fun prog ->
      let t = M.analyze ~sp:Interp.Run.initial_sp prog in
      List.for_all
        (fun fname ->
          List.for_all2
            (fun (s : M.site) (f : M.site) -> M.leq s.M.region f.M.region)
            (M.sites t fname) (M.fi_sites t fname))
        (Ir.Prog.func_names prog))

let prop_absint_clean =
  QCheck.Test.make ~count:10
    ~name:"absint/sound + absint/refines clean on random programs"
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          let plan = Core.Partition.build level prog in
          let trace =
            (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
          in
          Lint.check_absint plan trace = [])
        Core.Heuristics.all_levels)

(* --- golden precision tables ------------------------------------------------ *)

(* Byte-for-byte comparison of the `msc absint --json` export for two
   small workloads.  Regenerate after an intentional analyzer change with:

     dune exec bin/msc.exe -- absint --only fpppp --json test/golden/absint_fpppp.json
     dune exec bin/msc.exe -- absint --only cc    --json test/golden/absint_cc.json *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden name =
  let entry = Workloads.Suite.find name in
  let rows =
    Report.Precision.run ~store:(Harness.Artifact.create ()) ~jobs:1 [ entry ]
  in
  let got = Harness.Json.to_string (Report.Precision.to_json rows) ^ "\n" in
  let want =
    read_file (Filename.concat "golden" ("absint_" ^ name ^ ".json"))
  in
  if got <> want then
    Alcotest.failf
      "precision table for %s diverged from test/golden/absint_%s.json \
       (regenerate via msc absint --json if the analyzer changed \
       intentionally)"
      name name

let () =
  Alcotest.run "absint"
    [
      ( "engine",
        [
          Alcotest.test_case "supergraph reachability" `Quick
            test_reachability;
          Alcotest.test_case "widening terminates infinite chain" `Quick
            test_widening_terminates;
          Alcotest.test_case "rounds start from scratch" `Quick
            test_rounds_start_from_scratch;
        ] );
      ( "refine",
        [
          Alcotest.test_case "constant branch kills dead arm" `Quick
            test_constant_branch_prunes;
          Alcotest.test_case "loop induction bound" `Quick
            test_loop_bound_refined;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_refines;
          QCheck_alcotest.to_alcotest prop_absint_clean;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fpppp precision json" `Quick (fun () ->
              test_golden "fpppp");
          Alcotest.test_case "cc precision json" `Quick (fun () ->
              test_golden "cc");
        ] );
    ]
