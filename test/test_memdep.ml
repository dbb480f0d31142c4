(* Tests for the static dependence analyzer: the strided-interval domain
   (Analysis.Memdep), the plan-level edge derivation (Core.Depend) on
   handcrafted alias / no-alias / stride-disjoint CFGs, the trace-grounded
   soundness audit (dep/sound + dep/reg via Lint.check_deps) over random
   programs at every heuristic level, and golden dependence-summary
   snapshots for two workloads. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module M = Analysis.Memdep

(* --- strided-interval domain ----------------------------------------------- *)

let test_iv_singleton () =
  checkb "5 meets 5" true (M.may_intersect (M.singleton 5) (M.singleton 5));
  checkb "5 avoids 6" false (M.may_intersect (M.singleton 5) (M.singleton 6));
  checkb "bot empty" true (M.is_bot M.bot);
  checkb "bot meets nothing" false (M.may_intersect M.bot M.top);
  checkb "top meets" true (M.may_intersect M.top (M.singleton 0));
  checkb "top is top" true (M.is_top M.top)

let test_iv_stride_disjoint () =
  let evens = M.range ~stride:2 0 10 and odds = M.range ~stride:2 1 11 in
  checkb "evens avoid odds" false (M.may_intersect evens odds);
  checkb "evens meet evens" true
    (M.may_intersect evens (M.range ~stride:2 4 20));
  (* incompatible strides collapse to gcd: 2 and 3 share multiples of 6
     shifted by the anchors, 0 and 3 differ mod gcd 1 -> overlap decides *)
  checkb "stride 2 vs 3 overlap" true
    (M.may_intersect evens (M.range ~stride:3 0 9));
  checkb "disjoint ranges" false
    (M.may_intersect (M.range 0 10) (M.range 11 20))

let test_iv_join () =
  let j = M.join (M.singleton 3) (M.singleton 7) in
  checkb "join = {3,7} as stride 4" true (M.equal j (M.range ~stride:4 3 7));
  checkb "join avoids 5" false (M.may_intersect j (M.singleton 5));
  checkb "join meets 7" true (M.may_intersect j (M.singleton 7));
  checkb "join with bot is identity" true (M.equal j (M.join j M.bot))

let test_iv_unbounded () =
  let below = M.range min_int 5 in
  checkb "(-inf,5] avoids 6" false (M.may_intersect below (M.singleton 6));
  checkb "(-inf,5] meets 5" true (M.may_intersect below (M.singleton 5));
  checkb "join to top" true (M.is_top (M.join below (M.range 0 max_int)))

let test_iv_width () =
  checkb "width of bot" true (M.width M.bot = Some 0);
  checkb "width of a singleton" true (M.width (M.singleton 7) = Some 1);
  checkb "width of a strided range" true
    (M.width (M.range ~stride:4 0 36) = Some 10);
  checkb "width of top" true (M.width M.top = None);
  checkb "width of a half line" true (M.width (M.range min_int 5) = None);
  (* max_int + 1 points: the count itself is not representable *)
  checkb "width of [-1, max_int-1]" true
    (M.width (M.range (-1) (max_int - 1)) = None);
  checkb "width of [min_int+1, 0]" true
    (M.width (M.range (min_int + 1) 0) = None)

(* --- rail boundary properties (min_int/max_int hardening) ------------------- *)

(* The arithmetic inside mk/join/may_intersect/leq runs close to the
   min_int/max_int sentinels whenever a region touches a rail; these
   generators keep the operands there on purpose.  Every property is a
   set-semantics fact that naive (wrapping) interval arithmetic breaks. *)

let rail_int_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ min_int; min_int + 1; max_int - 1; max_int; 0; 1; -1 ];
        map (fun k -> max_int - (k land 0xff)) int;
        map (fun k -> min_int + (k land 0xff)) int;
        small_signed_int;
      ])

let value_gen =
  QCheck.Gen.(
    pair (pair rail_int_gen rail_int_gen) int
    |> map (fun ((x, y), s) ->
           M.range ~stride:(1 + (s land 7)) (min x y) (max x y)))

let arbitrary_value = QCheck.make ~print:M.value_to_string value_gen

let arbitrary_value_pair =
  QCheck.make
    ~print:(fun (x, y) ->
      M.value_to_string x ^ " / " ^ M.value_to_string y)
    QCheck.Gen.(pair value_gen value_gen)

let prop_join_upper_bound =
  QCheck.Test.make ~count:500 ~name:"join is an upper bound on the rails"
    arbitrary_value_pair (fun (x, y) ->
      let j = M.join x y in
      M.leq x j && M.leq y j)

let prop_leq_reflexive =
  QCheck.Test.make ~count:500 ~name:"leq is reflexive on the rails"
    arbitrary_value (fun x -> M.leq x x)

let prop_contains_implies_intersect =
  QCheck.Test.make ~count:500
    ~name:"shared member implies may_intersect on the rails"
    (QCheck.pair arbitrary_value_pair (QCheck.make rail_int_gen))
    (fun ((x, y), p) ->
      QCheck.assume (M.contains x p && M.contains y p);
      M.may_intersect x y)

let prop_width_nonnegative =
  QCheck.Test.make ~count:500 ~name:"width stays defined on the rails"
    arbitrary_value (fun x ->
      match M.width x with Some w -> w >= 0 | None -> true)

let prop_join_contains_endpoints =
  QCheck.Test.make ~count:500
    ~name:"join of rail singletons contains both points"
    (QCheck.pair (QCheck.make rail_int_gen) (QCheck.make rail_int_gen))
    (fun (x, y) ->
      let j = M.join (M.singleton x) (M.singleton y) in
      M.contains j x && M.contains j y)

(* --- whole-program address analysis ---------------------------------------- *)

let a = Ir.Reg.tmp 0
let v = Ir.Reg.tmp 1
let d = Ir.Reg.tmp 2
let c = Ir.Reg.tmp 3

let test_analyze_sites () =
  let pb = Ir.Builder.program () in
  let base = Ir.Builder.data_ints pb [ 1; 2; 3; 4 ] in
  let prog =
    (Ir.Builder.func pb "main" (fun b ->
         Ir.Builder.li b a (base + 2);
         Ir.Builder.li b v 42;
         Ir.Builder.store b v a 0;
         Ir.Builder.load b Ir.Reg.rv a 1;
         Ir.Builder.halt b);
     Ir.Builder.finish pb ~main:"main")
  in
  let t = M.analyze ~sp:Interp.Run.initial_sp prog in
  let sites = M.sites t "main" in
  checki "two memory sites" 2 (List.length sites);
  List.iter
    (fun (s : M.site) ->
      let want = M.singleton (base + 2 + if s.M.store then 0 else 1) in
      checkb "site region is the literal address" true
        (M.equal want s.M.region);
      checkb "site is data-segment" true (M.classify t s.M.region = `Data))
    sites

(* --- handcrafted alias / no-alias plans ------------------------------------ *)

(* Straight-line two-block program: block 0 stores to [base+store_off],
   block 1 loads from [base+load_off].  At basic-block level each block is
   its own task, so the analyzer must predict a cross-task memory edge
   exactly when the offsets collide. *)
let two_task_prog ~store_off ~load_off =
  let pb = Ir.Builder.program () in
  let base = Ir.Builder.data_ints pb [ 0; 0; 0; 0; 0; 0; 0; 0 ] in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b a (base + store_off);
      Ir.Builder.li b v 42;
      Ir.Builder.store b v a 0;
      Ir.Builder.new_block b;
      Ir.Builder.li b d (base + load_off);
      Ir.Builder.load b Ir.Reg.rv d 0;
      Ir.Builder.halt b);
  Ir.Builder.finish pb ~main:"main"

(* Task indices of the store block and the load block of "main". *)
let mem_tasks plan =
  let f = Ir.Prog.find plan.Core.Partition.prog "main" in
  let part = Ir.Prog.Smap.find "main" plan.Core.Partition.parts in
  let task_of blk =
    let t = ref (-1) in
    Array.iteri
      (fun i (tk : Core.Task.t) ->
        if !t < 0 && Core.Task.Iset.mem blk tk.Core.Task.blocks then t := i)
      part.Core.Task.tasks;
    !t
  in
  let st = ref (-1) and ld = ref (-1) in
  Array.iter
    (fun (b : Ir.Block.t) ->
      Array.iter
        (function
          | Ir.Insn.Store _ -> st := task_of b.Ir.Block.label
          | Ir.Insn.Load _ -> ld := task_of b.Ir.Block.label
          | _ -> ())
        b.Ir.Block.insns)
    f.Ir.Func.blocks;
  (!st, !ld)

let predicts ~store_off ~load_off =
  let prog = two_task_prog ~store_off ~load_off in
  let plan = Core.Partition.build Core.Heuristics.Basic_block prog in
  let dep = Core.Depend.analyze plan in
  let st, ld = mem_tasks plan in
  checkb "store and load land in distinct tasks" true (st >= 0 && ld >= 0 && st <> ld);
  Core.Depend.predicts_mem dep
    ~src:{ Core.Depend.fn = "main"; task = st }
    ~dst:{ Core.Depend.fn = "main"; task = ld }

let test_alias_edge () =
  checkb "same cell -> edge" true (predicts ~store_off:3 ~load_off:3)

let test_no_alias_edge () =
  checkb "distinct cells -> no edge" false (predicts ~store_off:3 ~load_off:5)

(* Diamond writing through a register that is {base, base+2} (stride 2
   after the join of the two arms); a load at base+1 sits between the two
   but on the wrong congruence class, so no edge may be predicted — the
   stride, not just the bounds, carries the precision.  The branch
   condition must be statically opaque ([Rem] falls to top): a constant
   condition lets the flow-sensitive refinement prove one arm dead and
   collapse the store region to a singleton, which tests something else. *)
let stride_prog ~load_off =
  let pb = Ir.Builder.program () in
  let base = Ir.Builder.data_ints pb [ 0; 0; 0; 0 ] in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b c 3;
      Ir.Builder.bin b Ir.Insn.Rem c c (Ir.Insn.Imm 2);
      Ir.Builder.if_ b c
        (fun b -> Ir.Builder.li b a base)
        (fun b -> Ir.Builder.li b a (base + 2));
      Ir.Builder.li b v 7;
      Ir.Builder.store b v a 0;
      Ir.Builder.new_block b;
      Ir.Builder.li b d (base + load_off);
      Ir.Builder.load b Ir.Reg.rv d 0;
      Ir.Builder.halt b);
  Ir.Builder.finish pb ~main:"main"

let stride_predicts ~load_off =
  let plan =
    Core.Partition.build Core.Heuristics.Basic_block (stride_prog ~load_off)
  in
  let dep = Core.Depend.analyze plan in
  let st, ld = mem_tasks plan in
  checkb "distinct tasks" true (st >= 0 && ld >= 0 && st <> ld);
  Core.Depend.predicts_mem dep
    ~src:{ Core.Depend.fn = "main"; task = st }
    ~dst:{ Core.Depend.fn = "main"; task = ld }

let test_stride_disjoint_plan () =
  checkb "off-grid load -> no edge" false (stride_predicts ~load_off:1);
  checkb "on-grid load -> edge" true (stride_predicts ~load_off:2)

(* --- register-edge criticality --------------------------------------------- *)

let test_reg_edge_criticality () =
  let pb = Ir.Builder.program () in
  let prog =
    (Ir.Builder.func pb "main" (fun b ->
         Ir.Builder.li b a 5;
         Ir.Builder.li b v 1;
         Ir.Builder.new_block b;
         Ir.Builder.bin b Ir.Insn.Add Ir.Reg.rv a (Ir.Insn.Reg v);
         Ir.Builder.halt b);
     Ir.Builder.finish pb ~main:"main")
  in
  let plan = Core.Partition.build Core.Heuristics.Basic_block prog in
  let edge r =
    List.find
      (fun (e : Core.Depend.reg_edge) -> e.Core.Depend.re_reg = r)
      (Core.Depend.reg_edges plan)
  in
  let ea = edge a and ev = edge v in
  (* producer height counts instructions up to and including the write *)
  checki "height of a" 1 ea.Core.Depend.re_height;
  checki "height of v" 2 ev.Core.Depend.re_height;
  (* the consumer reads both in its first instruction *)
  checki "depth of a" 0 ea.Core.Depend.re_depth;
  checki "depth of v" 0 ev.Core.Depend.re_depth;
  checkb "sites found" true
    (ea.Core.Depend.re_site <> None && ev.Core.Depend.re_site <> None)

(* --- soundness on random programs ------------------------------------------ *)

(* The qcheck counterpart of the suite-wide dep/sound gate: partition a
   random program at every level, execute it, and demand that the observed
   cross-instance flows are all predicted and the register edges agree with
   the Regcomm recomputation (Lint.check_deps reports nothing). *)
let prop_check_deps_clean =
  QCheck.Test.make ~count:15 ~name:"dep/sound + dep/reg clean on random programs"
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          let plan = Core.Partition.build level prog in
          let trace =
            (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
          in
          Lint.check_deps plan trace = [])
        Core.Heuristics.all_levels)

(* --- golden dependence summaries ------------------------------------------- *)

(* Byte-for-byte comparison of the `msc deps --json` export for two small
   workloads.  Regenerate after an intentional analyzer change with:

     dune exec bin/msc.exe -- deps --only fpppp --json test/golden/deps_fpppp.json
     dune exec bin/msc.exe -- deps --only cc    --json test/golden/deps_cc.json *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden name =
  let entry = Workloads.Suite.find name in
  let rows =
    Report.Deps.run ~store:(Harness.Artifact.create ()) ~jobs:1 [ entry ]
  in
  let got = Harness.Json.to_string (Report.Deps.to_json rows) ^ "\n" in
  let want = read_file (Filename.concat "golden" ("deps_" ^ name ^ ".json")) in
  if got <> want then
    Alcotest.failf
      "dependence summary for %s diverged from test/golden/deps_%s.json \
       (regenerate via msc deps --json if the analyzer changed intentionally)"
      name name

let () =
  Alcotest.run "memdep"
    [
      ( "interval",
        [
          Alcotest.test_case "singletons and extremes" `Quick test_iv_singleton;
          Alcotest.test_case "stride congruence" `Quick test_iv_stride_disjoint;
          Alcotest.test_case "join" `Quick test_iv_join;
          Alcotest.test_case "unbounded ends" `Quick test_iv_unbounded;
          Alcotest.test_case "width" `Quick test_iv_width;
        ] );
      ( "rails",
        [
          QCheck_alcotest.to_alcotest prop_join_upper_bound;
          QCheck_alcotest.to_alcotest prop_leq_reflexive;
          QCheck_alcotest.to_alcotest prop_contains_implies_intersect;
          QCheck_alcotest.to_alcotest prop_width_nonnegative;
          QCheck_alcotest.to_alcotest prop_join_contains_endpoints;
        ] );
      ( "analyze",
        [ Alcotest.test_case "literal site regions" `Quick test_analyze_sites ] );
      ( "depend",
        [
          Alcotest.test_case "aliasing tasks" `Quick test_alias_edge;
          Alcotest.test_case "disjoint tasks" `Quick test_no_alias_edge;
          Alcotest.test_case "stride-disjoint diamond" `Quick
            test_stride_disjoint_plan;
          Alcotest.test_case "register-edge criticality" `Quick
            test_reg_edge_criticality;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest prop_check_deps_clean ] );
      ( "golden",
        [
          Alcotest.test_case "fpppp deps json" `Slow (fun () ->
              test_golden "fpppp");
          Alcotest.test_case "cc deps json" `Slow (fun () -> test_golden "cc");
        ] );
    ]
