(* Tests for the static cost model (Analysis.Cost / Core.Cost) and the
   cost-directed feedback selection level: every fb plan a random program
   produces must clear the full lint rule set, the static dependence
   audit and cycle-accounting conservation; the greedy search must never
   return a higher static cost than its Task_size seed; the search's
   per-function dependence memo must agree bit for bit with a fresh one;
   one synthetic program pins a search that accepts a move; and the cost
   export for two small workloads is pinned byte-for-byte. *)

let cfg8 = Sim.Config.default ~num_pus:8 ~in_order:false

(* --- fb plans are valid ----------------------------------------------------- *)

(* The search re-validates every accepted candidate, so an invalid fb plan
   means either the validator hooks are mis-wired or the search mutated a
   partition outside them.  Conservation is checked on the simulated
   machine, exactly like the suite-wide acct/conserve gate. *)
let prop_fb_valid =
  QCheck.Test.make ~count:10
    ~name:"fb plans pass lint, dep/sound, cost/conserve and acct/conserve"
    Gen.arbitrary_program (fun prog ->
      let plan = Core.Cost.build prog in
      (match Lint.validate_plan plan with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "fb plan rejected: %s" msg);
      let trace =
        (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
      in
      (match Lint.check_deps plan trace with
      | [] -> ()
      | d :: _ ->
        QCheck.Test.fail_reportf "fb dep audit: %s"
          (Format.asprintf "%a" Lint.Diag.pp d));
      (match Lint.check_cost plan with
      | [] -> ()
      | d :: _ ->
        QCheck.Test.fail_reportf "fb cost audit: %s"
          (Format.asprintf "%a" Lint.Diag.pp d));
      let stats =
        (Sim.Engine.run_with_trace cfg8 plan trace).Sim.Engine.stats
      in
      match Lint.check_account ~num_pus:8 ~in_order:false stats with
      | [] -> true
      | d :: _ ->
        QCheck.Test.fail_reportf "fb account audit: %s"
          (Format.asprintf "%a" Lint.Diag.pp d))

(* --- the search is monotone ------------------------------------------------- *)

(* Core.Cost.build picks the cheaper of the Task_size and Data_dependence
   seeds and then only accepts strictly-cheaper boundary moves, so the
   final scalar can never exceed the Task_size seed's. *)
let prop_fb_cost_le_seed =
  QCheck.Test.make ~count:10
    ~name:"fb static cost never exceeds the ts seed's"
    Gen.arbitrary_program (fun prog ->
      let seed =
        Core.Partition.build Core.Heuristics.Feedback prog
      in
      let fb = Core.Cost.build prog in
      let sc p = (Core.Cost.plan_cost p).Core.Cost.r_scalar in
      let s_seed = sc seed and s_fb = sc fb in
      if s_fb > s_seed +. 1e-9 then
        QCheck.Test.fail_reportf "fb scalar %.6f > seed scalar %.6f" s_fb
          s_seed
      else true)

(* --- the search's dependence memo is exact ------------------------------------ *)

module Iset = Core.Task.Iset

let cost_bits (c : Analysis.Cost.t) =
  List.map Int64.bits_of_float
    Analysis.Cost.
      [
        c.c_useful;
        c.c_data_wait;
        c.c_ctrl_squash;
        c.c_mem_squash;
        c.c_load_imbalance;
        c.c_overhead;
      ]

(* The cut sets the first round of Cost.refine proposes from a partition,
   without its candidate cap: a new head at each reachable dominator-tree
   child of a head, or each non-entry head removed. *)
let candidate_cuts f (part : Core.Task.partition) =
  let dom = Analysis.Dom.compute f and dfs = Analysis.Dfs.compute f in
  let heads =
    Array.fold_left
      (fun s (t : Core.Task.t) -> Iset.add t.Core.Task.entry s)
      Iset.empty part.Core.Task.tasks
  in
  let splits =
    List.filter_map
      (fun b ->
        let d = dom.Analysis.Dom.idom.(b) in
        if
          (not (Iset.mem b heads))
          && dfs.Analysis.Dfs.pre.(b) >= 0
          && d >= 0 && Iset.mem d heads
        then Some (Iset.add b heads)
        else None)
      (List.init (Ir.Func.num_blocks f) Fun.id)
  in
  let merges =
    Iset.fold
      (fun e acc -> if e <> Ir.Func.entry then Iset.remove e heads :: acc else acc)
      heads []
  in
  splits @ merges

(* One memo per function, warmed by the seed partition and every earlier
   candidate, must give what a fresh memo gives on each candidate. *)
let prop_memo_exact =
  QCheck.Test.make ~count:20
    ~name:"memoized func_edges and func_cost equal a fresh memo's, bit for bit"
    Gen.arbitrary_program (fun prog ->
      let plan = Core.Partition.build Core.Heuristics.Feedback prog in
      let prog = plan.Core.Partition.prog in
      let facts = Core.Partition.facts plan in
      Ir.Prog.Smap.iter
        (fun fname (part : Core.Task.partition) ->
          let f = Ir.Prog.find prog fname in
          let included_calls = part.Core.Task.included_calls in
          let warm = Core.Depend.memo f ~included_calls in
          let fresh () = Core.Depend.memo f ~included_calls in
          List.iter
            (fun (p : Core.Task.partition) ->
              if
                Core.Depend.func_edges warm fname p
                <> Core.Depend.func_edges (fresh ()) fname p
              then
                QCheck.Test.fail_reportf "%s: memoized func_edges differ" fname;
              if
                cost_bits (Core.Cost.func_cost facts warm fname f p)
                <> cost_bits (Core.Cost.func_cost facts (fresh ()) fname f p)
              then
                QCheck.Test.fail_reportf "%s: memoized func_cost differs" fname)
            (part
            :: List.map
                 (fun cuts ->
                   Core.Select.with_cuts plan.Core.Partition.params f
                     ~included_calls ~cuts)
                 (candidate_cuts f part)))
        plan.Core.Partition.parts;
      true)

let test_memo_rejects_other_calls () =
  let prog = Gen.fib_program 5 in
  let f = Ir.Prog.find prog "fib" in
  let part = Core.Select.basic_block f in
  let m =
    Core.Depend.memo f
      ~included_calls:(Array.make (Ir.Func.num_blocks f) true)
  in
  match Core.Depend.func_edges m "fib" part with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a memo accepted a partition with other included calls"

let prop_analyze_concat =
  QCheck.Test.make ~count:10
    ~name:"analyze's register edges concatenate the per-function edges"
    Gen.arbitrary_program (fun prog ->
      let plan = Core.Partition.build Core.Heuristics.Feedback prog in
      let per_func =
        List.concat_map
          (fun (fname, (part : Core.Task.partition)) ->
            let m =
              Core.Depend.memo
                (Ir.Prog.find plan.Core.Partition.prog fname)
                ~included_calls:part.Core.Task.included_calls
            in
            (Core.Depend.func_edges m fname part).Core.Depend.f_regs)
          (Ir.Prog.Smap.bindings plan.Core.Partition.parts)
      in
      Core.Depend.reg_edges (Core.Depend.analyze plan) = per_func)

(* --- a search that accepts a move ------------------------------------------- *)

(* Most suite workloads keep their seed partitions, so this synthetic
   program pins the accept path: the search must move a boundary, the
   moved plan must pass both validators it was vetted with, and its dump
   and scalar cost are fixed.  The digest is of the same dump the
   benchmark's fb plan golden hashes. *)
let plan_digest (plan : Core.Partition.plan) =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a@.%a" Ir.Prog.pp plan.Core.Partition.prog
          (fun ppf parts ->
            Ir.Prog.Smap.iter
              (fun _ p -> Format.fprintf ppf "%a@." Core.Task.pp p)
              parts)
          plan.Core.Partition.parts))

let test_search_accepts_a_move () =
  let prog =
    Workloads.Synth.generate ~profile:Workloads.Synth.Profile.default ~seed:2
  in
  let seed = Core.Partition.build Core.Heuristics.Feedback prog in
  let fb = Core.Cost.build prog in
  Alcotest.(check bool) "refine moves a boundary of the ts seed" true
    (plan_digest (Core.Cost.refine seed) <> plan_digest seed);
  Alcotest.(check bool) "validate" true (Lint.validate_plan fb = Ok ());
  Alcotest.(check bool) "validate_deps" true
    (Lint.validate_plan_deps fb = Ok ());
  Alcotest.(check string) "fb plan digest" "d31b6c74eee90ba8d37f14b2d623a7d4"
    (plan_digest fb);
  Alcotest.(check string) "fb scalar" "0x1.117acbbee45f9p+3"
    (Printf.sprintf "%h" (Core.Cost.plan_cost fb).Core.Cost.r_scalar)

(* --- golden cost exports ---------------------------------------------------- *)

(* Byte-for-byte comparison of the `msc cost --json` export for two small
   workloads.  Regenerate after an intentional model change with:

     dune exec bin/msc.exe -- cost --only=fpppp --json test/golden/cost_fpppp.json
     dune exec bin/msc.exe -- cost --only=cc    --json test/golden/cost_cc.json *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden name =
  let entry = Workloads.Suite.find name in
  let rows =
    Report.Cost.run ~store:(Harness.Artifact.create ()) ~jobs:1 [ entry ]
  in
  let got = Harness.Json.to_string (Report.Cost.to_json rows) ^ "\n" in
  let want = read_file (Filename.concat "golden" ("cost_" ^ name ^ ".json")) in
  if got <> want then
    Alcotest.failf
      "cost export for %s diverged from test/golden/cost_%s.json (regenerate \
       via msc cost --json if the model changed intentionally)"
      name name

(* --- facts on the plan ------------------------------------------------------- *)

(* The facts compared by value: hashtable and map bindings sorted, site
   regions through Memdep.equal. *)
let facts_equal (prog : Ir.Prog.t) (a : Core.Partition.facts)
    (b : Core.Partition.facts) =
  let freqs (f : Core.Partition.facts) =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.Core.Partition.freqs [])
  in
  let sites_equal get =
    List.for_all
      (fun name ->
        List.equal
          (fun (x : Analysis.Memdep.site) (y : Analysis.Memdep.site) ->
            x.Analysis.Memdep.blk = y.Analysis.Memdep.blk
            && x.Analysis.Memdep.idx = y.Analysis.Memdep.idx
            && x.Analysis.Memdep.store = y.Analysis.Memdep.store
            && Analysis.Memdep.equal x.Analysis.Memdep.region
                 y.Analysis.Memdep.region)
          (get a.Core.Partition.mem name) (get b.Core.Partition.mem name))
      (Ir.Prog.func_names prog)
  in
  freqs a = freqs b
  && Ir.Prog.Smap.equal Float.equal a.Core.Partition.weights
       b.Core.Partition.weights
  && Float.equal a.Core.Partition.useful_base b.Core.Partition.useful_base
  && sites_equal Analysis.Memdep.sites
  && sites_equal Analysis.Memdep.fi_sites

(* Two domains force one fresh plan's facts at once: neither may raise,
   both must return the one published copy, and it must equal a fresh
   derivation. *)
let test_facts_across_domains () =
  let prog = Workloads.W_compress.entry.Workloads.Registry.build () in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Core.Partition.facts plan
  in
  let d = Domain.spawn force in
  let mine = force () in
  let theirs = Domain.join d in
  Alcotest.(check bool) "both domains see the published facts" true
    (mine == theirs);
  Alcotest.(check bool) "the published facts equal a fresh derivation" true
    (facts_equal plan.Core.Partition.prog mine
       (Core.Partition.make_facts plan.Core.Partition.prog))

let test_derived_plans_share_facts () =
  let prog = Workloads.W_compress.entry.Workloads.Registry.build () in
  let plan = Core.Partition.build Core.Heuristics.Task_size prog in
  let by_parts = Core.Partition.with_parts plan plan.Core.Partition.parts in
  let by_level = Core.Partition.with_level plan Core.Heuristics.Feedback in
  (* forced through a derived plan first: the source reads the same cell *)
  let f = Core.Partition.facts by_parts in
  Alcotest.(check bool) "with_parts shares its source's facts" true
    (Core.Partition.facts plan == f);
  Alcotest.(check bool) "with_level shares its source's facts" true
    (Core.Partition.facts by_level == f);
  let other = Core.Partition.build Core.Heuristics.Task_size prog in
  Alcotest.(check bool) "a separately built plan derives its own" true
    (Core.Partition.facts other != f)

let () =
  Alcotest.run "cost"
    [
      ( "feedback",
        [
          QCheck_alcotest.to_alcotest prop_fb_valid;
          QCheck_alcotest.to_alcotest prop_fb_cost_le_seed;
          Alcotest.test_case "search accepts a move (synth default #2)" `Quick
            test_search_accepts_a_move;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_exact;
          Alcotest.test_case "memo rejects other included calls" `Quick
            test_memo_rejects_other_calls;
          QCheck_alcotest.to_alcotest prop_analyze_concat;
        ] );
      ( "facts",
        [
          Alcotest.test_case "derived once across domains" `Quick
            test_facts_across_domains;
          Alcotest.test_case "derived plans share facts" `Quick
            test_derived_plans_share_facts;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fpppp cost json" `Slow (fun () ->
              test_golden "fpppp");
          Alcotest.test_case "cc cost json" `Slow (fun () -> test_golden "cc");
        ] );
    ]
