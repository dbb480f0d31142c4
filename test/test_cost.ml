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
        (Sim.Engine.run_prepared cfg8 (Sim.Engine.prepare plan trace) trace)
          .Sim.Engine.stats
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
  let dom = Gen.dom f and dfs = Analysis.Dfs.compute f in
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
          let live_in = Core.Partition.live_in plan fname in
          let warm = Core.Depend.memo f ~live_in ~included_calls in
          let fresh () = Core.Depend.memo f ~live_in ~included_calls in
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

(* --- the visitor and the sums against the list definitions they replaced --- *)

(* (re_src, re_dst, re_reg) order, field by field: the sort the list
   definition of the edges applied *)
let compare_edges (a : Core.Depend.reg_edge) (b : Core.Depend.reg_edge) =
  compare
    (a.Core.Depend.re_src, a.Core.Depend.re_dst, a.Core.Depend.re_reg)
    (b.Core.Depend.re_src, b.Core.Depend.re_dst, b.Core.Depend.re_reg)

(* The list definition's unsorted generation: producers by index, each
   producer's targets in label order, registers ascending, an edge
   wherever the producer exports a register the consumer reads before
   writing.  What a producer exports (with height and site) and what a
   consumer reads first (with depth) are per-task summaries, which only
   Depend holds: [prod] and [depth] take them from the visit, so the
   model pins how the visit assembles them — its order, a consumer that
   two targets enter, and that no (producer, consumer) pair is dropped
   or invented where the summaries say otherwise.  The dep/reg audit
   pins the edge set independently of Depend. *)
let old_generation (part : Core.Task.partition) ~fname ~prod ~depth =
  let edges = ref [] in
  Array.iteri
    (fun p (pt : Core.Task.t) ->
      List.iter
        (fun tgt ->
          let c = part.Core.Task.task_of_entry.(tgt) in
          if c >= 0 then
            for r = 1 to Ir.Reg.count - 1 do
              match (Hashtbl.find_opt prod (p, r), Hashtbl.find_opt depth (c, r)) with
              | Some (h, site), Some d ->
                edges :=
                  {
                    Core.Depend.re_fn = fname;
                    re_src = p;
                    re_dst = c;
                    re_reg = r;
                    re_height = h;
                    re_depth = d;
                    re_site = site;
                  }
                  :: !edges
              | _ -> ()
            done)
        pt.Core.Task.targets)
    part.Core.Task.tasks;
  !edges

let check_visit m fname f ~live_in (part : Core.Task.partition) =
  let e = Core.Depend.func_edges m fname part in
  let regs = e.Core.Depend.f_regs and exposed = e.Core.Depend.f_exposed in
  if List.sort_uniq compare exposed <> exposed then
    Alcotest.failf "%s: exposed reads not in (task, reg) order" fname;
  let depth = Hashtbl.create 64 and prod = Hashtbl.create 64 in
  List.iter (fun (t, r, d) -> Hashtbl.replace depth (t, r) d) exposed;
  List.iter
    (fun (x : Core.Depend.reg_edge) ->
      let key = (x.Core.Depend.re_src, x.Core.Depend.re_reg) in
      let v = (x.Core.Depend.re_height, x.Core.Depend.re_site) in
      (match Hashtbl.find_opt prod key with
      | Some v' when v' <> v ->
        Alcotest.failf "%s: task %d exports r%d at two heights"
          fname x.Core.Depend.re_src x.Core.Depend.re_reg
      | _ -> Hashtbl.replace prod key v);
      if
        Hashtbl.find_opt depth (x.Core.Depend.re_dst, x.Core.Depend.re_reg)
        <> Some x.Core.Depend.re_depth
      then
        Alcotest.failf "%s: edge depth is not the exposed read's"
          fname)
    regs;
  if List.sort compare_edges (old_generation part ~fname ~prod ~depth) <> regs
  then
    Alcotest.failf
      "%s: the visit is not the sorted list generation (%d tasks)" fname
      (Array.length part.Core.Task.tasks);
  match Lint.Diag.errors (Lint.check_deps_func fname f ~live_in part regs) with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "%s: dep/reg audit: %s" fname
      (Format.asprintf "%a" Lint.Diag.pp d)

(* The list definition of one function's score, as it was: observation
   records, edge records mapped from Depend's lists, and the fold over
   them. *)
module Old = struct
  type task_obs = { o_weight : float; o_size : float; o_targets : int }
  type edge_obs = { e_weight : float; e_lat : float }

  let evaluate ~tasks ~reg_edges ~mem_edges =
    let model = Analysis.Cost.default_model in
    let useful =
      List.fold_left (fun a t -> a +. (t.o_weight *. t.o_size)) 0.0 tasks
    in
    let wsum = List.fold_left (fun a t -> a +. t.o_weight) 0.0 tasks in
    let fold_edges =
      List.fold_left (fun a e -> a +. (e.e_weight *. e.e_lat)) 0.0
    in
    let ctrl =
      List.fold_left
        (fun a t ->
          let extra = float_of_int (max 0 (t.o_targets - 1)) in
          a +. (t.o_weight *. model.Analysis.Cost.mis_rate *. extra *. t.o_size))
        0.0 tasks
    in
    let imb =
      if wsum <= 0.0 then 0.0
      else begin
        let mean = useful /. wsum in
        List.fold_left
          (fun a t -> a +. (t.o_weight *. Float.abs (t.o_size -. mean)))
          0.0 tasks
      end
    in
    {
      Analysis.Cost.c_useful = useful;
      c_data_wait = fold_edges reg_edges;
      c_ctrl_squash = ctrl;
      c_mem_squash = fold_edges mem_edges;
      c_load_imbalance = imb;
      c_overhead = model.Analysis.Cost.per_task_overhead *. wsum;
    }

  let add_region r rs =
    if List.exists (Analysis.Memdep.equal r) rs then rs else r :: rs

  let func_cost (facts : Core.Partition.facts) memo fname (f : Ir.Func.t)
      (part : Core.Task.partition) =
    let model = Analysis.Cost.default_model in
    let fw = Ir.Prog.Smap.find fname facts.Core.Partition.weights in
    if fw <= 0.0 then Analysis.Cost.zero
    else begin
      let fr = Hashtbl.find facts.Core.Partition.freqs fname in
      let nt = Array.length part.Core.Task.tasks in
      let weight_of = Array.make nt 0.0 in
      let tasks =
        Array.to_list
          (Array.mapi
             (fun i (t : Core.Task.t) ->
               let fe = fr.(t.Core.Task.entry) in
               let w = fw *. fe in
               weight_of.(i) <- w;
               let size =
                 Iset.fold
                   (fun b acc ->
                     acc
                     +. fr.(b)
                        *. float_of_int (Ir.Block.size (Ir.Func.block f b)))
                   t.Core.Task.blocks 0.0
               in
               {
                 o_weight = w;
                 o_size = (if fe > 0.0 then size /. fe else 0.0);
                 o_targets = Core.Task.num_hw_targets t;
               })
             part.Core.Task.tasks)
      in
      let edges = Core.Depend.func_edges memo fname part in
      let reg_edges =
        List.map
          (fun (e : Core.Depend.reg_edge) ->
            let w =
              if e.Core.Depend.re_dst >= 0 && e.Core.Depend.re_dst < nt then
                weight_of.(e.Core.Depend.re_dst)
              else 0.0
            in
            let slack =
              float_of_int (e.Core.Depend.re_height - e.Core.Depend.re_depth)
            in
            {
              e_weight = w;
              e_lat =
                model.Analysis.Cost.fwd_base
                +. Float.min model.Analysis.Cost.slack_cap
                     (Float.max 0.0 slack);
            })
          edges.Core.Depend.f_regs
      in
      let expose_edges =
        List.filter_map
          (fun (ti, _r, depth) ->
            let d = float_of_int depth in
            if d >= model.Analysis.Cost.expose_horizon then None
            else
              Some
                {
                  e_weight = weight_of.(ti);
                  e_lat =
                    model.Analysis.Cost.expose_rate
                    *. (1.0 -. (d /. model.Analysis.Cost.expose_horizon));
                })
          edges.Core.Depend.f_exposed
      in
      let stores = Array.make nt [] and loads = Array.make nt [] in
      List.iter
        (fun (s : Analysis.Memdep.site) ->
          Array.iteri
            (fun i (t : Core.Task.t) ->
              if Iset.mem s.Analysis.Memdep.blk t.Core.Task.blocks then
                if s.Analysis.Memdep.store then
                  stores.(i) <- add_region s.Analysis.Memdep.region stores.(i)
                else
                  loads.(i) <- add_region s.Analysis.Memdep.region loads.(i))
            part.Core.Task.tasks)
        (Analysis.Memdep.sites facts.Core.Partition.mem fname);
      let mem_edges = ref [] in
      for i = 0 to nt - 1 do
        for j = 0 to nt - 1 do
          if
            stores.(i) <> [] && loads.(j) <> []
            && List.exists
                 (fun s ->
                   List.exists (Analysis.Memdep.may_intersect s) loads.(j))
                 stores.(i)
          then
            mem_edges :=
              { e_weight = weight_of.(j); e_lat = model.Analysis.Cost.mem_penalty }
              :: !mem_edges
        done
      done;
      evaluate ~tasks ~reg_edges:(reg_edges @ expose_edges)
        ~mem_edges:!mem_edges
    end
end

(* The same tasks numbered in reverse: a producer's consumers then come
   in the opposite order to its targets' labels, which selection's
   numbering (by discovery) never produces. *)
let reversed (part : Core.Task.partition) =
  let nt = Array.length part.Core.Task.tasks in
  let tasks = Array.init nt (fun i -> part.Core.Task.tasks.(nt - 1 - i)) in
  {
    part with
    Core.Task.tasks;
    task_of_entry =
      Array.map (fun i -> if i < 0 then i else nt - 1 - i)
        part.Core.Task.task_of_entry;
  }

(* Every partition the fb search scores, and more: every function's
   partition in every plan of the corpus (bb through fb), and for each
   function the search would search (positive weight, 3 to 256 blocks)
   the first round's split and merge candidates, uncapped, from both
   seeds (the ts and dd plans) and from the refined plan's partition,
   where the last round starts.  On the 18 workloads the search accepts
   no move, so that covers every candidate it scores there.  Each plan's
   own partitions are also checked renumbered in reverse.  One memo per
   (plan, function) is shared by its candidates, as in the search. *)
let test_visit_and_sums () =
  let scored = ref 0 in
  List.iter
    (fun (c : Corpus.cell) ->
      match c.Corpus.plan with
      | Error _ -> ()
      | Ok plan ->
        let facts = Core.Partition.facts plan in
        Ir.Prog.Smap.iter
          (fun fname (part : Core.Task.partition) ->
            let f = Ir.Prog.find plan.Core.Partition.prog fname in
            let n = Ir.Func.num_blocks f in
            let included_calls = part.Core.Task.included_calls in
            let live_in = Core.Partition.live_in plan fname in
            let m = Core.Depend.memo f ~live_in ~included_calls in
            let searched =
              Ir.Prog.Smap.find fname facts.Core.Partition.weights > 0.0
              && n >= 3 && n <= 256
              && Core.Heuristics.(
                   match c.Corpus.level with
                   | Data_dependence | Task_size | Feedback -> true
                   | Basic_block | Control_flow -> false)
            in
            let candidates =
              if not searched then []
              else
                let with_cuts =
                  Core.Select.with_cuts plan.Core.Partition.params f
                    ~included_calls
                in
                List.map (fun cuts -> with_cuts ~cuts) (candidate_cuts f part)
            in
            List.iter
              (fun (p : Core.Task.partition) ->
                incr scored;
                check_visit m fname f ~live_in p;
                if
                  cost_bits (Core.Cost.func_cost facts m fname f p)
                  <> cost_bits (Old.func_cost facts m fname f p)
                then
                  Alcotest.failf
                    "%s %s: func_cost differs from the list definition"
                    c.Corpus.name fname)
              (part :: reversed part :: candidates))
          plan.Core.Partition.parts)
    (Corpus.cells ());
  Printf.printf "%d partitions scored\n" !scored

let test_memo_rejects_other_calls () =
  let prog = Gen.fib_program 5 in
  let f = Ir.Prog.find prog "fib" in
  let part = Core.Select.basic_block f in
  let m =
    Core.Depend.memo f
      ~live_in:(Analysis.Dataflow.sound_live_in f)
      ~included_calls:(Array.make (Ir.Func.num_blocks f) true)
  in
  match Core.Depend.func_edges m "fib" part with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a memo accepted a partition with other included calls"

(* A liveness table of another function would make the exports wrong or
   index out of bounds, so a memo refuses one whose length differs. *)
let test_memo_rejects_other_liveness () =
  let prog = Gen.fib_program 5 in
  let f = Ir.Prog.find prog "fib" and main = Ir.Prog.find prog "main" in
  if Ir.Func.num_blocks f = Ir.Func.num_blocks main then
    Alcotest.fail "fib and main have as many blocks";
  match
    Core.Depend.memo f
      ~live_in:(Analysis.Dataflow.sound_live_in main)
      ~included_calls:(Array.make (Ir.Func.num_blocks f) false)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a memo accepted another function's liveness"

let prop_reg_edges_concat =
  QCheck.Test.make ~count:10 ~name:"reg_edges concatenates func_edges"
    Gen.arbitrary_program (fun prog ->
      let plan = Core.Partition.build Core.Heuristics.Feedback prog in
      let per_func =
        List.concat_map
          (fun (fname, (part : Core.Task.partition)) ->
            let m =
              Core.Depend.memo
                (Ir.Prog.find plan.Core.Partition.prog fname)
                ~live_in:(Core.Partition.live_in plan fname)
                ~included_calls:part.Core.Task.included_calls
            in
            (Core.Depend.func_edges m fname part).Core.Depend.f_regs)
          (Ir.Prog.Smap.bindings plan.Core.Partition.parts)
      in
      Core.Depend.reg_edges plan = per_func)

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

(* The same two properties for the plan's liveness, the second cell. *)
let test_live_in_across_domains () =
  let prog = Workloads.W_compress.entry.Workloads.Registry.build () in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let names = Ir.Prog.func_names plan.Core.Partition.prog in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.map (Core.Partition.live_in plan) names
  in
  let d = Domain.spawn force in
  let mine = force () in
  let theirs = Domain.join d in
  Alcotest.(check bool) "both domains see the published tables" true
    (List.for_all2 ( == ) mine theirs);
  Alcotest.(check bool) "the published tables equal a fresh derivation" true
    (List.for_all2
       (fun name live ->
         let fresh =
           Analysis.Dataflow.sound_live_in
             (Ir.Prog.find plan.Core.Partition.prog name)
         in
         Array.length live = Array.length fresh
         && Array.for_all2 Analysis.Dataflow.Regset.equal live fresh)
       names mine)

let test_derived_plans_share_live_in () =
  let prog = Workloads.W_compress.entry.Workloads.Registry.build () in
  let plan = Core.Partition.build Core.Heuristics.Task_size prog in
  let by_parts = Core.Partition.with_parts plan plan.Core.Partition.parts in
  let by_level = Core.Partition.with_level plan Core.Heuristics.Feedback in
  let name = plan.Core.Partition.prog.Ir.Prog.main in
  (* forced through a derived plan first: the source reads the same cell *)
  let live = Core.Partition.live_in by_parts name in
  Alcotest.(check bool) "with_parts shares its source's liveness" true
    (Core.Partition.live_in plan name == live);
  Alcotest.(check bool) "with_level shares its source's liveness" true
    (Core.Partition.live_in by_level name == live);
  let other = Core.Partition.build Core.Heuristics.Task_size prog in
  Alcotest.(check bool) "a separately built plan derives its own" true
    (Core.Partition.live_in other name != live)

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
          Alcotest.test_case "visit and sums equal the list definitions"
            `Quick test_visit_and_sums;
          Alcotest.test_case "memo rejects other included calls" `Quick
            test_memo_rejects_other_calls;
          Alcotest.test_case "memo rejects another function's liveness"
            `Quick test_memo_rejects_other_liveness;
          QCheck_alcotest.to_alcotest prop_reg_edges_concat;
        ] );
      ( "facts",
        [
          Alcotest.test_case "derived once across domains" `Quick
            test_facts_across_domains;
          Alcotest.test_case "derived plans share facts" `Quick
            test_derived_plans_share_facts;
          Alcotest.test_case "liveness derived once across domains" `Quick
            test_live_in_across_domains;
          Alcotest.test_case "derived plans share liveness" `Quick
            test_derived_plans_share_live_in;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fpppp cost json" `Slow (fun () ->
              test_golden "fpppp");
          Alcotest.test_case "cc cost json" `Slow (fun () -> test_golden "cc");
        ] );
    ]
