(* Oracles of the static layer (Analysis.Dataflow, Analysis.Memdep,
   Core.Depend, Core.Regcomm, Core.Cost): one MD5 per (program, level) of
   everything the layer answers about the plan, pinned against a golden
   made before the layer was rewritten. *)

(* --- what the static layer answers about one plan ------------------------ *)

let regs buf s =
  List.iter (Printf.bprintf buf " %d") (Analysis.Dataflow.Regset.elements s);
  Buffer.add_char buf ';'

let liveness buf f =
  List.iter
    (fun (lv : Analysis.Dataflow.liveness) ->
      Array.iteri
        (fun b live_in ->
          Printf.bprintf buf "L%d in" b;
          regs buf live_in;
          Buffer.add_string buf " out";
          regs buf lv.Analysis.Dataflow.live_out.(b))
        lv.Analysis.Dataflow.live_in;
      Buffer.add_char buf '\n')
    [
      Analysis.Dataflow.liveness f;
      Analysis.Dataflow.liveness ~call_uses:Analysis.Dataflow.Regset.all f;
    ]

let depend buf ~fi (plan : Core.Partition.plan) =
  let d = Core.Depend.analyze ~fi plan in
  Printf.bprintf buf "depend fi=%b tasks %d loads %d stores %d\n" fi
    (Core.Depend.num_tasks d)
    (Core.Depend.num_load_sites d)
    (Core.Depend.num_store_sites d);
  List.iter
    (fun (e : Core.Depend.reg_edge) ->
      Printf.bprintf buf "reg %s %d>%d r%d h%d d%d %s\n" e.Core.Depend.re_fn
        e.Core.Depend.re_src e.Core.Depend.re_dst e.Core.Depend.re_reg
        e.Core.Depend.re_height e.Core.Depend.re_depth
        (match e.Core.Depend.re_site with
        | Some (b, i) -> Printf.sprintf "L%d.%d" b i
        | None -> "-"))
    (Core.Depend.reg_edges plan);
  List.iter
    (fun ((s : Core.Depend.task_id), (t : Core.Depend.task_id)) ->
      Printf.bprintf buf "mem %s.%d>%s.%d\n" s.Core.Depend.fn s.Core.Depend.task
        t.Core.Depend.fn t.Core.Depend.task)
    (Core.Depend.mem_edges d)

let exposed buf name f ~live_in (part : Core.Task.partition) =
  let m =
    Core.Depend.memo f ~live_in ~included_calls:part.Core.Task.included_calls
  in
  List.iter
    (fun (t, r, depth) -> Printf.bprintf buf "exp %d r%d %d\n" t r depth)
    (Core.Depend.func_edges m name part).Core.Depend.f_exposed

let regcomm buf f ~live_in (part : Core.Task.partition) =
  let rc = Core.Regcomm.create f ~live_in part in
  Array.iteri
    (fun task _ ->
      Printf.bprintf buf "rc %d needed" task;
      for reg = 0 to Ir.Reg.count - 1 do
        if Core.Regcomm.needed rc ~task ~reg then Printf.bprintf buf " %d" reg
      done;
      Array.iter
        (fun (blk : Ir.Block.t) ->
          let b = blk.Ir.Block.label in
          Printf.bprintf buf "\n L%d rw" b;
          for reg = 0 to Ir.Reg.count - 1 do
            if Core.Regcomm.may_rewrite rc ~task ~blk:b ~reg then
              Printf.bprintf buf " %d" reg
          done;
          Buffer.add_string buf " fwd";
          for reg = 0 to Ir.Reg.count - 1 do
            for idx = 0 to Array.length blk.Ir.Block.insns do
              if Core.Regcomm.forwardable rc ~task ~blk:b ~idx ~reg then
                Printf.bprintf buf " %d@%d" reg idx
            done
          done)
        f.Ir.Func.blocks;
      Buffer.add_char buf '\n')
    part.Core.Task.tasks

let memdep buf (prog : Ir.Prog.t) =
  let m = Analysis.Memdep.analyze ~sp:Interp.Run.initial_sp prog in
  List.iter
    (fun name ->
      List.iter
        (fun (tag, sites) ->
          List.iter
            (fun (s : Analysis.Memdep.site) ->
              Printf.bprintf buf "%s %s L%d.%d %s %s\n" tag name
                s.Analysis.Memdep.blk s.Analysis.Memdep.idx
                (if s.Analysis.Memdep.store then "st" else "ld")
                (Analysis.Memdep.value_to_string s.Analysis.Memdep.region))
            sites)
        [
          ("site", Analysis.Memdep.sites m name);
          ("fi", Analysis.Memdep.fi_sites m name);
        ])
    (Ir.Prog.func_names prog)

let cost buf (plan : Core.Partition.plan) =
  let r = Core.Cost.plan_cost plan in
  let raw tag (c : Analysis.Cost.t) =
    Printf.bprintf buf "%s %h %h %h %h %h %h\n" tag c.Analysis.Cost.c_useful
      c.Analysis.Cost.c_data_wait c.Analysis.Cost.c_ctrl_squash
      c.Analysis.Cost.c_mem_squash c.Analysis.Cost.c_load_imbalance
      c.Analysis.Cost.c_overhead
  in
  raw "total" r.Core.Cost.r_total;
  let s = r.Core.Cost.r_shares in
  Printf.bprintf buf "scalar %h shares %h %h %h %h %h %h\n" r.Core.Cost.r_scalar
    s.Analysis.Cost.s_useful s.Analysis.Cost.s_data_wait
    s.Analysis.Cost.s_ctrl_squash s.Analysis.Cost.s_mem_squash
    s.Analysis.Cost.s_load_imbalance s.Analysis.Cost.s_overhead;
  List.iter (fun (name, c) -> raw name c) r.Core.Cost.r_per_func

let static_digest (plan : Core.Partition.plan) =
  let buf = Buffer.create 65536 in
  let prog = plan.Core.Partition.prog in
  Ir.Prog.Smap.iter
    (fun name part ->
      let f = Ir.Prog.find prog name in
      Printf.bprintf buf "func %s\n%s" name
        (Format.asprintf "%a@." Core.Task.pp part);
      let live_in = Core.Partition.live_in plan name in
      liveness buf f;
      exposed buf name f ~live_in part;
      regcomm buf f ~live_in part)
    plan.Core.Partition.parts;
  depend buf ~fi:false plan;
  depend buf ~fi:true plan;
  memdep buf prog;
  cost buf plan;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the golden ----------------------------------------------------------- *)

type cell = {
  line : string;  (** the golden line *)
  suite : bool;  (** one of the 18 workloads *)
  level : Core.Heuristics.level;
  plan : Core.Partition.plan option;
}

let corpus = lazy (Corpus.cells ())

(* one line per (program, level) of Corpus, with the level's plan for the
   budgets *)
let cells =
  lazy
    (List.map
       (fun (c : Corpus.cell) ->
         let line, plan =
           match c.Corpus.plan with
           | Ok plan -> (Corpus.label c ^ " " ^ static_digest plan, Some plan)
           | Error e ->
             (Corpus.label c ^ " raises " ^ Printexc.to_string e, None)
         in
         { line; suite = c.Corpus.suite; level = c.Corpus.level; plan })
       (Lazy.force corpus))

let test_golden () =
  Corpus.check_golden
    ~path:(Filename.concat "golden" "static_digests.txt")
    ~what:"static analyses"
    ~pins:"the static layer as it was before its rewrite"
    (String.concat "" (List.map (fun c -> c.line ^ "\n") (Lazy.force cells)))

(* --- the analysis golden ------------------------------------------------- *)

(* What the two fixpoints of lib/analysis compute beyond the sites the
   static golden already pins: the address analysis's round and engine
   iteration counts and its memory partition, and every function's
   cross-block dependence edges in order. *)
let analysis_digest (prog : Ir.Prog.t) =
  let buf = Buffer.create 4096 in
  let m = Analysis.Memdep.analyze ~sp:Interp.Run.initial_sp prog in
  let s = Analysis.Memdep.ai_stats m in
  Printf.bprintf buf "rounds %d updates %d widenings %d narrowed %d outer %d \
                      saturated %d\n"
    (Analysis.Memdep.rounds m) s.Analysis.Memdep.updates
    s.Analysis.Memdep.widenings s.Analysis.Memdep.narrowed
    s.Analysis.Memdep.outer_rounds s.Analysis.Memdep.saturated_cells;
  Array.iter
    (fun v ->
      Printf.bprintf buf "cell %s\n" (Analysis.Memdep.value_to_string v))
    (Analysis.Memdep.partition m);
  Ir.Prog.Smap.iter
    (fun name f ->
      Printf.bprintf buf "func %s\n" name;
      List.iter
        (fun (u, v, r) -> Printf.bprintf buf "%d>%d r%d\n" u v r)
        (Analysis.Dataflow.block_dep_edges f))
    prog.Ir.Prog.funcs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_analysis_golden () =
  Corpus.check_golden
    ~path:(Filename.concat "golden" "analysis_digests.txt")
    ~what:"address analysis and dependence edges"
    ~pins:"both fixpoints of lib/analysis as they were before their rewrite"
    (String.concat ""
       (List.map
          (fun (c : Corpus.cell) ->
            Corpus.label c ^ " "
            ^ (match c.Corpus.plan with
              | Ok plan -> analysis_digest plan.Core.Partition.prog
              | Error e -> "raises " ^ Printexc.to_string e)
            ^ "\n")
          (Lazy.force corpus)))

(* --- allocation budgets ---------------------------------------------------- *)

(* words allocated so far; the major collection first makes the counters
   exact (without it, words still in the minor heap and promotions not
   yet added to [major_words] are missing) *)
let allocated () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let fb_plans () =
  List.filter_map
    (fun c ->
      match (c.suite, c.level, c.plan) with
      | true, Core.Heuristics.Feedback, Some plan -> Some plan
      | _ -> None)
    (Lazy.force cells)

let measure f =
  let before = allocated () in
  f ();
  allocated () -. before

let report what ~words ~per ~unit_ =
  Printf.printf "%s: %.0f words, %.0f per %s\n" what words per unit_

let judge what ~per ~unit_ ~budget =
  if per > budget then
    Alcotest.failf "%s: %.0f words per %s, over the budget of %.0f" what per
      unit_ budget

let within what ~words ~per ~unit_ ~budget =
  report what ~words ~per ~unit_;
  judge what ~per ~unit_ ~budget

(* Words per block of [run] over the functions of the 18 fb plans.  This
   suite starts no other domain, so no other allocation enters the
   counters. *)
let per_fb_block_budget ~what ~budget run =
  let funcs =
    List.concat_map
      (fun (plan : Core.Partition.plan) ->
        List.map snd (Ir.Prog.Smap.bindings plan.Core.Partition.prog.Ir.Prog.funcs))
      (fb_plans ())
  in
  let blocks = List.fold_left (fun a f -> a + Ir.Func.num_blocks f) 0 funcs in
  let words = measure (fun () -> List.iter run funcs) in
  within (what ^ " of the fb plans' functions") ~words
    ~per:(words /. float_of_int blocks) ~unit_:"block" ~budget

(* Sound liveness as a plan derives it for Depend and Regcomm (Dce's is
   the same fixpoint): tree-set register sets took about 3,700 words per
   block; reading instructions through sorted operand lists, 248; joining
   successors through per-block arrays and a closure per block, 100. *)
let liveness_budget = 75.0

let test_liveness_budget () =
  per_fb_block_budget ~what:"liveness" ~budget:liveness_budget (fun f ->
      ignore (Analysis.Dataflow.sound_live_in f))

(* A function's static block frequencies, as Partition.facts derives them
   (238 words per block when they derived three DFS numberings, two
   dominator trees and three predecessor arrays from successor lists). *)
let block_freqs_budget = 100.0

let test_block_freqs_budget () =
  per_fb_block_budget ~what:"block_freqs" ~budget:block_freqs_budget (fun f ->
      ignore (Analysis.Cost.block_freqs f))

(* A loop forest as a consumer derives it: one DFS numbering, one
   predecessor table, the dominators and the loops (149 words per block
   when Loops.compute derived its own dominators over predecessor lists
   and marked each natural loop in a Hashtbl). *)
let loops_budget = 80.0

let test_loops_budget () =
  per_fb_block_budget ~what:"loop forest" ~budget:loops_budget (fun f ->
      let preds = Ir.Func.pred_table f in
      ignore
        (Analysis.Loops.compute f
           (Analysis.Dom.compute (Analysis.Dfs.compute f) preds)
           preds))

(* What a reader of a plan whose facts and liveness are already derived
   pays: a second plan_cost, and Depend.analyze at ab and fi as the
   precision report calls it (about 12,900 words per static instruction
   when every reader re-ran the address analysis, 865 when every
   dependence memo re-derived the liveness and boxed its first events,
   271 when both analyses derived the register edges too). *)
let plan_budget = 150.0

let test_plan_budget () =
  let plans = fb_plans () in
  List.iter (fun p -> ignore (Core.Cost.plan_cost p)) plans;
  let insns =
    List.fold_left
      (fun a (p : Core.Partition.plan) ->
        a + Ir.Prog.static_size p.Core.Partition.prog)
      0 plans
  in
  let words =
    measure (fun () ->
        List.iter
          (fun p ->
            ignore (Core.Cost.plan_cost p);
            ignore (Core.Depend.analyze p);
            ignore (Core.Depend.analyze ~fi:true p))
          plans)
  in
  within "second plan_cost and Depend.analyze of the fb plans" ~words
    ~per:(words /. float_of_int insns) ~unit_:"static instruction"
    ~budget:plan_budget

(* The 18 workloads' programs as the levels compile them: hoisted (bb, cf
   and dd share one), and unrolled then hoisted (ts and fb share one). *)
let suite_progs =
  lazy
    (List.map
       (fun (what, level) ->
         ( what,
           List.filter_map
             (fun (c : Corpus.cell) ->
               match c.Corpus.plan with
               | Ok plan when c.Corpus.suite && c.Corpus.level = level ->
                 Some plan.Core.Partition.prog
               | _ -> None)
             (Lazy.force corpus) ))
       [
         ("hoisted", Core.Heuristics.Data_dependence);
         ("unrolled", Core.Heuristics.Task_size);
       ])

(* Words per static instruction of [run] over each set of programs; both
   sets are measured and reported before either is judged. *)
let per_insn_budget ~what ~budget run =
  let unit_ = "static instruction" in
  List.map
    (fun (progs_what, progs) ->
      let insns =
        List.fold_left (fun a p -> a + Ir.Prog.static_size p) 0 progs
      in
      let words = measure (fun () -> List.iter run progs) in
      let what = Printf.sprintf "%s of the %s programs" what progs_what in
      let per = words /. float_of_int insns in
      report what ~words ~per ~unit_;
      (what, per))
    (Lazy.force suite_progs)
  |> List.iter (fun (what, per) -> judge what ~per ~unit_ ~budget)

(* The address analysis, whose engine once copied the register file on
   every transfer and rebuilt it on every join (3,351 and 3,517 words per
   static instruction), and rebuilt its supergraph and state buffers for
   every outer round (386 and 332; 336 and 287 with one of each per
   analysis, and 261 and 236 once the data segment's boxed cells and the
   table of every initialised cell were gone). *)
let memdep_budget = 320.0

let test_memdep_budget () =
  per_insn_budget ~what:"Memdep.analyze" ~budget:memdep_budget (fun p ->
      ignore (Analysis.Memdep.analyze ~sp:Interp.Run.initial_sp p))

(* Every function's cross-block dependence edges (657 and 1,272 words per
   static instruction when they were read off tree-set reaching
   definitions and a list of every def-use pair; 47 and 48 when each
   block's reads came through sorted operand lists). *)
let dep_edges_budget = 40.0

let test_dep_edges_budget () =
  per_insn_budget ~what:"block_dep_edges" ~budget:dep_edges_budget (fun p ->
      Ir.Prog.Smap.iter
        (fun _ f -> ignore (Analysis.Dataflow.block_dep_edges f))
        p.Ir.Prog.funcs)

(* Data-dependence selection as Partition.build runs it, over every
   function of the 18 workloads' hoisted programs with the profiled edges
   it passes: the most frequent 64 of Partition.dep_edges_of_profile from
   the program's run (1,388 words per block when every dependence edge
   rebuilt a predecessor array for its codependent set, kept as a tree
   set). *)
let data_dependence_budget = 500.0

let test_data_dependence_budget () =
  let params = Core.Heuristics.default in
  let funcs =
    List.concat_map
      (fun (c : Corpus.cell) ->
        match c.Corpus.plan with
        | Ok plan
          when c.Corpus.suite
               && c.Corpus.level = Core.Heuristics.Data_dependence ->
          let prog = plan.Core.Partition.prog in
          let outcome = c.Corpus.run prog in
          List.map
            (fun (name, f) ->
              let deps =
                match Interp.Trace.fid outcome.Interp.Run.trace name with
                | fid ->
                  List.filteri
                    (fun i _ -> i < 64)
                    (Core.Partition.dep_edges_of_profile
                       outcome.Interp.Run.profile ~fid f)
                | exception Not_found -> []
              in
              (f, deps))
            (Ir.Prog.Smap.bindings prog.Ir.Prog.funcs)
        | _ -> [])
      (Lazy.force corpus)
  in
  let blocks =
    List.fold_left (fun a (f, _) -> a + Ir.Func.num_blocks f) 0 funcs
  in
  let words =
    measure (fun () ->
        List.iter
          (fun (f, deps) ->
            ignore
              (Core.Select.data_dependence params f
                 ~included_calls:(Array.make (Ir.Func.num_blocks f) false)
                 ~deps))
          funcs)
  in
  within "data-dependence selection of the hoisted programs" ~words
    ~per:(words /. float_of_int blocks) ~unit_:"block"
    ~budget:data_dependence_budget

(* One function of a plan, with the plan's liveness. *)
type plan_func = {
  plan : Core.Partition.plan;
  name : string;
  f : Ir.Func.t;
  live_in : Analysis.Dataflow.Regset.t array;
  part : Core.Task.partition;
}

let num_task_blocks (part : Core.Task.partition) =
  Array.fold_left
    (fun a (t : Core.Task.t) -> a + Core.Task.Iset.cardinal t.Core.Task.blocks)
    0 part.Core.Task.tasks

(* Words per task-block (one block of one task; tasks may share blocks)
   of [run] on every function of the 18 workloads' plans, level by level.
   The plan's liveness and what [prepare] derives are made before the
   count starts; every level is measured and reported before any is
   judged. *)
let per_task_block_budget ~what ~budget ~prepare run =
  let unit_ = "task-block" in
  List.map
    (fun level ->
      let funcs =
        List.concat_map
          (fun c ->
            match (c.suite, c.plan) with
            | true, Some (plan : Core.Partition.plan) when c.level = level ->
              List.map
                (fun (name, f) ->
                  let pf =
                    {
                      plan;
                      name;
                      f;
                      live_in = Core.Partition.live_in plan name;
                      part = Ir.Prog.Smap.find name plan.Core.Partition.parts;
                    }
                  in
                  (pf, prepare pf))
                (Ir.Prog.Smap.bindings plan.Core.Partition.prog.Ir.Prog.funcs)
            | _ -> [])
          (Lazy.force cells)
      in
      let task_blocks =
        List.fold_left (fun a (pf, _) -> a + num_task_blocks pf.part) 0 funcs
      in
      let words =
        measure (fun () -> List.iter (fun (pf, x) -> run pf x) funcs)
      in
      let what =
        Printf.sprintf "%s of the %s plans" what
          (Core.Heuristics.level_name level)
      in
      let per = words /. float_of_int task_blocks in
      report what ~words ~per ~unit_;
      (what, per))
    Core.Heuristics.extended_levels
  |> List.iter (fun (what, per) -> judge what ~per ~unit_ ~budget)

(* Regcomm.create.  Built through tuple-keyed hash tables, a tree-set
   search per block and a closure per (block, register), it took about
   1,300 to 1,500 words per task-block; when it derived the liveness
   itself, 357 to 434. *)
let regcomm_budget = 250.0

let test_regcomm_budget () =
  per_task_block_budget ~what:"Regcomm.create" ~budget:regcomm_budget
    ~prepare:ignore (fun pf () ->
      ignore (Core.Regcomm.create pf.f ~live_in:pf.live_in pf.part))

(* The regcomm/* audit, Regcomm.create and the audit's own liveness
   included (1,044 to 1,214 words per task-block when it kept its sets in
   per-task hash tables and read instructions through operand lists). *)
let regcomm_audit_budget = 350.0

let test_regcomm_audit_budget () =
  per_task_block_budget ~what:"regcomm/* audit" ~budget:regcomm_audit_budget
    ~prepare:ignore (fun pf () ->
      ignore (Lint.check_regcomm pf.f ~live_in:pf.live_in pf.part))

(* The dep/reg audit, its Regcomm.create included, over the analyzer's
   edges, derived before the count starts (391 to 1,220 words per
   task-block when it memoised upward exposure and both edge sets in
   tuple-keyed hash tables). *)
let dep_reg_audit_budget = 350.0

let test_dep_reg_audit_budget () =
  per_task_block_budget ~what:"dep/reg audit" ~budget:dep_reg_audit_budget
    ~prepare:(fun pf ->
      let m =
        Core.Depend.memo pf.f ~live_in:pf.live_in
          ~included_calls:pf.part.Core.Task.included_calls
      in
      (Core.Depend.func_edges m pf.name pf.part).Core.Depend.f_regs)
    (fun pf edges ->
      ignore
        (Lint.check_deps_func pf.name pf.f ~live_in:pf.live_in pf.part edges))

(* The part/* audit (Lint.check_partition) as check_plan runs it, with
   the plan's level and parameters (112 to 167 words per task-block when
   it walked tasks through successor lists and tree-set seen sets). *)
let partition_audit_budget = 60.0

let test_partition_audit_budget () =
  per_task_block_budget ~what:"part/* audit" ~budget:partition_audit_budget
    ~prepare:ignore (fun pf () ->
      ignore
        (Lint.check_partition ~level:pf.plan.Core.Partition.level
           ~params:pf.plan.Core.Partition.params pf.f pf.part))

(* The functions of the 18 fb plans the fb search scores (positive
   weight), each with the plan's liveness and partition. *)
let fb_funcs () =
  List.concat_map
    (fun (plan : Core.Partition.plan) ->
      let facts = Core.Partition.facts plan in
      List.filter_map
        (fun (name, part) ->
          if Ir.Prog.Smap.find name facts.Core.Partition.weights > 0.0 then
            Some
              {
                plan;
                name;
                f = Ir.Prog.find plan.Core.Partition.prog name;
                live_in = Core.Partition.live_in plan name;
                part;
              }
          else None)
        (Ir.Prog.Smap.bindings plan.Core.Partition.parts))
    (fb_plans ())

let num_tasks pf = Array.length pf.part.Core.Task.tasks

(* One candidate's score as the fb search pays it: func_cost on a memo
   that already holds the partition's task summaries (563 words per task
   when Depend built edge lists and the score mapped them into
   observation lists). *)
let func_cost_budget = 150.0

let test_func_cost_budget () =
  let funcs =
    List.map
      (fun pf ->
        let m =
          Core.Depend.memo pf.f ~live_in:pf.live_in
            ~included_calls:pf.part.Core.Task.included_calls
        in
        let facts = Core.Partition.facts pf.plan in
        ignore (Core.Cost.func_cost facts m pf.name pf.f pf.part);
        (pf, facts, m))
      (fb_funcs ())
  in
  let tasks = List.fold_left (fun a (pf, _, _) -> a + num_tasks pf) 0 funcs in
  let words =
    measure (fun () ->
        List.iter
          (fun (pf, facts, m) ->
            ignore (Core.Cost.func_cost facts m pf.name pf.f pf.part))
          funcs)
  in
  within "func_cost on a warm memo over the fb plans" ~words
    ~per:(words /. float_of_int tasks) ~unit_:"task" ~budget:func_cost_budget

(* One candidate's partition as the fb search builds it: the staged
   Select.with_cuts, made before the count, given the partition's own
   task entries (170 words per task-block when each admitted block's
   target count built a task record). *)
let with_cuts_budget = 120.0

let test_with_cuts_budget () =
  let funcs =
    List.map
      (fun pf ->
        let part = pf.part in
        let cuts =
          Array.fold_left
            (fun s (t : Core.Task.t) -> Core.Task.Iset.add t.Core.Task.entry s)
            Core.Task.Iset.empty part.Core.Task.tasks
        in
        let with_cuts =
          Core.Select.with_cuts pf.plan.Core.Partition.params pf.f
            ~included_calls:part.Core.Task.included_calls
        in
        (with_cuts, cuts, num_task_blocks (with_cuts ~cuts)))
      (fb_funcs ())
  in
  let task_blocks = List.fold_left (fun a (_, _, k) -> a + k) 0 funcs in
  let words =
    measure (fun () ->
        List.iter (fun (with_cuts, cuts, _) -> ignore (with_cuts ~cuts)) funcs)
  in
  within "a with_cuts candidate over the fb plans" ~words
    ~per:(words /. float_of_int task_blocks) ~unit_:"task-block"
    ~budget:with_cuts_budget

(* --- the bit-vector register set against a tree-set model ------------------- *)

module Model = Set.Make (Int)
module Regset = Analysis.Dataflow.Regset

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Diff of int list

let print_op = function
  | Add r -> Printf.sprintf "add %d" r
  | Remove r -> Printf.sprintf "remove %d" r
  | Union l -> "union " ^ QCheck.Print.(list int) l
  | Diff l -> "diff " ^ QCheck.Print.(list int) l

(* the word boundaries (31 | 32) and both ends get extra weight *)
let gen_reg =
  QCheck.Gen.(frequency [ (3, int_range 0 63); (2, oneofl [ 0; 31; 32; 63 ]) ])

let gen_op =
  QCheck.Gen.(
    let regs = list_size (int_range 0 12) gen_reg in
    frequency
      [
        (4, map (fun r -> Add r) gen_reg);
        (3, map (fun r -> Remove r) gen_reg);
        (1, map (fun l -> Union l) regs);
        (1, map (fun l -> Diff l) regs);
      ])

let agrees s m =
  Regset.elements s = Model.elements m
  && List.for_all (fun r -> Regset.mem r s = Model.mem r m) (List.init 64 Fun.id)

(* Each step must agree with the model, and an operation whose result
   equals an argument must return that argument itself. *)
let prop_regset_model =
  QCheck.Test.make ~name:"bit-vector sets match Set.Make (Int)" ~count:1000
    QCheck.(
      make ~print:(Print.list print_op)
        Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let step (s, m) op =
        let o, mo =
          match op with
          | Add r | Remove r -> (Regset.of_list [ r ], Model.singleton r)
          | Union l | Diff l ->
            (Regset.of_list (List.rev l), Model.of_list l)
        in
        let s', m' =
          match op with
          | Add r -> (Regset.add r s, Model.add r m)
          | Remove r -> (Regset.remove r s, Model.remove r m)
          | Union _ -> (Regset.union s o, Model.union m mo)
          | Diff _ -> (Regset.diff s o, Model.diff m mo)
        in
        if not (agrees s' m' && agrees o mo) then
          QCheck.Test.fail_reportf "%s disagrees with the model" (print_op op);
        if Regset.equal s o <> Model.equal m mo then
          QCheck.Test.fail_reportf "equal disagrees before %s" (print_op op);
        let unchanged =
          match op with
          | Add _ | Remove _ -> Model.equal m' m && s' != s
          | Union _ | Diff _ ->
            (Model.equal m' m || Model.equal m' mo) && s' != s && s' != o
        in
        if unchanged then
          QCheck.Test.fail_reportf "%s rebuilt an unchanged set" (print_op op);
        (s', m')
      in
      let s, m = List.fold_left step (Regset.empty, Model.empty) ops in
      (* the same members, inserted in other orders *)
      let members = Model.elements m in
      Regset.equal s (Regset.of_list members)
      && Regset.equal s (Regset.of_list (List.rev members))
      && Regset.equal s
           (List.fold_left
              (fun acc r -> Regset.add r (Regset.add r acc))
              Regset.empty
              (List.filteri (fun i _ -> i mod 2 = 1) members
              @ List.filteri (fun i _ -> i mod 2 = 0) members)))

let test_regset_edges () =
  let s = Regset.of_list [ 63; 31; 32; 0 ] in
  Alcotest.(check (list int)) "elements ascend across the word boundary"
    [ 0; 31; 32; 63 ] (Regset.elements s);
  Alcotest.(check bool) "removing an absent member returns the set" true
    (Regset.remove 5 s == s);
  Alcotest.(check bool) "mem outside 0..63" false
    (Regset.mem 64 s || Regset.mem (-1) s);
  Alcotest.check_raises "add outside 0..63"
    (Invalid_argument "Dataflow.Regset.add: register 64") (fun () ->
      ignore (Regset.add 64 s))

let () =
  Alcotest.run "static"
    [
      ( "static",
        [
          Alcotest.test_case "golden digests" `Quick test_golden;
          Alcotest.test_case "analysis digests" `Quick test_analysis_golden;
          Alcotest.test_case "liveness allocation budget" `Quick
            test_liveness_budget;
          Alcotest.test_case "block_freqs allocation budget" `Quick
            test_block_freqs_budget;
          Alcotest.test_case "loop forest allocation budget" `Quick
            test_loops_budget;
          Alcotest.test_case "data_dependence allocation budget" `Quick
            test_data_dependence_budget;
          Alcotest.test_case "plan allocation budget" `Quick test_plan_budget;
          Alcotest.test_case "memdep allocation budget" `Quick
            test_memdep_budget;
          Alcotest.test_case "dependence edge allocation budget" `Quick
            test_dep_edges_budget;
          Alcotest.test_case "regcomm allocation budget" `Quick
            test_regcomm_budget;
          Alcotest.test_case "regcomm audit allocation budget" `Quick
            test_regcomm_audit_budget;
          Alcotest.test_case "dep/reg audit allocation budget" `Quick
            test_dep_reg_audit_budget;
          Alcotest.test_case "part/* audit allocation budget" `Quick
            test_partition_audit_budget;
          Alcotest.test_case "func_cost allocation budget" `Quick
            test_func_cost_budget;
          Alcotest.test_case "with_cuts allocation budget" `Quick
            test_with_cuts_budget;
        ] );
      ( "regset",
        [
          QCheck_alcotest.to_alcotest prop_regset_model;
          Alcotest.test_case "word boundary and range" `Quick test_regset_edges;
        ] );
    ]
