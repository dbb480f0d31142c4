(* Oracles of the static layer (Analysis.Dataflow, Analysis.Memdep,
   Core.Depend, Core.Regcomm, Core.Cost): one MD5 per (program, level) of
   everything the layer answers about the plan, pinned against a golden
   made before the layer was rewritten. *)

(* --- what the static layer answers about one plan ------------------------ *)

let all_regs =
  Analysis.Dataflow.Regset.of_list (List.init Ir.Reg.count Fun.id)

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
      Analysis.Dataflow.liveness ~call_uses:all_regs f;
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
    (Core.Depend.reg_edges d);
  List.iter
    (fun ((s : Core.Depend.task_id), (t : Core.Depend.task_id)) ->
      Printf.bprintf buf "mem %s.%d>%s.%d\n" s.Core.Depend.fn s.Core.Depend.task
        t.Core.Depend.fn t.Core.Depend.task)
    (Core.Depend.mem_edges d)

let exposed buf name f (part : Core.Task.partition) =
  let m = Core.Depend.memo f ~included_calls:part.Core.Task.included_calls in
  List.iter
    (fun (t, r, depth) -> Printf.bprintf buf "exp %d r%d %d\n" t r depth)
    (Core.Depend.func_edges m name part).Core.Depend.f_exposed

let regcomm buf f (part : Core.Task.partition) =
  let rc = Core.Regcomm.create f part in
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
      liveness buf f;
      exposed buf name f part;
      regcomm buf f part)
    plan.Core.Partition.parts;
  depend buf ~fi:false plan;
  depend buf ~fi:true plan;
  memdep buf prog;
  cost buf plan;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the programs ------------------------------------------------------- *)

(* Profiling runs shared within one program's levels, as the artifact
   store shares them: the plans are the same whoever interprets. *)
let shared_run () =
  let runs = Hashtbl.create 8 in
  fun p ->
    let key = Digest.string (Marshal.to_string p [ Marshal.No_sharing ]) in
    match Hashtbl.find_opt runs key with
    | Some o -> o
    | None ->
      let o = Interp.Run.execute p in
      Hashtbl.replace runs key o;
      o

(* the 18 workloads, then the 44 programs of the seed-42 fuzz corpus (the
   fuzz-corpus ledger workload's), generated as Fuzz.check_one generates
   them *)
let programs () =
  let cfg = Fuzz.default_config in
  List.map
    (fun (e : Workloads.Registry.entry) ->
      (true, e.Workloads.Registry.name, e.build))
    Workloads.Suite.all
  @ List.init 44 (fun index ->
        let profile =
          List.nth cfg.Fuzz.profiles (index mod List.length cfg.Fuzz.profiles)
        in
        let seed = Workloads.Synth.program_seed ~seed:cfg.Fuzz.seed ~index in
        ( false,
          Printf.sprintf "fuzz-%02d-%s" index
            profile.Workloads.Synth.Profile.name,
          fun () -> Workloads.Synth.generate ~profile ~seed ))

type cell = {
  line : string;  (** the golden line *)
  suite : bool;  (** one of the 18 workloads *)
  level : Core.Heuristics.level;
  plan : Core.Partition.plan option;
}

(* one line per (program, level), with the level's plan for the budgets *)
let cells =
  lazy
    (List.concat_map
       (fun (suite, name, build) ->
         let prog = build () in
         let run = shared_run () in
         List.map
           (fun level ->
             let tag = Harness.Job.level_tag level in
             match Core.Cost.plan_for_level ~run level prog with
             | plan ->
               {
                 line =
                   Printf.sprintf "%-22s %-2s %s" name tag (static_digest plan);
                 suite;
                 level;
                 plan = Some plan;
               }
             | exception e ->
               {
                 line =
                   Printf.sprintf "%-22s %-2s raises %s" name tag
                     (Printexc.to_string e);
                 suite;
                 level;
                 plan = None;
               })
           Core.Heuristics.extended_levels)
       (programs ()))

let golden_path = Filename.concat "golden" "static_digests.txt"

let test_golden () =
  let got =
    String.concat "" (List.map (fun c -> c.line ^ "\n") (Lazy.force cells))
  in
  let want =
    let ic = open_in_bin golden_path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if got <> want then begin
    let out = golden_path ^ ".actual" in
    let oc = open_out_bin out in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "static analyses diverged from test/golden/%s; what this build \
       computed is in %s (in the build tree).  The golden pins the static \
       layer as it was before its rewrite: a difference is a bug in the \
       change, not a reason to regenerate."
      (Filename.basename golden_path) out
  end

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

let within what ~words ~per ~unit_ ~budget =
  Printf.printf "%s: %.0f words, %.0f per %s\n" what words per unit_;
  if per > budget then
    Alcotest.failf "%s: %.0f words per %s, over the budget of %.0f" what per
      unit_ budget

(* Liveness as Depend, Regcomm and Dce call it, over the 18 fb plans'
   functions (tree-set register sets took about 3,700 words per block).
   This suite starts no other domain, so no other allocation enters the
   counters. *)
let liveness_budget = 600.0

let test_liveness_budget () =
  let funcs =
    List.concat_map
      (fun (plan : Core.Partition.plan) ->
        List.map snd (Ir.Prog.Smap.bindings plan.Core.Partition.prog.Ir.Prog.funcs))
      (fb_plans ())
  in
  let blocks = List.fold_left (fun a f -> a + Ir.Func.num_blocks f) 0 funcs in
  let words =
    measure (fun () ->
        List.iter
          (fun f -> ignore (Analysis.Dataflow.liveness ~call_uses:all_regs f))
          funcs)
  in
  within "liveness of the fb plans' functions" ~words
    ~per:(words /. float_of_int blocks) ~unit_:"block" ~budget:liveness_budget

(* What a reader of a plan whose facts are already derived pays: a second
   plan_cost, and Depend.analyze at ab and fi as the precision report
   calls it (about 12,900 words per static instruction when every reader
   re-ran the address analysis). *)
let plan_budget = 3000.0

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

(* --- the bit-vector register set against a tree-set model ------------------- *)

module Model = Set.Make (Int)
module Regset = Analysis.Dataflow.Regset

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Inter of int list
  | Diff of int list

let print_op = function
  | Add r -> Printf.sprintf "add %d" r
  | Remove r -> Printf.sprintf "remove %d" r
  | Union l -> "union " ^ QCheck.Print.(list int) l
  | Inter l -> "inter " ^ QCheck.Print.(list int) l
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
        (1, map (fun l -> Inter l) regs);
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
          | Union l | Inter l | Diff l ->
            (Regset.of_list (List.rev l), Model.of_list l)
        in
        let s', m' =
          match op with
          | Add r -> (Regset.add r s, Model.add r m)
          | Remove r -> (Regset.remove r s, Model.remove r m)
          | Union _ -> (Regset.union s o, Model.union m mo)
          | Inter _ -> (Regset.inter s o, Model.inter m mo)
          | Diff _ -> (Regset.diff s o, Model.diff m mo)
        in
        if not (agrees s' m' && agrees o mo) then
          QCheck.Test.fail_reportf "%s disagrees with the model" (print_op op);
        if Regset.equal s o <> Model.equal m mo then
          QCheck.Test.fail_reportf "equal disagrees before %s" (print_op op);
        let unchanged =
          match op with
          | Add _ | Remove _ -> Model.equal m' m && s' != s
          | Union _ | Inter _ | Diff _ ->
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
          Alcotest.test_case "liveness allocation budget" `Quick
            test_liveness_budget;
          Alcotest.test_case "plan allocation budget" `Quick test_plan_budget;
        ] );
      ( "regset",
        [
          QCheck_alcotest.to_alcotest prop_regset_model;
          Alcotest.test_case "word boundary and range" `Quick test_regset_edges;
        ] );
    ]
