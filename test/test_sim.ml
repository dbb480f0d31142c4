(* Tests for the Multiscalar simulator: predictors, caches, layout, dynamic
   task chopping, per-task timing, and the engine (including memory
   dependence speculation). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cfg4 = Sim.Config.default ~num_pus:4 ~in_order:false
let cfg8 = Sim.Config.default ~num_pus:8 ~in_order:false

(* --- predictors ---------------------------------------------------------- *)

let test_gshare_learns_bias () =
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 2000 do
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:42 ~taken:true) then
      incr wrong;
    ignore i
  done;
  checkb "always-taken learned" true (!wrong < 20)

let test_gshare_learns_pattern () =
  (* alternating taken/not-taken is captured by the history *)
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 4000 do
    let taken = i mod 2 = 0 in
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:7 ~taken) then
      incr wrong
  done;
  checkb "alternation learned" true (!wrong < 100)

let test_gshare_distinguishes_pcs () =
  let g = Sim.Predict.Gshare.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 4000 do
    ignore (Sim.Predict.Gshare.predict_and_update g ~pc:1 ~taken:true);
    if not (Sim.Predict.Gshare.predict_and_update g ~pc:2 ~taken:false) then
      incr wrong;
    ignore i
  done;
  checkb "opposite-bias branches coexist" true (!wrong < 100)

let test_target_predictor () =
  let t = Sim.Predict.Target.create cfg4 in
  let wrong = ref 0 in
  for i = 1 to 3000 do
    if not (Sim.Predict.Target.predict_and_update t ~pc:5 ~actual:2) then
      incr wrong;
    ignore i
  done;
  checkb "constant target learned" true (!wrong < 20)

let test_target_above_four_never_correct () =
  let t = Sim.Predict.Target.create cfg4 in
  let any = ref false in
  for _ = 1 to 100 do
    if Sim.Predict.Target.predict_and_update t ~pc:5 ~actual:7 then any := true
  done;
  checkb "2-bit target cannot express slot 7" false !any

let test_ras () =
  let r = Sim.Predict.Ras.create 4 in
  Sim.Predict.Ras.push r 10;
  Sim.Predict.Ras.push r 20;
  checki "depth" 2 (Sim.Predict.Ras.depth r);
  checkb "lifo" true (Sim.Predict.Ras.pop r = Some 20);
  checkb "lifo 2" true (Sim.Predict.Ras.pop r = Some 10);
  checkb "underflow" true (Sim.Predict.Ras.pop r = None)

let test_ras_overflow_drops_oldest () =
  let r = Sim.Predict.Ras.create 2 in
  Sim.Predict.Ras.push r 1;
  Sim.Predict.Ras.push r 2;
  Sim.Predict.Ras.push r 3;
  checki "capacity respected" 2 (Sim.Predict.Ras.depth r);
  checkb "newest on top" true (Sim.Predict.Ras.pop r = Some 3);
  checkb "oldest dropped" true (Sim.Predict.Ras.pop r = Some 2)

(* --- caches -------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Sim.Cache.create ~sets:16 ~ways:2 ~block_words:8 in
  checkb "first access misses" false (Sim.Cache.access c 100);
  checkb "second hits" true (Sim.Cache.access c 100);
  checkb "same block hits" true (Sim.Cache.access c 103);
  checkb "other block misses" false (Sim.Cache.access c 1000)

let test_cache_lru_eviction () =
  let c = Sim.Cache.create ~sets:1 ~ways:2 ~block_words:1 in
  ignore (Sim.Cache.access c 0);
  ignore (Sim.Cache.access c 1);
  (* touching 0 makes 1 the LRU victim *)
  checkb "0 still resident" true (Sim.Cache.access c 0);
  ignore (Sim.Cache.access c 2);
  (* 2 replaced the LRU line (1); 0 must have survived *)
  checkb "0 survived" true (Sim.Cache.access c 0);
  checkb "1 evicted" false (Sim.Cache.access c 1)

let test_hierarchy_latencies () =
  let h = Sim.Cache.Hierarchy.create cfg4 in
  let miss_lat = Sim.Cache.Hierarchy.dload h 500 in
  checki "cold miss = l1 + l2 + mem"
    (cfg4.Sim.Config.l1_latency + cfg4.Sim.Config.l2_latency
   + cfg4.Sim.Config.mem_latency)
    miss_lat;
  checki "hit = l1" cfg4.Sim.Config.l1_latency (Sim.Cache.Hierarchy.dload h 500);
  (* evict from L1 but not from the much larger L2: L1+L2 latency *)
  let c = Sim.Cache.Hierarchy.l1d h in
  ignore c;
  checki "ifetch hit costs nothing extra" 0
    (let _ = Sim.Cache.Hierarchy.ifetch h 800 in
     Sim.Cache.Hierarchy.ifetch h 800)

(* --- layout -------------------------------------------------------------- *)

let test_layout_unique () =
  let prog = Gen.fib_program 3 in
  let o = Interp.Run.execute prog in
  let tr = o.Interp.Run.trace in
  let layout = Sim.Layout.create tr.Interp.Trace.funcs in
  let ids = Hashtbl.create 16 in
  Array.iteri
    (fun fid f ->
      for blk = 0 to Ir.Func.num_blocks f - 1 do
        let id = Sim.Layout.block_id layout ~fid ~blk in
        checkb "unique id" true (not (Hashtbl.mem ids id));
        Hashtbl.replace ids id ()
      done)
    tr.Interp.Trace.funcs;
  checki "count" (Sim.Layout.num_blocks layout) (Hashtbl.length ids)

(* Every instruction site has an id of its own, also past a block's
   1,024th instruction, where ids of the form block id * 1024 + index ran
   into the next block's. *)
let test_layout_sites_distinct () =
  let blk label n term =
    { Ir.Block.label; insns = Array.make n Ir.Insn.Nop; term }
  in
  let f =
    {
      Ir.Func.name = "main";
      blocks = [| blk 0 1100 (Ir.Block.Jump 1); blk 1 2 Ir.Block.Ret |];
    }
  in
  let layout = Sim.Layout.create [| f |] in
  let ids = Hashtbl.create 2048 in
  let sites = ref 0 in
  Array.iteri
    (fun b (bl : Ir.Block.t) ->
      (* the terminator is a site too *)
      for idx = 0 to Array.length bl.Ir.Block.insns do
        incr sites;
        Hashtbl.replace ids (Sim.Layout.site_id layout ~fid:0 ~blk:b ~idx) ()
      done)
    f.Ir.Func.blocks;
  checki "distinct sites" !sites (Hashtbl.length ids)

(* --- dynamic task chopping ----------------------------------------------- *)

(* a trace and the plan's partitions by fid: what a task walk reads *)
let chop_of level prog =
  let plan = Core.Partition.build level prog in
  let o = Interp.Run.execute plan.Core.Partition.prog in
  let tr = o.Interp.Run.trace in
  let parts =
    Array.map
      (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      tr.Interp.Trace.fnames
  in
  (tr, parts)

let walk_of (tr, parts) = Sim.Dyntask.walk (Sim.Dyntask.program tr ~parts) tr
let count (tr, parts) = Sim.Dyntask.count tr ~parts
let check_instances (tr, parts) = Sim.Dyntask.check_instances tr ~parts

let test_chop_tiles () =
  List.iter
    (fun level ->
      match check_instances (chop_of level (Gen.fib_program 8)) with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: %s" (Core.Heuristics.level_name level) e)
    Core.Heuristics.all_levels

(* instances whose successor is [s] *)
let count_succ chop s =
  let w = walk_of chop in
  let c = ref 0 in
  while Sim.Dyntask.next w do
    if Sim.Dyntask.succ w = s then incr c
  done;
  !c

let test_chop_kinds () =
  let chop = chop_of Core.Heuristics.Control_flow (Gen.fib_program 6) in
  (* a finished walk rests on the last instance *)
  let w = walk_of chop in
  while Sim.Dyntask.next w do
    ()
  done;
  checkb "last is program end" true
    ((Sim.Dyntask.get w).Sim.Dyntask.kind = Sim.Dyntask.Program_end);
  let calls = count_succ chop Sim.Dyntask.To_callee in
  let rets = count_succ chop Sim.Dyntask.To_caller in
  checkb "calls happen" true (calls > 0);
  (* every call returns except possibly the last instance *)
  checkb "calls and returns balance" true (abs (calls - rets) <= 1)

let test_chop_included_calls () =
  (* at task-size level, fib's tiny callee is included: the number of
     instances shrinks versus data-dependence *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "tiny" (fun b ->
      Ir.Builder.addi b Ir.Reg.rv (Ir.Reg.arg 0) 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 50)
        ~step:1 (fun b ->
          Ir.Builder.mov b (Ir.Reg.arg 0) t0;
          Ir.Builder.call b "tiny");
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let dd = chop_of Core.Heuristics.Data_dependence prog in
  let ts = chop_of Core.Heuristics.Task_size prog in
  checkb "inclusion merges instances" true (count ts < count dd)

let test_chop_nested_included_calls () =
  (* tiny2 calls tiny1; both below CALL_THRESH: at the task-size level the
     whole call tree executes inside the loop task (depth-2 inclusion) *)
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "tiny1" (fun b ->
      Ir.Builder.addi b Ir.Reg.rv (Ir.Reg.arg 0) 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "tiny2" (fun b ->
      Ir.Builder.call b "tiny1";
      Ir.Builder.addi b Ir.Reg.rv Ir.Reg.rv 1;
      Ir.Builder.ret b);
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 30)
        ~step:1 (fun b ->
          Ir.Builder.mov b (Ir.Reg.arg 0) t0;
          Ir.Builder.call b "tiny2");
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let ts = chop_of Core.Heuristics.Task_size prog in
  (match check_instances ts with
  | Ok () -> ()
  | Error e -> Alcotest.failf "nested inclusion: %s" e);
  let dd = chop_of Core.Heuristics.Data_dependence prog in
  checkb "nested inclusion merges instances" true (count ts < count dd);
  (* with both calls included, no instance ends in Calls/Returns except via
     main's own epilogue *)
  checkb "call boundaries disappear" true
    (count_succ ts Sim.Dyntask.To_callee <= 1)

let test_chop_recursion () =
  (* recursive functions stay task boundaries (their inclusive size is big);
     the chop must still tile the trace *)
  match check_instances (chop_of Core.Heuristics.Task_size (Gen.fib_program 10)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "recursion: %s" e

(* a corpus cell's trace and its partitions, indexed by the trace's fids *)
let cell_trace (c : Corpus.cell) plan =
  let trace = (c.Corpus.run plan.Core.Partition.prog).Interp.Run.trace in
  ( trace,
    Array.map
      (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      trace.Interp.Trace.fnames )

(* The chop golden: one line per (program, level) of Corpus, an MD5 over
   every instance's fid, task, event range, size, control transfers and
   successor, or the message of the [Not_closed] the walk raised.  Made
   with the chop as it was before its instance table was packed, and kept
   when the table gave way to the walk. *)
let chop_line (c : Corpus.cell) =
  match c.Corpus.plan with
  | Error e -> Corpus.label c ^ " raises " ^ Printexc.to_string e
  | Ok plan -> (
    let w = walk_of (cell_trace c plan) in
    let buf = Buffer.create 65536 in
    match
      while Sim.Dyntask.next w do
        let arg = string_of_int (Sim.Dyntask.succ_arg w) in
        Printf.bprintf buf "%d %d %d %d %d %d %s\n" (Sim.Dyntask.fid w)
          (Sim.Dyntask.task w) (Sim.Dyntask.first w) (Sim.Dyntask.last w)
          (Sim.Dyntask.size w) (Sim.Dyntask.ct w)
          (match Sim.Dyntask.succ w with
          | Sim.Dyntask.To_block -> "F" ^ arg
          | Sim.Dyntask.To_callee -> "C" ^ arg
          | Sim.Dyntask.To_caller -> "R"
          | Sim.Dyntask.To_end -> "E")
      done
    with
    | exception Sim.Dyntask.Not_closed msg ->
      Corpus.label c ^ " not closed: " ^ msg
    | () ->
      Corpus.label c ^ " "
      ^ Digest.to_hex (Digest.string (Buffer.contents buf)))

let corpus = lazy (Corpus.cells ())

let test_chop_golden () =
  Corpus.check_golden
    ~path:(Filename.concat "golden" "chop_digests.txt")
    ~what:"task instances" ~pins:"the chop as it was before its packing"
    (String.concat ""
       (List.map (fun c -> chop_line c ^ "\n") (Lazy.force corpus)))

(* --- observed memory flows ------------------------------------------------ *)

(* The replay [Sim.Memflow.observed] was before its tables were packed: a
   polymorphic [Hashtbl] from each address to its last store's
   (instance, fid, task) and one from each 4-tuple pair to its count and
   first address. *)
let memflow_model (tr : Interp.Trace.t) ~parts =
  let kinds =
    Array.map
      (fun (f : Ir.Func.t) ->
        Array.map
          (fun (b : Ir.Block.t) ->
            Array.of_list
              (List.filter_map
                 (function
                   | Ir.Insn.Load _ -> Some false
                   | Ir.Insn.Store _ -> Some true
                   | _ -> None)
                 (Array.to_list b.Ir.Block.insns)))
          f.Ir.Func.blocks)
      tr.Interp.Trace.funcs
  in
  let last_store = Hashtbl.create 4096 in
  let edges : (int * int * int * int, int ref * int) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iteri
    (fun k (d : Sim.Dyntask.instance) ->
      let fid = d.Sim.Dyntask.fid and task = d.Sim.Dyntask.task in
      for ev = d.Sim.Dyntask.first to d.Sim.Dyntask.last do
        let ka =
          kinds.(Interp.Trace.get_fid tr ev).(Interp.Trace.get_blk tr ev)
        in
        Array.iteri
          (fun j store ->
            let addr =
              Interp.Trace.addr_at tr (Interp.Trace.addr_offset tr ev + j)
            in
            if store then Hashtbl.replace last_store addr (k, fid, task)
            else
              match Hashtbl.find_opt last_store addr with
              | Some (k', f', t') when k' < k -> (
                let key = (f', t', fid, task) in
                match Hashtbl.find_opt edges key with
                | Some (n, _) -> incr n
                | None -> Hashtbl.replace edges key (ref 1, addr))
              | _ -> ())
          ka
      done)
    (Sim.Dyntask.instances tr ~parts);
  Hashtbl.fold
    (fun (src_fid, src_task, dst_fid, dst_task) (n, addr) acc ->
      { Sim.Memflow.src_fid; src_task; dst_fid; dst_task; count = !n; addr }
      :: acc)
    edges []
  |> List.sort compare

(* every field of every edge, on every cell of the chop golden's corpus *)
let test_memflow_model () =
  let cells = ref 0 and edges = ref 0 in
  List.iter
    (fun (c : Corpus.cell) ->
      match c.Corpus.plan with
      | Error _ -> ()
      | Ok plan ->
        let trace, parts = cell_trace c plan in
        let replay f =
          match f trace ~parts with
          | es -> Ok es
          | exception Sim.Dyntask.Not_closed msg -> Error msg
        in
        let got = replay Sim.Memflow.observed in
        if got <> replay memflow_model then
          Alcotest.failf "%s: observed flows differ from the model"
            (Corpus.label c);
        incr cells;
        Result.iter (fun es -> edges := !edges + List.length es) got)
    (Lazy.force corpus);
  checki "every cell replayed" (List.length (Lazy.force corpus)) !cells;
  checkb (Printf.sprintf "%d edges compared" !edges) true (!edges > 0)

(* --- timing -------------------------------------------------------------- *)

(* helper: simulate a straight-line program and report cycles *)
let run_level ?(cfg = cfg4) level prog =
  let plan = Core.Partition.build level prog in
  (Sim.Engine.run cfg plan).Sim.Engine.stats

let straightline_prog ~dependent n =
  let pb = Ir.Builder.program () in
  let t0 = Ir.Reg.tmp 0 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t0 1;
      for i = 0 to n - 1 do
        if dependent then Ir.Builder.addi b t0 t0 1
        else Ir.Builder.li b (Ir.Reg.tmp (1 + (i mod 8))) i
      done;
      Ir.Builder.mov b Ir.Reg.rv t0);
  Ir.Builder.finish pb ~main:"main"

let test_dependent_chain_slower () =
  let dep = run_level Core.Heuristics.Control_flow (straightline_prog ~dependent:true 60) in
  let ind = run_level Core.Heuristics.Control_flow (straightline_prog ~dependent:false 60) in
  checkb "dependent chain is slower" true
    (dep.Sim.Stats.cycles > ind.Sim.Stats.cycles)

let test_in_order_not_faster () =
  let store = Harness.Artifact.create () in
  List.iter
    (fun name ->
      let art =
        Harness.Artifact.get store ~level:Core.Heuristics.Control_flow
          (Workloads.Suite.find name)
      in
      let ipc in_order =
        Sim.Stats.ipc (Harness.Artifact.sim store art ~num_pus:8 ~in_order)
      in
      checkb
        (name ^ ": out-of-order at least as fast")
        true
        (ipc false >= ipc true -. 0.01))
    [ "compress"; "tomcatv" ]

let test_ipc_bounded () =
  let s = run_level Core.Heuristics.Task_size (Gen.square_sum_program 200) in
  checkb "IPC within machine width" true
    (Sim.Stats.ipc s <= float_of_int (4 * cfg4.Sim.Config.issue_width))

(* --- memory dependence speculation --------------------------------------- *)

(* Older task stores to a fixed address *late* (behind a dependence chain);
   younger task loads it *early*.  With control-flow loop tasks on several
   PUs the younger load runs ahead, so the first iterations must violate,
   and the synchronization table must then suppress repeats. *)
let violation_prog () =
  let pb = Ir.Builder.program () in
  let cell = Ir.Builder.alloc pb 1 in
  let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 and t2 = Ir.Reg.tmp 2 in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.li b t2 0;
      Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 60)
        ~step:1 (fun b ->
          (* early load *)
          Ir.Builder.li b t1 cell;
          Ir.Builder.load b t1 t1 0;
          Ir.Builder.bin b Ir.Insn.Add t2 t2 (Ir.Insn.Reg t1);
          (* long dependent delay *)
          for _ = 1 to 12 do
            Ir.Builder.bin b Ir.Insn.Mul t2 t2 (Ir.Insn.Imm 1)
          done;
          (* late store *)
          Ir.Builder.addi b t1 t2 1;
          Ir.Builder.bin b Ir.Insn.And t1 t1 (Ir.Insn.Imm 255);
          Ir.Builder.li b Ir.Reg.rv cell;
          Ir.Builder.store b t1 Ir.Reg.rv 0);
      Ir.Builder.mov b Ir.Reg.rv t2);
  Ir.Builder.finish pb ~main:"main"

let test_violation_then_sync () =
  let s = run_level ~cfg:cfg8 Core.Heuristics.Control_flow (violation_prog ()) in
  checkb "violations occur" true (s.Sim.Stats.violations > 0);
  checkb "sync table kicks in" true (s.Sim.Stats.syncs > 0);
  checkb "violations bounded by sync learning" true
    (s.Sim.Stats.violations < 10);
  checkb "mem penalty charged" true (s.Sim.Stats.mem_penalty > 0)

let test_single_pu_never_violates () =
  let cfg1 = Sim.Config.default ~num_pus:1 ~in_order:false in
  let s = run_level ~cfg:cfg1 Core.Heuristics.Control_flow (violation_prog ()) in
  checki "no violations on 1 PU" 0 s.Sim.Stats.violations

let test_bank_contention () =
  (* a memory-heavy parallel loop: a single shared bank must be slower than
     per-PU interleaved banks *)
  let prog =
    let pb = Ir.Builder.program () in
    let a = Ir.Builder.alloc pb 512 in
    let t0 = Ir.Reg.tmp 0 and t1 = Ir.Reg.tmp 1 in
    Ir.Builder.func pb "main" (fun b ->
        Ir.Builder.for_ b t0 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 400)
          ~step:1 (fun b ->
            Ir.Builder.bin b Ir.Insn.And t1 t0 (Ir.Insn.Imm 255);
            Ir.Builder.addi b t1 t1 a;
            Ir.Builder.load b Ir.Reg.rv t1 0;
            Ir.Builder.store b Ir.Reg.rv t1 256);
        Ir.Builder.ret b);
    Ir.Builder.finish pb ~main:"main"
  in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let one_bank = { cfg8 with Sim.Config.l1_banks = 1 } in
  let s1 = (Sim.Engine.run one_bank plan).Sim.Engine.stats in
  let s8 = (Sim.Engine.run cfg8 plan).Sim.Engine.stats in
  checkb "interleaving helps memory-heavy code" true
    (s8.Sim.Stats.cycles <= s1.Sim.Stats.cycles)

(* --- superscalar reference ------------------------------------------------ *)

let test_superscalar_runs () =
  let prog = Gen.square_sum_program 100 in
  let o = Interp.Run.execute prog in
  let cfg =
    {
      (Sim.Config.default ~num_pus:1 ~in_order:false) with
      Sim.Config.issue_width = 4;
      rob_size = 64;
      iq_size = 32;
    }
  in
  let r = Sim.Superscalar.run cfg o.Interp.Run.trace in
  checki "all insns counted" o.Interp.Run.steps
    r.Sim.Superscalar.stats.Sim.Stats.dyn_insns;
  checkb "ipc positive and bounded" true
    (let ipc = Sim.Stats.ipc r.Sim.Superscalar.stats in
     ipc > 0.0 && ipc <= 4.0);
  checkb "window within ROB" true
    (r.Sim.Superscalar.avg_window <= 64.0 +. 1e-9)

let test_superscalar_wider_not_slower () =
  let prog = Gen.square_sum_program 200 in
  let o = Interp.Run.execute prog in
  let mk width rob =
    {
      (Sim.Config.default ~num_pus:1 ~in_order:false) with
      Sim.Config.issue_width = width;
      rob_size = rob;
      iq_size = rob / 2;
      fu_int = width;
    }
  in
  let narrow = Sim.Superscalar.run (mk 2 16) o.Interp.Run.trace in
  let wide = Sim.Superscalar.run (mk 8 128) o.Interp.Run.trace in
  checkb "wider machine at least as fast" true
    (wide.Sim.Superscalar.stats.Sim.Stats.cycles
     <= narrow.Sim.Superscalar.stats.Sim.Stats.cycles)

(* The superscalar golden: one line per distinct trace of Corpus (the
   levels of a program share a trace when their plans share a program),
   each run at 4-wide/ROB 64 and at a 2-wide, ROB-16 in-order shape:
   cycles, instructions, intra-task branches and mispredicts, L1 I and D
   accesses and misses, and the average window as bits.  Made with the
   superscalar's own scheduler, before it ran on Timing.exec. *)
let superscalar_shapes =
  [
    Sim.Superscalar.config ~width:4 ~rob:64;
    {
      (Sim.Superscalar.config ~width:2 ~rob:16) with
      Sim.Config.in_order = true;
    };
  ]

let superscalar_line trace =
  String.concat " | "
    (List.map
       (fun cfg ->
         let r = Sim.Superscalar.run cfg trace in
         let s = r.Sim.Superscalar.stats in
         Printf.sprintf "%d %d %d %d %d %d %d %d %h" s.Sim.Stats.cycles
           s.Sim.Stats.dyn_insns s.Sim.Stats.intra_branches
           s.Sim.Stats.intra_branch_mispredicts s.Sim.Stats.l1i_accesses
           s.Sim.Stats.l1i_misses s.Sim.Stats.l1d_accesses
           s.Sim.Stats.l1d_misses r.Sim.Superscalar.avg_window)
       superscalar_shapes)

let test_superscalar_golden () =
  let seen = ref [] in
  let lines =
    List.filter_map
      (fun (c : Corpus.cell) ->
        match c.Corpus.plan with
        | Error _ -> None
        | Ok plan ->
          let trace = (c.Corpus.run plan.Core.Partition.prog).Interp.Run.trace in
          if List.memq trace !seen then None
          else begin
            seen := trace :: !seen;
            Some (Corpus.label c ^ " " ^ superscalar_line trace ^ "\n")
          end)
      (Lazy.force corpus)
  in
  Corpus.check_golden
    ~path:(Filename.concat "golden" "superscalar_digests.txt")
    ~what:"superscalar runs"
    ~pins:"the superscalar as it was with a scheduler of its own"
    (String.concat "" lines)

(* --- predictor ablation ---------------------------------------------------- *)

let test_bimodal_config_runs () =
  let prog = Gen.square_sum_program 100 in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let cfg = { cfg8 with Sim.Config.task_path_history = false } in
  let r = Sim.Engine.run cfg plan in
  checkb "bimodal predictor still simulates" true
    (Sim.Stats.ipc r.Sim.Engine.stats > 0.0)

(* --- per-path release points ------------------------------------------------ *)

(* Regression for the register release model: a loop whose carried register
   is *conditionally* rewritten late (an interpreter-style virtual PC).  A
   path-insensitive "send at task end" model serialises the machine; with
   per-path release the rare-rewrite path forwards early and 8 PUs must
   clearly beat 1 PU. *)
let test_release_points_unserialise () =
  let prog =
    let pb = Ir.Builder.program () in
    let pc = Ir.Reg.tmp 0 and i = Ir.Reg.tmp 1 and t = Ir.Reg.tmp 2 in
    let acc = Ir.Reg.tmp 3 in
    Ir.Builder.func pb "main" (fun b ->
        Ir.Builder.li b pc 0;
        Ir.Builder.for_ b i ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm 300)
          ~step:1 (fun b ->
            (* common path: pc advances by 1 early *)
            Ir.Builder.addi b pc pc 1;
            (* some dependent work *)
            for _ = 1 to 8 do
              Ir.Builder.bin b Ir.Insn.Add acc acc (Ir.Insn.Reg pc)
            done;
            (* rare path: a "branch" rewrites pc late *)
            Ir.Builder.bin b Ir.Insn.And t i (Ir.Insn.Imm 63);
            Ir.Builder.bin b Ir.Insn.Eq t t (Ir.Insn.Imm 63);
            Ir.Builder.when_ b t (fun b -> Ir.Builder.li b pc 0));
        Ir.Builder.mov b Ir.Reg.rv acc);
    Ir.Builder.finish pb ~main:"main"
  in
  let plan = Core.Partition.build Core.Heuristics.Control_flow prog in
  let ipc n =
    Sim.Stats.ipc
      (Sim.Engine.run (Sim.Config.default ~num_pus:n ~in_order:false) plan)
        .Sim.Engine.stats
  in
  checkb "8 PUs clearly beat 1 PU despite the conditional rewrite" true
    (ipc 8 > 1.6 *. ipc 1)

(* --- engine invariants --------------------------------------------------- *)

let test_all_insns_retired () =
  let prog = Gen.fib_program 12 in
  List.iter
    (fun level ->
      let plan = Core.Partition.build level prog in
      let o = Interp.Run.execute plan.Core.Partition.prog in
      let tr = o.Interp.Run.trace in
      let r = Sim.Engine.run_prepared cfg8 (Sim.Engine.prepare plan tr) tr in
      checki
        (Core.Heuristics.level_name level)
        o.Interp.Run.steps r.Sim.Engine.stats.Sim.Stats.dyn_insns)
    Core.Heuristics.all_levels

let test_deterministic () =
  let prog = Gen.square_sum_program 50 in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let a = Sim.Engine.run cfg8 plan in
  let b = Sim.Engine.run cfg8 plan in
  checki "same cycles" a.Sim.Engine.stats.Sim.Stats.cycles
    b.Sim.Engine.stats.Sim.Stats.cycles

let test_more_pus_not_slower () =
  let prog = Gen.square_sum_program 300 in
  let plan = Core.Partition.build Core.Heuristics.Data_dependence prog in
  let c1 = Sim.Config.default ~num_pus:1 ~in_order:false in
  let s1 = (Sim.Engine.run c1 plan).Sim.Engine.stats in
  let s8 = (Sim.Engine.run cfg8 plan).Sim.Engine.stats in
  checkb "8 PUs at least as fast as 1" true
    (s8.Sim.Stats.cycles <= s1.Sim.Stats.cycles)

(* Chopping over the packed representation must still tile the trace
   exactly: every event covered once, in order, sizes consistent — on
   arbitrary generated programs at every heuristic level. *)
let prop_chop_covers_packed =
  QCheck.Test.make ~name:"chop tiles the packed trace at every level"
    ~count:10 Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          check_instances (chop_of level prog) = Ok ())
        Core.Heuristics.all_levels)

let prop_engine_retires_everything =
  QCheck.Test.make ~name:"engine retires exactly the dynamic instructions"
    ~count:10 Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun level ->
          let plan = Core.Partition.build level prog in
          let o = Interp.Run.execute plan.Core.Partition.prog in
          let tr = o.Interp.Run.trace in
          let r =
            Sim.Engine.run_prepared cfg4 (Sim.Engine.prepare plan tr) tr
          in
          r.Sim.Engine.stats.Sim.Stats.dyn_insns = o.Interp.Run.steps
          && r.Sim.Engine.stats.Sim.Stats.cycles > 0)
        Core.Heuristics.all_levels)

(* --- model checks of the packed tables --------------------------------- *)

(* The simulator and the frozen reference (lib/sim_ref) share Predict and
   Cache, so the event-core differential cannot see a packing bug in
   them.  These models are the representations before packing — an int
   per entry, a list for the return stack — driven by the same random
   operation sequences. *)

let model_mix pc = (pc * 2654435761) land max_int

module Gshare_model = struct
  type t = {
    mask : int;
    hist_mask : int;
    mutable hist : int;
    table : int array;
  }

  let create (cfg : Sim.Config.t) =
    {
      mask = cfg.Sim.Config.predictor_entries - 1;
      hist_mask = (1 lsl cfg.Sim.Config.predictor_bits) - 1;
      hist = 0;
      table = Array.make cfg.Sim.Config.predictor_entries 2;
    }

  let predict_and_update t ~pc ~taken =
    let idx = (model_mix pc lxor t.hist) land t.mask in
    let counter = t.table.(idx) in
    let correct = counter >= 2 = taken in
    t.table.(idx) <-
      (if taken then min 3 (counter + 1) else max 0 (counter - 1));
    t.hist <- ((t.hist lsl 1) lor (if taken then 1 else 0)) land t.hist_mask;
    correct
end

module Target_model = struct
  type t = {
    mask : int;
    hist_mask : int;
    use_history : bool;
    mutable hist : int;
    counter : int array;
    target : int array;
  }

  let create ~use_history (cfg : Sim.Config.t) =
    let n = cfg.Sim.Config.predictor_entries in
    {
      mask = n - 1;
      hist_mask = (1 lsl cfg.Sim.Config.predictor_bits) - 1;
      use_history;
      hist = 0;
      counter = Array.make n 0;
      target = Array.make n 0;
    }

  let predict_and_update t ~pc ~actual =
    let idx =
      (if t.use_history then model_mix pc lxor t.hist else model_mix pc)
      land t.mask
    in
    let c = t.counter.(idx) and g = t.target.(idx) in
    let correct = g = actual land 3 && actual < 4 in
    if g = actual land 3 then t.counter.(idx) <- min 3 (c + 1)
    else if c > 0 then t.counter.(idx) <- c - 1
    else t.target.(idx) <- actual land 3;
    t.hist <- ((t.hist lsl 2) lxor model_mix pc lxor actual) land t.hist_mask;
    correct
end

(* a predictor of 2^1 .. 2^10 entries (one to sixteen 64-entry pages) or
   of 2^12 .. 2^16 (64 to 1,024 pages, where the hashed indexes land on
   many of them), with 1 .. 16 history bits *)
let gen_predictor_cfg =
  QCheck.Gen.(
    map2
      (fun e b ->
        { cfg4 with
          Sim.Config.predictor_entries = 1 lsl e;
          predictor_bits = b })
      (frequency [ (1, int_range 1 10); (2, int_range 12 16) ])
      (int_range 1 16))

let print_predictor_cfg (c : Sim.Config.t) =
  Printf.sprintf "%d entries, %d history bits" c.Sim.Config.predictor_entries
    c.Sim.Config.predictor_bits

let prop_gshare_model =
  QCheck.Test.make ~name:"gshare matches the int-array model" ~count:200
    QCheck.(
      pair
        (make ~print:print_predictor_cfg gen_predictor_cfg)
        (small_list (pair (int_bound 40) bool)))
    (fun (cfg, ops) ->
      let g = Sim.Predict.Gshare.create cfg and m = Gshare_model.create cfg in
      List.for_all
        (fun (pc, taken) ->
          Sim.Predict.Gshare.predict_and_update g ~pc ~taken
          = Gshare_model.predict_and_update m ~pc ~taken)
        (ops @ ops @ ops))

let prop_target_model =
  QCheck.Test.make ~name:"target matches the int-array model" ~count:200
    QCheck.(
      triple
        (make ~print:print_predictor_cfg gen_predictor_cfg)
        bool
        (small_list (pair (int_bound 40) (int_bound 6))))
    (fun (cfg, use_history, ops) ->
      let t = Sim.Predict.Target.create ~use_history cfg in
      let m = Target_model.create ~use_history cfg in
      List.for_all
        (fun (pc, actual) ->
          Sim.Predict.Target.predict_and_update t ~pc ~actual
          = Target_model.predict_and_update m ~pc ~actual)
        (ops @ ops @ ops))

(* [Some v] pushes v, [None] pops (through [pop] or [pop_or] in turn) *)
let prop_ras_model =
  QCheck.Test.make ~name:"ras matches the list model" ~count:300
    QCheck.(pair (int_range 1 6) (list (option (int_bound 1000))))
    (fun (capacity, ops) ->
      let r = Sim.Predict.Ras.create capacity in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Some v ->
              Sim.Predict.Ras.push r v;
              model := List.filteri (fun i _ -> i < capacity) (v :: !model);
              true
            | None ->
              let want =
                match !model with
                | [] -> None
                | v :: rest ->
                  model := rest;
                  Some v
              in
              if List.length !model mod 2 = 0 then
                Sim.Predict.Ras.pop r = want
              else
                Sim.Predict.Ras.pop_or r (-1)
                = Option.value want ~default:(-1)
          in
          agree && Sim.Predict.Ras.depth r = List.length !model)
        ops)

(* The model keeps an int per age and an option per tag in flat
   [set * ways + way] arrays, and maps an address with floor division and
   a non-negative remainder written out over the integers. *)
module Cache_model = struct
  type t = {
    sets : int;
    ways : int;
    block_words : int;
    tags : int option array;
    lru : int array;
  }

  let create ~sets ~ways ~block_words =
    {
      sets;
      ways;
      block_words;
      tags = Array.make (sets * ways) None;
      lru = Array.init (sets * ways) (fun i -> i mod ways);
    }

  let touch t base way =
    let age = t.lru.(base + way) in
    for w = base to base + t.ways - 1 do
      if t.lru.(w) < age then t.lru.(w) <- t.lru.(w) + 1
    done;
    t.lru.(base + way) <- 0

  (* the largest q with q * d <= a *)
  let floor_div a d =
    let q = a / d in
    if q * d > a then q - 1 else q

  let access t addr =
    let block = floor_div addr t.block_words in
    let tag = floor_div block t.sets in
    let base = (block - (tag * t.sets)) * t.ways in
    let found = ref (-1) in
    for w = 0 to t.ways - 1 do
      if t.tags.(base + w) = Some tag then found := w
    done;
    if !found >= 0 then (touch t base !found; true)
    else begin
      let victim = ref 0 in
      for w = 0 to t.ways - 1 do
        if t.lru.(base + w) > t.lru.(base + !victim) then victim := w
      done;
      t.tags.(base + !victim) <- Some tag;
      touch t base !victim;
      false
    end
end

(* Set counts on both sides of the 64-set page boundary and spanning
   several pages, up to 18; addresses over many pages, below zero
   included.  A wrong page index or in-page offset makes two sets share
   entries. *)
let gen_cache_shape =
  QCheck.Gen.(
    triple
      (frequency
         [
           (1, int_range 1 8);
           (2, oneofl [ 1; 63; 64; 65; 128; 129; 300; 1100 ]);
         ])
      (oneofl [ 1; 2; 3; 4; 8; 255; 256 ])
      (int_range 1 4))

let gen_cache_addrs =
  QCheck.Gen.(
    list
      (frequency
         [ (2, int_bound 3000); (2, int_range (-40_000) 40_000);
           (1, int_range (-600) 0) ]))

let prop_cache_model =
  QCheck.Test.make ~name:"cache matches the int-array LRU model" ~count:200
    QCheck.(
      pair
        (make
           ~print:(fun (s, w, b) ->
             Printf.sprintf "%d sets, %d ways, %d words" s w b)
           gen_cache_shape)
        (make ~print:Print.(list int) gen_cache_addrs))
    (fun ((sets, ways, block_words), addrs) ->
      let c = Sim.Cache.create ~sets ~ways ~block_words in
      let m = Cache_model.create ~sets ~ways ~block_words in
      let misses = ref 0 in
      List.for_all
        (fun a ->
          let hit = Cache_model.access m a in
          if not hit then incr misses;
          Sim.Cache.access c a = hit)
        (addrs @ addrs)
      && Sim.Cache.misses c = !misses
      && Sim.Cache.accesses c = 2 * List.length addrs)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_cache_rejects_wide_sets () =
  let create sets ways () = Sim.Cache.create ~sets ~ways ~block_words:8 in
  checkb "256 ways accepted" false (raises_invalid (create 2 256));
  checkb "257 ways rejected" true (raises_invalid (create 2 257));
  checkb "0 sets rejected" true (raises_invalid (create 0 2))

(* --- occupancy windows -------------------------------------------------- *)

(* The three paths of a reservation past the end of the rows, on a
   64-cycle window: slide (the span from the floor fits in half a row),
   grow (it does not), and the probes below the floor that must raise. *)
let test_slots_paths () =
  let s = Sim.Occ.Slots.create ~rows:2 ~hint:64 in
  Sim.Occ.Slots.take s ~row:0 10;
  Sim.Occ.Slots.take s ~row:1 62;
  Sim.Occ.Slots.raise_floor s 60;
  Sim.Occ.Slots.take s ~row:1 70;
  checki "slid, not grown" 64 (Sim.Occ.Slots.capacity s);
  checki "kept above the floor" 1 (Sim.Occ.Slots.count s ~row:1 62);
  checki "new reservation" 1 (Sim.Occ.Slots.count s ~row:1 70);
  checki "find_free skips the booked cycle" 63
    (Sim.Occ.Slots.find_free s ~row:1 ~cap:1 ~from:62);
  Sim.Occ.Slots.take s ~row:0 (60 + 100);
  checkb "grown to twice the span" true (Sim.Occ.Slots.capacity s >= 202);
  checki "kept across the growth" 1 (Sim.Occ.Slots.count s ~row:1 62);
  checki "grown reservation" 1 (Sim.Occ.Slots.count s ~row:0 160);
  checki "beyond the window" 0 (Sim.Occ.Slots.count s ~row:0 100_000);
  checkb "count below the floor" true
    (raises_invalid (fun () -> Sim.Occ.Slots.count s ~row:0 59));
  checkb "take below the floor" true
    (raises_invalid (fun () -> Sim.Occ.Slots.take s ~row:0 10));
  checkb "reserve below the floor" true
    (raises_invalid (fun () ->
         Sim.Occ.Slots.reserve s ~row:0 ~cap:1 ~from:0));
  checkb "the floor only rises" true
    (raises_invalid (fun () -> Sim.Occ.Slots.raise_floor s 59))

type slots_op =
  | Raise of int  (* raise the floor by this much *)
  | Take of int * int  (* row, cycles above the floor *)
  | Reserve of int * int * int  (* row, cap, cycles above the floor *)
  | Count of int * int
  | Below of int  (* a probe this many cycles below the floor + 1 *)

let print_slots_op = function
  | Raise d -> Printf.sprintf "Raise %d" d
  | Take (r, o) -> Printf.sprintf "Take (%d, %d)" r o
  | Reserve (r, c, o) -> Printf.sprintf "Reserve (%d, %d, %d)" r c o
  | Count (r, o) -> Printf.sprintf "Count (%d, %d)" r o
  | Below d -> Printf.sprintf "Below %d" d

(* offsets mostly inside a 64-cycle row, sometimes far past it *)
let gen_slots_op =
  QCheck.Gen.(
    let offset = frequency [ (4, int_bound 60); (1, int_bound 400) ] in
    frequency
      [
        ( 2,
          map
            (fun d -> Raise d)
            (frequency [ (3, int_bound 30); (1, int_bound 300) ]) );
        (3, map2 (fun r o -> Take (r, o)) (int_bound 2) offset);
        ( 3,
          map3
            (fun r c o -> Reserve (r, c, o))
            (int_bound 2) (int_range 1 3) offset );
        (2, map2 (fun r o -> Count (r, o)) (int_bound 2) offset);
        (1, map (fun d -> Below d) (int_bound 50));
      ])

let prop_slots_model =
  QCheck.Test.make ~name:"slots match a hashtable under rising floors"
    ~count:500
    QCheck.(
      make ~print:(Print.list print_slots_op)
        Gen.(list_size (int_range 1 300) gen_slots_op))
    (fun ops ->
      let s = Sim.Occ.Slots.create ~rows:3 ~hint:64 in
      let model = Hashtbl.create 64 in
      let floor = ref 0 in
      let get r c = Option.value (Hashtbl.find_opt model (r, c)) ~default:0 in
      let incr_at r c = Hashtbl.replace model (r, c) (get r c + 1) in
      List.for_all
        (fun op ->
          match op with
          | Raise d ->
            floor := !floor + d;
            Sim.Occ.Slots.raise_floor s !floor;
            true
          | Take (r, o) ->
            Sim.Occ.Slots.take s ~row:r (!floor + o);
            incr_at r (!floor + o);
            true
          | Reserve (r, cap, o) ->
            let c = ref (!floor + o) in
            while get r !c >= cap do incr c done;
            incr_at r !c;
            Sim.Occ.Slots.reserve s ~row:r ~cap ~from:(!floor + o) = !c
          | Count (r, o) ->
            Sim.Occ.Slots.count s ~row:r (!floor + o) = get r (!floor + o)
          | Below d ->
            let c = !floor - 1 - d in
            !floor = 0
            || raises_invalid (fun () -> Sim.Occ.Slots.count s ~row:0 c)
               && raises_invalid (fun () -> Sim.Occ.Slots.take s ~row:1 c)
               && raises_invalid (fun () ->
                      Sim.Occ.Slots.find_free s ~row:2 ~cap:1 ~from:c))
        ops)

(* --- simulator allocation budget ---------------------------------------- *)

(* words allocated so far; the major collection first makes the counters
   exact (without it, words still in the minor heap and promotions not
   yet added to [major_words] are missing) *)
let allocated () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  let before = allocated () in
  f ();
  allocated () -. before

(* A loop with a switch, a branch, a call on every other trip and a
   read-modify-write of a small array in the callee: every table the
   engine keeps (predictors, the return stack, caches, ring and bank
   windows, store maps, the sync table) sees steady-state traffic. *)
let budget_program trips =
  let open Ir.Builder in
  let open Workloads.Util in
  let pb = program () in
  let base = alloc pb 64 in
  func pb "bump" (fun b ->
      bin b Ir.Insn.And t2 (Ir.Reg.arg 0) (imm 63);
      load_at b ~dst:t3 ~base ~index:t2 ~scratch:t4;
      bin b Ir.Insn.Add t3 t3 (reg (Ir.Reg.arg 0));
      store_at b ~src:t3 ~base ~index:t2 ~scratch:t4;
      ret b);
  func pb "main" (fun b ->
      li b t0 0;
      for_ b t1 ~from:(imm 0) ~below:(imm trips) ~step:1 (fun b ->
          bin b Ir.Insn.And t5 t1 (imm 3);
          switch_ b t5
            [| (fun b -> addi b t0 t0 1); (fun b -> addi b t0 t0 2);
               (fun b -> bin b Ir.Insn.Mul t0 t0 (imm 3)) |]
            ~default:(fun b -> addi b t0 t0 (-1));
          bin b Ir.Insn.And t6 t1 (imm 1);
          if_ b t6
            (fun b ->
              mov b (Ir.Reg.arg 0) t1;
              call b "bump")
            (fun b -> addi b t0 t0 5));
      mov b Ir.Reg.rv t0;
      ret b);
  finish pb ~main:"main"

(* [Engine.run_prepared] allocates in proportion to the machine: a trace
   6x longer of the same loop on the same machine may allocate at most
   [slack] words more.  (With occupancy rows indexed by absolute cycle and
   per-instance time arrays, the engine allocated about 21 words per
   simulated cycle.)  And it allocates only what the run touches of the
   machine: at most [run_words] per run, where allocating the caches and
   predictors in full took 193,029 words on 8 PUs.  The run walks the
   trace's task instances itself, so the walk is inside the measurement;
   the preparation stays outside it (see [test_prep_footprint]).  A second
   run on the same machine allocates at most [reuse_words]: a reset drops
   the touched pages and keeps the page indexes, rings, maps and windows
   (a fresh machine's run takes 14–19 k words here). *)
let slack = 1024.0
let run_words = 32768.0
let reuse_words = 4096.0

let test_engine_alloc_budget () =
  let run level cfg trips =
    let plan = Core.Partition.build level (budget_program trips) in
    let trace = (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace in
    let prep = Sim.Engine.prepare plan trace in
    let before = allocated () in
    let m = Sim.Engine.machine cfg in
    let r = Sim.Engine.run_on m prep trace in
    let fresh = allocated () -. before in
    let before = allocated () in
    let again = Sim.Engine.run_on m prep trace in
    let reused = allocated () -. before in
    checkb "the second run equals the first" true
      (again.Sim.Engine.stats = r.Sim.Engine.stats);
    (fresh, reused, r.Sim.Engine.stats.Sim.Stats.cycles)
  in
  List.iter
    (fun (level, cfg) ->
      let short_w, short_again, short_c = run level cfg 400 in
      let long_w, long_again, long_c = run level cfg 2400 in
      let what =
        Printf.sprintf
          "%s on %d PUs: %.0f words (%.0f again) for %d cycles, %.0f (%.0f \
           again) for %d"
          (Core.Heuristics.level_name level) cfg.Sim.Config.num_pus short_w
          short_again short_c long_w long_again long_c
      in
      print_endline what;
      checkb (what ^ ": the long trace is 4x longer") true
        (long_c >= 4 * short_c);
      checkb (what ^ ": within the budget") true (long_w -. short_w <= slack);
      checkb (what ^ ": within the run's words") true
        (Float.max short_w long_w <= run_words);
      checkb (what ^ ": a reused machine within its words") true
        (Float.max short_again long_again <= reuse_words))
    [
      (Core.Heuristics.Basic_block, cfg8);
      (Core.Heuristics.Control_flow, cfg4);
      ( Core.Heuristics.Data_dependence,
        Sim.Config.default ~num_pus:8 ~in_order:true );
    ]

(* A prep is sized by the program, and a task walk allocates its cursor
   alone: on the budget program at 400 and 2,400 trips, the words
   reachable from [Engine.prepare]'s result are the same, and so are the
   words one full walk allocates.  (The packed task chop a prep used to
   hold kept three words per instance, and grew as it was built.) *)
let test_prep_footprint () =
  let at level trips =
    let plan = Core.Partition.build level (budget_program trips) in
    let trace =
      (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace
    in
    let parts =
      Array.map
        (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
        trace.Interp.Trace.fnames
    in
    let prep = Sim.Engine.prepare plan trace in
    let program = Sim.Dyntask.program trace ~parts in
    let n = ref 0 in
    let walked =
      measure (fun () ->
          let w = Sim.Dyntask.walk program trace in
          while Sim.Dyntask.next w do
            ()
          done;
          n := Sim.Dyntask.index w + 1)
    in
    (Obj.reachable_words (Obj.repr prep), walked, !n)
  in
  List.iter
    (fun level ->
      let short_prep, short_walk, short_n = at level 400 in
      let long_prep, long_walk, long_n = at level 2400 in
      let what =
        Printf.sprintf
          "%s: %d and %d instances, preps of %d and %d words, walks \
           allocating %.0f and %.0f"
          (Core.Heuristics.level_name level) short_n long_n short_prep
          long_prep short_walk long_walk
      in
      print_endline what;
      checkb (what ^ ": the long trace has 4x the instances") true
        (long_n >= 4 * short_n);
      checkb (what ^ ": preps of the same size") true (short_prep = long_prep);
      checkb (what ^ ": walks allocating the same") true
        (short_walk = long_walk))
    [
      Core.Heuristics.Basic_block;
      Core.Heuristics.Control_flow;
      Core.Heuristics.Data_dependence;
    ]

(* An L2-shaped cache (65,536 sets of 2 ways, 1,024 pages of 64 sets)
   touched at [k] distinct pages allocates its two page indexes, [k] tag
   pages and [k] age pages, and at most 128 words of records (the
   cache's, the tables', and the measurement's own). *)
let test_cache_first_touch () =
  let sets = 65536 and ways = 2 and block_words = 8 in
  let pages = List.init 20 (fun i -> i * 51) in
  let index = 2.0 *. float_of_int (1 + (sets / 64)) in
  (* a page of 64 * ways int tags, and of 64 * ways byte ages *)
  let page = float_of_int (1 + (64 * ways) + 1 + ((64 * ways) + 8) / 8) in
  let c = ref (Sim.Cache.create ~sets:1 ~ways ~block_words) in
  let words =
    measure (fun () ->
        c := Sim.Cache.create ~sets ~ways ~block_words;
        for round = 0 to 2 do
          List.iter
            (fun p ->
              for s = 0 to 5 do
                let set = (p * 64) + (s * 11) in
                let addr = (set + (round * sets)) * block_words in
                ignore (Sim.Cache.access !c addr)
              done)
            pages;
          (* the last page again, from below zero *)
          ignore (Sim.Cache.access !c (-block_words))
        done)
  in
  let k = List.length pages + 1 in
  let bound = index +. (float_of_int k *. page) +. 128.0 in
  Printf.printf "%d pages touched: %.0f words (bound %.0f)\n" k words bound;
  checki "accesses" (3 * ((6 * (k - 1)) + 1)) (Sim.Cache.accesses !c);
  checkb "within the page indexes plus the touched pages" true (words <= bound)

(* A store and a load at word address -64, which the trace records as it
   is: the simulators map it to a block, set and bank like any other. *)
let negative_address_program =
  "func main {\nL0:\n  li t0, -64\n  li t1, 5\n  st t1, 0(t0)\n\
  \  ld t2, 0(t0)\n  ret\n}\nmain main\n"

let test_negative_address () =
  let prog =
    match Ir.Parse.program negative_address_program with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let store = Harness.Artifact.create () in
  let entry = Workloads.Registry.of_program ~name:"negative" prog in
  List.iter
    (fun level ->
      let art = Harness.Artifact.get store ~level entry in
      let prep = Harness.Artifact.prep store art in
      let plan = art.Harness.Artifact.plan
      and trace = art.Harness.Artifact.trace in
      List.iter
        (fun cfg ->
          let what =
            Printf.sprintf "%s on %d PUs" (Core.Heuristics.level_name level)
              cfg.Sim.Config.num_pus
          in
          let s = (Sim.Engine.run_prepared cfg prep trace).Sim.Engine.stats in
          checki (what ^ ": instructions") 5 s.Sim.Stats.dyn_insns;
          Alcotest.(check (option string))
            (what ^ ": the reference agrees")
            None
            (Sim_ref.Engine_ref.differential cfg prep plan trace))
        [ cfg4; Sim.Config.default ~num_pus:8 ~in_order:true ])
    Core.Heuristics.extended_levels

let () =
  Alcotest.run "sim"
    [
      ( "predictors",
        [
          Alcotest.test_case "gshare bias" `Quick test_gshare_learns_bias;
          Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
          Alcotest.test_case "gshare pcs" `Quick test_gshare_distinguishes_pcs;
          Alcotest.test_case "target predictor" `Quick test_target_predictor;
          Alcotest.test_case "target slot > 3" `Quick
            test_target_above_four_never_correct;
          Alcotest.test_case "ras" `Quick test_ras;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_drops_oldest;
          QCheck_alcotest.to_alcotest prop_gshare_model;
          QCheck_alcotest.to_alcotest prop_target_model;
          QCheck_alcotest.to_alcotest prop_ras_model;
        ] );
      ( "caches",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "hierarchy latencies" `Quick
            test_hierarchy_latencies;
          Alcotest.test_case "bank contention" `Quick test_bank_contention;
          QCheck_alcotest.to_alcotest prop_cache_model;
          Alcotest.test_case "way limit" `Quick test_cache_rejects_wide_sets;
          Alcotest.test_case "first touch" `Quick test_cache_first_touch;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "slide, grow, floor" `Quick test_slots_paths;
          QCheck_alcotest.to_alcotest prop_slots_model;
        ] );
      ( "layout",
        [
          Alcotest.test_case "unique ids" `Quick test_layout_unique;
          Alcotest.test_case "distinct sites" `Quick test_layout_sites_distinct;
        ] );
      ( "chopping",
        [
          Alcotest.test_case "tiles" `Quick test_chop_tiles;
          Alcotest.test_case "kinds" `Quick test_chop_kinds;
          Alcotest.test_case "included calls" `Quick test_chop_included_calls;
          Alcotest.test_case "nested inclusion" `Quick
            test_chop_nested_included_calls;
          Alcotest.test_case "recursion" `Quick test_chop_recursion;
          Alcotest.test_case "golden digests" `Quick test_chop_golden;
          QCheck_alcotest.to_alcotest prop_chop_covers_packed;
        ] );
      ( "memflow",
        [ Alcotest.test_case "hashtable model" `Quick test_memflow_model ] );
      ( "timing",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_slower;
          Alcotest.test_case "in-order slower" `Quick test_in_order_not_faster;
          Alcotest.test_case "ipc bounded" `Quick test_ipc_bounded;
        ] );
      ( "memory speculation",
        [
          Alcotest.test_case "violation then sync" `Quick
            test_violation_then_sync;
          Alcotest.test_case "1 PU never violates" `Quick
            test_single_pu_never_violates;
        ] );
      ( "superscalar",
        [
          Alcotest.test_case "runs" `Quick test_superscalar_runs;
          Alcotest.test_case "wider not slower" `Quick
            test_superscalar_wider_not_slower;
          Alcotest.test_case "golden digests" `Quick test_superscalar_golden;
          Alcotest.test_case "bimodal config" `Quick test_bimodal_config_runs;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all retired" `Quick test_all_insns_retired;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "scaling sane" `Quick test_more_pus_not_slower;
          Alcotest.test_case "release points" `Quick
            test_release_points_unserialise;
          QCheck_alcotest.to_alcotest prop_engine_retires_everything;
          Alcotest.test_case "allocation budget" `Quick
            test_engine_alloc_budget;
          Alcotest.test_case "prep footprint" `Quick test_prep_footprint;
          Alcotest.test_case "negative addresses" `Quick
            test_negative_address;
        ] );
    ]
