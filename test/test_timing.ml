(* Precise unit tests of the per-task pipeline timing model: latencies,
   widths, structural hazards, window limits, branch redirects, memory
   dependences, and inter-task operand arrival. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cfg = Sim.Config.default ~num_pus:4 ~in_order:false
let cfg_io = Sim.Config.default ~num_pus:4 ~in_order:true

(* Build a single-function program whose entry block holds [body]; chop it
   into basic-block tasks and return everything needed to time the first
   instance. *)
let instance_of body =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      body b;
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let o = Interp.Run.execute prog in
  let trace = o.Interp.Run.trace in
  let parts =
    Array.map Core.Select.basic_block trace.Interp.Trace.funcs
  in
  let instances = Sim.Dyntask.chop trace ~parts in
  let layout = Sim.Layout.create trace.Interp.Trace.funcs in
  (trace, layout, instances.(0))

(* The engine's inputs for one replay: the hooks plus the two per-attempt
   scalars [Timing.exec] takes.  [h_mem_dep] answers in packed form: -1
   for no dependence, else (avail lsl 1) lor synced. *)
type env = {
  start_fetch : int;
  mem_hold : int;
  hooks : Sim.Timing.hooks;
}

let default_env =
  {
    start_fetch = 0;
    mem_hold = 0;
    hooks =
      {
        Sim.Timing.h_reg_avail = (fun _ -> 0);
        h_mem_dep = (fun ~addr:_ ~load_site:_ -> -1);
        h_load_lat = (fun ~addr:_ -> 1);
        h_mem_slot = (fun ~addr:_ ~at -> at);
        h_ifetch_extra = (fun ~fid:_ ~blk:_ -> 0);
        h_cond_pred = (fun ~pc:_ ~taken:_ -> true);
        h_switch_pred = (fun ~pc:_ ~actual:_ -> true);
      };
  }

let with_hooks f = { default_env with hooks = f default_env.hooks }

let exec ?(env = default_env) ?(cfg = cfg) (trace, layout, inst) =
  let ctx = Sim.Timing.create cfg trace layout in
  Sim.Timing.exec ctx inst ~start_fetch:env.start_fetch ~mem_hold:env.mem_hold
    env.hooks;
  ctx

let time ?env ?cfg body = exec ?env ?cfg (instance_of body)

(* execution times of the instance's externally visible loads *)
let load_times (r : Sim.Timing.ctx) =
  List.init r.Sim.Timing.n_loads (fun i -> r.Sim.Timing.l_time.(i))

let t0 = Ir.Reg.tmp 0
let t1 = Ir.Reg.tmp 1

(* --- throughput and latency ---------------------------------------------- *)

let test_independent_throughput () =
  (* 40 independent li's on a 2-wide machine: ~20 cycles of issue *)
  let r =
    time (fun b ->
        for i = 0 to 39 do
          Ir.Builder.li b (Ir.Reg.tmp (i mod 10)) i
        done)
  in
  checki "40 li's + ret" 41 r.Sim.Timing.dyn_insns;
  checkb "~n/2 cycles" true
    (r.Sim.Timing.complete >= 20 && r.Sim.Timing.complete <= 30)

let test_dependent_chain_latency () =
  (* 40 chained adds: at least 40 cycles regardless of width *)
  let r =
    time (fun b ->
        Ir.Builder.li b t0 0;
        for _ = 1 to 40 do
          Ir.Builder.addi b t0 t0 1
        done)
  in
  checkb "serial chain >= 40" true (r.Sim.Timing.complete >= 40);
  checkb "not absurdly slow" true (r.Sim.Timing.complete <= 60)

let test_mul_latency () =
  (* chained multiplies cost lat_int_mul each *)
  let n = 10 in
  let r =
    time (fun b ->
        Ir.Builder.li b t0 1;
        for _ = 1 to n do
          Ir.Builder.bin b Ir.Insn.Mul t0 t0 (Ir.Insn.Imm 1)
        done)
  in
  checkb "chained muls" true
    (r.Sim.Timing.complete >= (n * cfg.Sim.Config.lat_int_mul))

let test_div_unpipelined () =
  (* dependent divides occupy a unit for the full latency; with two int
     units and a serial chain the cost is ~n * lat_div *)
  let n = 4 in
  let r =
    time (fun b ->
        Ir.Builder.li b t0 1000;
        for _ = 1 to n do
          Ir.Builder.bin b Ir.Insn.Div t0 t0 (Ir.Insn.Imm 2)
        done)
  in
  checkb "divides serialised" true
    (r.Sim.Timing.complete >= (n * cfg.Sim.Config.lat_int_div))

let test_fp_pool_structural () =
  (* independent fp adds share a single fp unit: 1/cycle, not 2/cycle *)
  let n = 20 in
  let r =
    time (fun b ->
        for i = 0 to n - 1 do
          Ir.Builder.lf b (Ir.Reg.tmp (16 + (i mod 8))) 1.0
        done;
        for i = 0 to n - 1 do
          Ir.Builder.fbin b Ir.Insn.Fadd
            (Ir.Reg.tmp (24 + (i mod 8)))
            (Ir.Reg.tmp (16 + (i mod 8)))
            (Ir.Reg.tmp (16 + (i mod 8)))
        done)
  in
  (* the 20 fp adds alone need >= 20 issue cycles on one unit *)
  checkb "fp structural hazard" true (r.Sim.Timing.complete >= n)

(* --- window limits -------------------------------------------------------- *)

let test_rob_limits_overlap () =
  (* two long loads separated by filler: a large ROB overlaps their
     latencies, a tiny ROB forces the second to wait for the first's
     commit *)
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0;
    for i = 0 to 19 do
      Ir.Builder.li b (Ir.Reg.tmp (2 + (i mod 8))) i
    done;
    Ir.Builder.load b (Ir.Reg.tmp 10) t0 64
  in
  let env =
    with_hooks (fun h -> { h with h_load_lat = (fun ~addr:_ -> 100) })
  in
  let small = { cfg with Sim.Config.rob_size = 4 } in
  let large = { cfg with Sim.Config.rob_size = 128; iq_size = 64 } in
  let r_small = time ~env ~cfg:small body in
  let r_large = time ~env ~cfg:large body in
  (* overlapped: ~1 load latency end-to-end; serialised: ~2 *)
  checkb "large ROB overlaps the loads" true
    (r_large.Sim.Timing.complete < 170);
  checkb "small ROB serialises them" true
    (r_small.Sim.Timing.complete >= 200)

let test_in_order_blocks_issue () =
  (* load A; dependent use of A; independent load B.  Out-of-order issues B
     under A's latency; in-order holds B behind the stalled use of A. *)
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0;
    Ir.Builder.addi b t1 t1 1;
    Ir.Builder.load b (Ir.Reg.tmp 2) t0 64
  in
  let env =
    with_hooks (fun h -> { h with h_load_lat = (fun ~addr:_ -> 50) })
  in
  let ooo = time ~env ~cfg body in
  let io = time ~env ~cfg:cfg_io body in
  checkb "in-order slower" true
    (io.Sim.Timing.complete > ooo.Sim.Timing.complete + 30)

(* --- branches ------------------------------------------------------------- *)

let branchy body_blocks =
  fun b ->
    Ir.Builder.li b t0 1;
    for _ = 1 to body_blocks do
      Ir.Builder.if_ b t0
        (fun b -> Ir.Builder.nop b)
        (fun b -> Ir.Builder.nop b)
    done

(* timing a multi-block instance requires a partition with multi-block
   tasks: use the full pipeline on a control-flow plan instead *)
let cycles_with_pred ~correct =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b -> branchy 12 b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  let o = Interp.Run.execute prog in
  let trace = o.Interp.Run.trace in
  let parts =
    Array.map
      (fun f ->
        Core.Select.control_flow Core.Heuristics.default f
          ~included_calls:(Array.make (Ir.Func.num_blocks f) false))
      trace.Interp.Trace.funcs
  in
  let instances = Sim.Dyntask.chop trace ~parts in
  let layout = Sim.Layout.create trace.Interp.Trace.funcs in
  let env =
    with_hooks (fun h ->
        { h with h_cond_pred = (fun ~pc:_ ~taken:_ -> correct) })
  in
  let r = exec ~env (trace, layout, instances.(0)) in
  (r.Sim.Timing.complete, r.Sim.Timing.intra_mispredicts, r.Sim.Timing.intra_branches)

let test_branch_redirect_costs () =
  let good, m_good, b_good = cycles_with_pred ~correct:true in
  let bad, m_bad, b_bad = cycles_with_pred ~correct:false in
  checki "no mispredicts when correct" 0 m_good;
  checkb "branches seen" true (b_good > 0 && b_bad = b_good);
  checki "every branch mispredicted" b_bad m_bad;
  checkb "redirects cost cycles" true (bad > good)

let test_event_entries_monotonic () =
  let r =
    time (fun b ->
        for i = 0 to 9 do
          Ir.Builder.li b (Ir.Reg.tmp (i mod 8)) i
        done)
  in
  let ok = ref true in
  for i = 1 to r.Sim.Timing.n_events_inst - 1 do
    if r.Sim.Timing.event_entry.(i) < r.Sim.Timing.event_entry.(i - 1) then
      ok := false
  done;
  checkb "entries monotone" true !ok;
  checkb "resolve >= start" true (r.Sim.Timing.resolve >= 0)

(* --- memory --------------------------------------------------------------- *)

let test_sync_delays_load () =
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0;
    Ir.Builder.addi b Ir.Reg.rv t1 0
  in
  let free = time body in
  let env =
    with_hooks (fun h ->
        { h with h_mem_dep = (fun ~addr:_ ~load_site:_ -> (200 lsl 1) lor 1) })
  in
  let synced = time ~env body in
  checki "one sync wait" 1 synced.Sim.Timing.sync_waits;
  checkb "sync delays completion" true
    (synced.Sim.Timing.complete >= 200
    && free.Sim.Timing.complete < 100)

let test_unsynced_dep_reports_load () =
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0
  in
  let env =
    with_hooks (fun h ->
        { h with h_mem_dep = (fun ~addr:_ ~load_site:_ -> 200 lsl 1) })
  in
  let r = time ~env body in
  checki "no sync wait" 0 r.Sim.Timing.sync_waits;
  (* the speculative load executed early and is reported for violation
     checking *)
  (match load_times r with
  | [ t ] -> checkb "load early" true (t < 100)
  | _ -> Alcotest.fail "expected one load")

let test_local_forwarding_hides_load () =
  (* store then load of the same address: the load is locally forwarded and
     never reported to the violation checker *)
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.li b t1 7;
    Ir.Builder.store b t1 t0 0;
    Ir.Builder.load b Ir.Reg.rv t0 0
  in
  let r = time body in
  checki "no externally-visible load" 0 r.Sim.Timing.n_loads;
  checki "one store" 1 r.Sim.Timing.n_stores

let test_mem_hold () =
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0
  in
  let held = { default_env with mem_hold = 150 } in
  let r = time ~env:held body in
  (match load_times r with
  | [ t ] -> checkb "load held" true (t >= 150)
  | _ -> Alcotest.fail "expected one load")

let test_bank_slot_delays_access () =
  let body b =
    Ir.Builder.li b t0 4096;
    Ir.Builder.load b t1 t0 0
  in
  let env =
    with_hooks (fun h -> { h with h_mem_slot = (fun ~addr:_ ~at -> at + 42) })
  in
  let r = time ~env body in
  (match load_times r with
  | [ t ] -> checkb "bank conflict delays" true (t >= 42)
  | _ -> Alcotest.fail "expected one load")

(* --- inter-task operands --------------------------------------------------- *)

let test_reg_avail_delays_dependents () =
  let body b =
    (* t0 arrives from an older task; t1 is local *)
    Ir.Builder.addi b t1 t0 1;
    Ir.Builder.li b (Ir.Reg.tmp 2) 5
  in
  let late =
    with_hooks (fun h ->
        { h with h_reg_avail = (fun r -> if r = t0 then 300 else 0) })
  in
  let r = time ~env:late body in
  checkb "dependent waits" true (r.Sim.Timing.complete >= 300);
  checkb "wait attributed to communication" true (r.Sim.Timing.inter_wait > 0);
  let free = time body in
  checkb "without wait it is fast" true (free.Sim.Timing.complete < 50)

let test_start_fetch_offsets_everything () =
  let body b = Ir.Builder.li b t0 1 in
  let r0 = time body in
  let r100 =
    time ~env:{ default_env with start_fetch = 100 } body
  in
  checki "pure offset" (r0.Sim.Timing.complete + 100) r100.Sim.Timing.complete

let test_ifetch_extra_charged () =
  let body b =
    for i = 0 to 9 do
      Ir.Builder.li b (Ir.Reg.tmp (i mod 8)) i
    done
  in
  let slow =
    with_hooks (fun h -> { h with h_ifetch_extra = (fun ~fid:_ ~blk:_ -> 30) })
  in
  let fast = time body in
  let miss = time ~env:slow body in
  checkb "icache miss visible" true
    (miss.Sim.Timing.complete >= fast.Sim.Timing.complete + 30)

let () =
  Alcotest.run "timing"
    [
      ( "compute",
        [
          Alcotest.test_case "independent throughput" `Quick
            test_independent_throughput;
          Alcotest.test_case "dependent chain" `Quick
            test_dependent_chain_latency;
          Alcotest.test_case "mul latency" `Quick test_mul_latency;
          Alcotest.test_case "div unpipelined" `Quick test_div_unpipelined;
          Alcotest.test_case "fp structural" `Quick test_fp_pool_structural;
        ] );
      ( "window",
        [
          Alcotest.test_case "rob limit" `Quick test_rob_limits_overlap;
          Alcotest.test_case "in-order issue" `Quick test_in_order_blocks_issue;
        ] );
      ( "branches",
        [
          Alcotest.test_case "redirect cost" `Quick test_branch_redirect_costs;
          Alcotest.test_case "event entries" `Quick test_event_entries_monotonic;
        ] );
      ( "memory",
        [
          Alcotest.test_case "sync delays load" `Quick test_sync_delays_load;
          Alcotest.test_case "speculative load reported" `Quick
            test_unsynced_dep_reports_load;
          Alcotest.test_case "local forwarding" `Quick
            test_local_forwarding_hides_load;
          Alcotest.test_case "mem hold" `Quick test_mem_hold;
          Alcotest.test_case "bank slot" `Quick test_bank_slot_delays_access;
        ] );
      ( "inter-task",
        [
          Alcotest.test_case "operand arrival" `Quick
            test_reg_avail_delays_dependents;
          Alcotest.test_case "start offset" `Quick
            test_start_fetch_offsets_everything;
          Alcotest.test_case "ifetch extra" `Quick test_ifetch_extra_charged;
        ] );
    ]
