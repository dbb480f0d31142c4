(* Tests for the interpreter: operator semantics, control flow, calls and
   recursion, memory, error handling, trace and profile consistency. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let run prog = Interp.Run.execute prog
let result prog = Ir.Value.to_int (run prog).Interp.Run.result

(* small harness: main computing rv from a body *)
let main_prog body =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      body pb b;
      Ir.Builder.ret b);
  Ir.Builder.finish pb ~main:"main"

let t0 = Ir.Reg.tmp 0
let t1 = Ir.Reg.tmp 1

(* --- arithmetic ---------------------------------------------------------- *)

let binop_cases =
  [
    (Ir.Insn.Add, 7, 3, 10);
    (Ir.Insn.Sub, 7, 3, 4);
    (Ir.Insn.Mul, 7, 3, 21);
    (Ir.Insn.Div, 7, 3, 2);
    (Ir.Insn.Rem, 7, 3, 1);
    (Ir.Insn.And, 6, 3, 2);
    (Ir.Insn.Or, 6, 3, 7);
    (Ir.Insn.Xor, 6, 3, 5);
    (Ir.Insn.Shl, 3, 2, 12);
    (Ir.Insn.Shr, 12, 2, 3);
    (* regression: odd shift amounts must not be rounded down *)
    (Ir.Insn.Shl, 1, 1, 2);
    (Ir.Insn.Shl, 1, 3, 8);
    (Ir.Insn.Shr, 8, 3, 1);
    (Ir.Insn.Shr, -8, 1, -4);
    (* out-of-range shift counts are clamped, not undefined *)
    (Ir.Insn.Shl, 1, 100, 1 lsl 62);
    (Ir.Insn.Shr, -1, 100, -1);
    (Ir.Insn.Lt, 3, 7, 1);
    (Ir.Insn.Le, 3, 3, 1);
    (Ir.Insn.Eq, 3, 4, 0);
    (Ir.Insn.Ne, 3, 4, 1);
    (Ir.Insn.Gt, 3, 7, 0);
    (Ir.Insn.Ge, 7, 7, 1);
  ]

let test_binops () =
  List.iter
    (fun (op, x, y, expected) ->
      let prog =
        main_prog (fun _ b ->
            Ir.Builder.li b t0 x;
            Ir.Builder.li b t1 y;
            Ir.Builder.bin b op Ir.Reg.rv t0 (Ir.Insn.Reg t1))
      in
      checki (Ir.Insn.to_string (Ir.Insn.Bin (op, 0, 0, Ir.Insn.Imm 0)))
        expected (result prog))
    binop_cases

let test_fp_ops () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.lf b t0 2.0;
        Ir.Builder.lf b t1 8.0;
        Ir.Builder.fbin b Ir.Insn.Fdiv t1 t1 t0;   (* 4.0 *)
        Ir.Builder.funop b Ir.Insn.Fsqrt t1 t1;    (* 2.0 *)
        Ir.Builder.fbin b Ir.Insn.Fmul t1 t1 t0;   (* 4.0 *)
        Ir.Builder.fcmp b Ir.Insn.Feq t0 t1 t1;    (* 1 *)
        Ir.Builder.funop b Ir.Insn.Ftoi Ir.Reg.rv t1;
        Ir.Builder.bin b Ir.Insn.Add Ir.Reg.rv Ir.Reg.rv (Ir.Insn.Reg t0))
  in
  checki "fp chain" 5 (result prog)

let test_cmov () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.li b t0 10;
        Ir.Builder.li b t1 1;
        Ir.Builder.emit b (Ir.Insn.Cmov (Ir.Reg.rv, t1, t0));   (* taken *)
        Ir.Builder.li b t1 0;
        Ir.Builder.li b t0 99;
        Ir.Builder.emit b (Ir.Insn.Cmov (Ir.Reg.rv, t1, t0)))  (* not taken *)
  in
  checki "cmov keeps/updates" 10 (result prog)

let test_div_by_zero () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.li b t0 1;
        Ir.Builder.li b t1 0;
        Ir.Builder.bin b Ir.Insn.Div Ir.Reg.rv t0 (Ir.Insn.Reg t1))
  in
  checkb "raises" true
    (try
       ignore (run prog);
       false
     with Interp.Run.Runtime_error _ -> true)

let test_r0_hardwired () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.li b Ir.Reg.zero 99;
        Ir.Builder.mov b Ir.Reg.rv Ir.Reg.zero)
  in
  checki "r0 stays zero" 0 (result prog)

(* --- memory -------------------------------------------------------------- *)

let test_memory_roundtrip () =
  let prog =
    main_prog (fun pb b ->
        let a = Ir.Builder.alloc pb 4 in
        Ir.Builder.li b t0 a;
        Ir.Builder.li b t1 77;
        Ir.Builder.store b t1 t0 2;
        Ir.Builder.load b Ir.Reg.rv t0 2)
  in
  checki "store/load" 77 (result prog)

let test_memory_default_zero () =
  let prog =
    main_prog (fun pb b ->
        let a = Ir.Builder.alloc pb 4 in
        Ir.Builder.li b t0 a;
        Ir.Builder.load b Ir.Reg.rv t0 1)
  in
  checki "uninitialised reads 0" 0 (result prog)

let test_mem_init () =
  let prog =
    main_prog (fun pb b ->
        let a = Ir.Builder.data_ints pb [ 5; 6; 7 ] in
        Ir.Builder.li b t0 a;
        Ir.Builder.load b Ir.Reg.rv t0 2)
  in
  checki "data segment visible" 7 (result prog)

(* --- control flow -------------------------------------------------------- *)

let test_switch_semantics () =
  let case_for v =
    let prog =
      main_prog (fun _ b ->
          Ir.Builder.li b t0 v;
          Ir.Builder.switch_ b t0
            [|
              (fun b -> Ir.Builder.li b Ir.Reg.rv 100);
              (fun b -> Ir.Builder.li b Ir.Reg.rv 200);
            |]
            ~default:(fun b -> Ir.Builder.li b Ir.Reg.rv 999))
    in
    result prog
  in
  checki "case 0" 100 (case_for 0);
  checki "case 1" 200 (case_for 1);
  checki "out of range" 999 (case_for 5);
  checki "negative" 999 (case_for (-1))

let test_do_while () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.li b t0 0;
        Ir.Builder.do_while b (fun b ->
            Ir.Builder.addi b t0 t0 1;
            Ir.Builder.bin b Ir.Insn.Lt t1 t0 (Ir.Insn.Imm 5);
            t1);
        Ir.Builder.mov b Ir.Reg.rv t0)
  in
  checki "bottom-test loop" 5 (result prog)

let test_recursion_fib () =
  checki "fib 15" (Gen.fib_spec 15)
    (Ir.Value.to_int (run (Gen.fib_program 15)).Interp.Run.result)

let test_counted_loop () =
  List.iter
    (fun n ->
      checki
        (Printf.sprintf "square sum %d" n)
        (Gen.square_sum_spec n)
        (result (Gen.square_sum_program n)))
    [ 0; 1; 2; 7; 31 ]

let test_max_steps () =
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.while_ b
          ~cond:(fun b ->
            Ir.Builder.li b t0 1;
            t0)
          (fun b -> Ir.Builder.nop b))
  in
  checkb "infinite loop detected" true
    (try
       ignore (Interp.Run.execute ~max_steps:10_000 prog);
       false
     with Interp.Run.Runtime_error _ -> true)

(* --- trace and profile --------------------------------------------------- *)

let test_trace_follows_cfg () =
  let prog = Gen.square_sum_program 9 in
  let o = run prog in
  let tr = o.Interp.Run.trace in
  let n = Interp.Trace.num_events tr in
  let ok = ref true in
  for j = 0 to n - 2 do
    let b = Interp.Trace.block_at tr j in
    match b.Ir.Block.term with
    | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ ->
      if
        Interp.Trace.get_fid tr (j + 1) <> Interp.Trace.get_fid tr j
        || not
             (List.mem (Interp.Trace.get_blk tr (j + 1)) (Ir.Block.successors b))
      then ok := false
    | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> ()
  done;
  checkb "every intra-function transition is a CFG edge" true !ok

let test_trace_counts () =
  let prog = Gen.square_sum_program 9 in
  let o = run prog in
  let tr = o.Interp.Run.trace in
  let total = ref 0 in
  for j = 0 to Interp.Trace.num_events tr - 1 do
    total := !total + Interp.Trace.size_at tr j
  done;
  checki "dyn_insns = sum of event sizes" tr.Interp.Trace.dyn_insns !total;
  checki "steps = dyn_insns" o.Interp.Run.steps tr.Interp.Trace.dyn_insns

let test_trace_addr_counts () =
  let prog = Gen.fib_program 10 in
  let o = run prog in
  let tr = o.Interp.Run.trace in
  let ok = ref true in
  for j = 0 to Interp.Trace.num_events tr - 1 do
    let b = Interp.Trace.block_at tr j in
    let mems =
      Array.fold_left
        (fun acc i -> if Ir.Insn.is_mem i then acc + 1 else acc)
        0 b.Ir.Block.insns
    in
    if Interp.Trace.addr_count tr j <> mems then ok := false
  done;
  checkb "each event has one addr per memory insn" true !ok

let test_profile_invocations () =
  let o = run (Gen.fib_program 10) in
  let tr = o.Interp.Run.trace in
  let fid = Interp.Trace.fid tr "fib" in
  (* number of calls of fib(10) = 2*fib(11)-1 calls total
     (each internal node has 2 children); just check > 1 and avg size finite *)
  let profile = o.Interp.Run.profile in
  checkb "fib invoked many times" true
    (Interp.Profile.avg_invocation_size profile fid > 0.0
    && Interp.Profile.avg_invocation_size profile fid < infinity)

let test_profile_dep_freq () =
  let prog = Gen.square_sum_program 5 in
  let o = run prog in
  let tr = o.Interp.Run.trace in
  let profile = o.Interp.Run.profile in
  let fid = Interp.Trace.fid tr "main" in
  let f = tr.Interp.Trace.funcs.(fid) in
  (* there must be at least one cross-block dependence with positive count,
     and every counted pair must be a static def-use block edge *)
  let static = Analysis.Dataflow.block_dep_edges (Analysis.Dataflow.def_use f) in
  let any = ref false in
  List.iter
    (fun (u, v, r) ->
      if Interp.Profile.dep_count profile fid u v r > 0 then any := true)
    static;
  checkb "some dependence profiled" true !any

let prop_interp_deterministic =
  QCheck.Test.make ~name:"execution is deterministic" ~count:30
    Gen.arbitrary_program (fun prog ->
      let a = run prog and b = run prog in
      Ir.Value.equal a.Interp.Run.result b.Interp.Run.result
      && a.Interp.Run.steps = b.Interp.Run.steps)

let prop_trace_tiles =
  QCheck.Test.make ~name:"trace sizes are consistent" ~count:30
    Gen.arbitrary_program (fun prog ->
      let o = run prog in
      let tr = o.Interp.Run.trace in
      let total = ref 0 in
      for j = 0 to Interp.Trace.num_events tr - 1 do
        total := !total + Interp.Trace.size_at tr j
      done;
      !total = o.Interp.Run.steps)

(* The packed representation against the boxed stream the interpreter used
   to materialise: the [on_event] observer emits each (fid, blk, addrs)
   event as it happens, and the packed trace must decode to exactly that
   sequence. *)
let prop_packed_decodes_legacy =
  QCheck.Test.make ~name:"packed trace decodes to the legacy event stream"
    ~count:30 Gen.arbitrary_program (fun prog ->
      let legacy = ref [] in
      let o =
        Interp.Run.execute
          ~on_event:(fun ~fid ~blk ~addrs ->
            legacy := (fid, blk, addrs) :: !legacy)
          prog
      in
      let tr = o.Interp.Run.trace in
      let legacy = Array.of_list (List.rev !legacy) in
      Interp.Trace.num_events tr = Array.length legacy
      &&
      let ok = ref true in
      Array.iteri
        (fun j (fid, blk, addrs) ->
          if
            Interp.Trace.get_fid tr j <> fid
            || Interp.Trace.get_blk tr j <> blk
            || Interp.Trace.event_addrs tr j <> addrs
          then ok := false)
        legacy;
      !ok)

let prop_trace_check =
  QCheck.Test.make ~name:"packed traces pass the decode audit" ~count:30
    Gen.arbitrary_program (fun prog ->
      Interp.Trace.check (run prog).Interp.Run.trace = Ok ())

(* Addresses above 2^31 do not fit the two-per-word pool packing; the pool
   must transparently promote to one word per address, mid-stream, without
   corrupting the addresses recorded before the promotion. *)
let test_trace_wide_addresses () =
  let huge = 1 lsl 40 in
  let prog =
    main_prog (fun _ b ->
        Ir.Builder.li b t0 8;
        Ir.Builder.li b t1 55;
        Ir.Builder.store b t1 t0 0;
        Ir.Builder.li b t0 huge;
        Ir.Builder.li b t1 123;
        Ir.Builder.store b t1 t0 3;
        Ir.Builder.load b Ir.Reg.rv t0 3)
  in
  let o = run prog in
  let tr = o.Interp.Run.trace in
  checki "huge-address store/load round-trips" 123
    (Ir.Value.to_int o.Interp.Run.result);
  checkb "pool promoted to wide" true tr.Interp.Trace.awide;
  checki "pre-promotion address survives" 8 (Interp.Trace.get_addr tr 0 0);
  checki "wide address decodes exactly" (huge + 3)
    (Interp.Trace.get_addr tr 0 1);
  checkb "audit passes on a wide trace" true (Interp.Trace.check tr = Ok ())

let test_trace_narrow_stays_packed () =
  let tr = (run (Gen.fib_program 10)).Interp.Run.trace in
  checkb "workload-range addresses keep the packed pool" false
    tr.Interp.Trace.awide;
  checkb "audit passes" true (Interp.Trace.check tr = Ok ());
  let s = Interp.Trace.stats tr in
  checkb "packed resident beats boxed by 4x" true
    (s.Interp.Trace.boxed_words >= 4 * s.Interp.Trace.heap_words)

let () =
  Alcotest.run "interp"
    [
      ( "semantics",
        [
          Alcotest.test_case "binops" `Quick test_binops;
          Alcotest.test_case "fp ops" `Quick test_fp_ops;
          Alcotest.test_case "cmov" `Quick test_cmov;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "r0 hardwired" `Quick test_r0_hardwired;
        ] );
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "default zero" `Quick test_memory_default_zero;
          Alcotest.test_case "data segment" `Quick test_mem_init;
        ] );
      ( "control",
        [
          Alcotest.test_case "switch" `Quick test_switch_semantics;
          Alcotest.test_case "do-while" `Quick test_do_while;
          Alcotest.test_case "recursion" `Quick test_recursion_fib;
          Alcotest.test_case "counted loops" `Quick test_counted_loop;
          Alcotest.test_case "step limit" `Quick test_max_steps;
        ] );
      ( "trace",
        [
          Alcotest.test_case "follows CFG" `Quick test_trace_follows_cfg;
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "addresses" `Quick test_trace_addr_counts;
          Alcotest.test_case "wide addresses" `Quick test_trace_wide_addresses;
          Alcotest.test_case "packed pool" `Quick test_trace_narrow_stays_packed;
        ] );
      ( "profile",
        [
          Alcotest.test_case "invocations" `Quick test_profile_invocations;
          Alcotest.test_case "dependences" `Quick test_profile_dep_freq;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_interp_deterministic;
          QCheck_alcotest.to_alcotest prop_trace_tiles;
          QCheck_alcotest.to_alcotest prop_packed_decodes_legacy;
          QCheck_alcotest.to_alcotest prop_trace_check;
        ] );
    ]
