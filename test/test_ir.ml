(* Unit and property tests for the IR substrate: registers, values,
   instructions, blocks, functions, programs, and the structured builder. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Minor words allocated while [f ()] runs; each reading boxes one float,
   so a test compares against [words ignore]. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* --- registers ----------------------------------------------------------- *)

let test_reg_roles () =
  checki "zero" 0 Ir.Reg.zero;
  checkb "zero valid" true (Ir.Reg.is_valid Ir.Reg.zero);
  checkb "last valid" true (Ir.Reg.is_valid (Ir.Reg.count - 1));
  checkb "count invalid" false (Ir.Reg.is_valid Ir.Reg.count);
  checkb "negative invalid" false (Ir.Reg.is_valid (-1));
  checkb "args distinct" true (Ir.Reg.arg 0 <> Ir.Reg.arg 1);
  checkb "tmp after args" true (Ir.Reg.tmp 0 > Ir.Reg.arg (Ir.Reg.max_args - 1))

let test_reg_bounds () =
  Alcotest.check_raises "arg -1" (Invalid_argument "Reg.arg") (fun () ->
      ignore (Ir.Reg.arg (-1)));
  Alcotest.check_raises "arg max" (Invalid_argument "Reg.arg") (fun () ->
      ignore (Ir.Reg.arg Ir.Reg.max_args));
  Alcotest.check_raises "tmp too big" (Invalid_argument "Reg.tmp") (fun () ->
      ignore (Ir.Reg.tmp 1000))

let test_reg_names () =
  check Alcotest.string "r0" "r0" (Ir.Reg.name Ir.Reg.zero);
  check Alcotest.string "sp" "sp" (Ir.Reg.name Ir.Reg.sp);
  check Alcotest.string "rv" "rv" (Ir.Reg.name Ir.Reg.rv);
  check Alcotest.string "a0" "a0" (Ir.Reg.name (Ir.Reg.arg 0));
  check Alcotest.string "t0" "t0" (Ir.Reg.name (Ir.Reg.tmp 0))

(* --- values -------------------------------------------------------------- *)

let test_value_truth () =
  checkb "int 0 false" false (Ir.Value.is_true (Ir.Value.Int 0));
  checkb "int 5 true" true (Ir.Value.is_true (Ir.Value.Int 5));
  checkb "int -1 true" true (Ir.Value.is_true (Ir.Value.Int (-1)));
  checkb "flt 0 false" false (Ir.Value.is_true (Ir.Value.Flt 0.0));
  checkb "flt 0.5 true" true (Ir.Value.is_true (Ir.Value.Flt 0.5))

let test_value_convert () =
  checki "to_int int" 42 (Ir.Value.to_int (Ir.Value.Int 42));
  checki "to_int flt trunc" 3 (Ir.Value.to_int (Ir.Value.Flt 3.9));
  check (Alcotest.float 1e-9) "to_float int" 7.0
    (Ir.Value.to_float (Ir.Value.Int 7));
  checkb "int/flt not equal" false
    (Ir.Value.equal (Ir.Value.Int 1) (Ir.Value.Flt 1.0));
  checkb "flt equal" true (Ir.Value.equal (Ir.Value.Flt 2.5) (Ir.Value.Flt 2.5))

(* --- instructions -------------------------------------------------------- *)

let test_insn_defs_uses () =
  let open Ir.Insn in
  checkb "li defs" true (defs (Li (5, 1)) = [ 5 ]);
  checkb "li uses" true (uses (Li (5, 1)) = []);
  checkb "store defs" true (defs (Store (1, 2, 0)) = []);
  checkb "store uses" true (uses (Store (1, 2, 0)) = [ 1; 2 ]);
  checkb "store uses same reg dedup" true (uses (Store (2, 2, 0)) = [ 2 ]);
  checkb "bin reg uses" true (uses (Bin (Add, 1, 2, Reg 3)) = [ 2; 3 ]);
  checkb "bin imm uses" true (uses (Bin (Add, 1, 2, Imm 9)) = [ 2 ]);
  checkb "load" true
    (defs (Load (4, 5, 8)) = [ 4 ] && uses (Load (4, 5, 8)) = [ 5 ]);
  checkb "fbin" true (uses (Fbin (Fadd, 1, 2, 3)) = [ 2; 3 ]);
  checkb "nop" true (defs Nop = [] && uses Nop = [])

(* Every instruction form over registers drawn from a small set, so that
   repeated operands (a Bin reading one register twice, a Cmov reading its
   destination) occur in every combination. *)
let small_regs = [ 0; 1; 5; 63 ]

let every_insn =
  let open Ir.Insn in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun c ->
              [
                Nop; Li (a, 3); Lf (a, 0.5); Mov (a, b);
                Bin (Add, a, b, Reg c); Bin (Shl, a, b, Imm 2);
                Fbin (Fmul, a, b, c); Fcmp (Flt, a, b, c); Fun (Fneg, a, b);
                Load (a, b, 8); Store (a, b, -4); Cmov (a, b, c);
              ])
            small_regs)
        small_regs)
    small_regs

(* the registers an instruction reads, in operand order, as the model *)
let raw_reads =
  let open Ir.Insn in
  function
  | Nop | Li (_, _) | Lf (_, _) -> []
  | Mov (_, s) | Fun (_, _, s) | Bin (_, _, s, Imm _) | Load (_, s, _) -> [ s ]
  | Bin (_, _, s1, Reg s2) | Fbin (_, _, s1, s2) | Fcmp (_, _, s1, s2) ->
    [ s1; s2 ]
  | Store (src, base, _) -> [ src; base ]
  | Cmov (d, cond, src) -> [ d; cond; src ]

let test_insn_iter_uses () =
  List.iter
    (fun insn ->
      let model = List.sort_uniq compare (raw_reads insn) in
      let seen = ref [] in
      Ir.Insn.iter_uses (fun r -> seen := r :: !seen) insn;
      let what = Ir.Insn.to_string insn in
      check Alcotest.(list int) (what ^ " iter_uses") model (List.rev !seen);
      check Alcotest.(list int) (what ^ " uses") model (Ir.Insn.uses insn))
    every_insn

let test_insn_iter_uses_alloc () =
  let insns = Array.of_list every_insn in
  let sum = ref 0 in
  let visit r = sum := !sum + r in
  let walk () =
    for i = 0 to Array.length insns - 1 do
      Ir.Insn.iter_uses visit insns.(i)
    done
  in
  walk ();
  (* both readings box one float *)
  check (Alcotest.float 0.0) "words beyond an empty reading" 0.0
    (words walk -. words ignore);
  checkb "visited" true (!sum > 0)

let test_insn_fu_class () =
  let open Ir.Insn in
  checkb "add int" true (fu_class (Bin (Add, 1, 1, Imm 1)) = Fu_int);
  checkb "mul" true (fu_class (Bin (Mul, 1, 1, Imm 1)) = Fu_int_mul);
  checkb "div" true (fu_class (Bin (Div, 1, 1, Imm 1)) = Fu_int_div);
  checkb "rem" true (fu_class (Bin (Rem, 1, 1, Imm 1)) = Fu_int_div);
  checkb "fadd" true (fu_class (Fbin (Fadd, 1, 1, 1)) = Fu_fp);
  checkb "fdiv" true (fu_class (Fbin (Fdiv, 1, 1, 1)) = Fu_fp_div);
  checkb "fsqrt" true (fu_class (Fun (Fsqrt, 1, 1)) = Fu_fp_div);
  checkb "load" true (fu_class (Load (1, 1, 0)) = Fu_load);
  checkb "store" true (fu_class (Store (1, 1, 0)) = Fu_store)

let test_insn_pp () =
  check Alcotest.string "pp load" "ld t0, 4(sp)"
    (Ir.Insn.to_string (Ir.Insn.Load (Ir.Reg.tmp 0, Ir.Reg.sp, 4)));
  check Alcotest.string "pp add" "add rv, a0, #3"
    (Ir.Insn.to_string
       (Ir.Insn.Bin (Ir.Insn.Add, Ir.Reg.rv, Ir.Reg.arg 0, Ir.Insn.Imm 3)))

(* --- blocks -------------------------------------------------------------- *)

let test_block_successors () =
  let open Ir.Block in
  checkb "jump" true
    (successors { label = 0; insns = [||]; term = Jump 3 } = [ 3 ]);
  checkb "br two" true
    (successors { label = 0; insns = [||]; term = Br (1, 2, 5) } = [ 2; 5 ]);
  checkb "br same" true
    (successors { label = 0; insns = [||]; term = Br (1, 2, 2) } = [ 2 ]);
  checkb "switch dedups" true
    (successors { label = 0; insns = [||]; term = Switch (1, [| 2; 3; 2 |], 3) }
    = [ 2; 3 ]);
  checkb "call goes to cont" true
    (successors { label = 0; insns = [||]; term = Call ("f", 7) } = [ 7 ]);
  checkb "ret none" true
    (successors { label = 0; insns = [||]; term = Ret } = [])

let test_block_targets () =
  let open Ir.Block in
  let num_targets term =
    let k = ref 0 in
    iter_succs (fun _ -> incr k) { label = 0; insns = [||]; term };
    !k
  in
  checki "jump" 1 (num_targets (Jump 0));
  checki "br" 2 (num_targets (Br (1, 0, 1)));
  checki "br same" 1 (num_targets (Br (1, 0, 0)));
  checki "switch" 3 (num_targets (Switch (1, [| 0; 1 |], 2)));
  checki "switch repeats" 3 (num_targets (Switch (1, [| 2; 0; 2; 1 |], 0)));
  checki "ret" 0 (num_targets Ret)

(* Ir.Block.iter_succs (with successors, its list view) and Ir.Func's
   tables against the list definitions they replaced (Cfg_model), on
   [f]; the first difference is returned as a message. *)
let cfg_mismatch (f : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  let row (t : Ir.Func.table) l =
    List.init (t.Ir.Func.first.(l + 1) - t.Ir.Func.first.(l)) (fun k ->
        t.Ir.Func.adj.(t.Ir.Func.first.(l) + k))
  in
  let preds = Ir.Func.pred_table f and succs = Ir.Func.succ_table f in
  let model_preds = Cfg_model.predecessors f
  and pred_lists = Ir.Func.predecessors f in
  let show l = String.concat "," (List.map string_of_int l) in
  let differ what l got want =
    if got = want then None
    else
      Some
        (Printf.sprintf "L%d %s: [%s], the model [%s]" l what (show got)
           (show want))
  in
  List.find_map
    (fun l ->
      let b = Ir.Func.block f l in
      let want = Cfg_model.successors b in
      let seen = ref [] in
      Ir.Block.iter_succs (fun s -> seen := s :: !seen) b;
      List.find_map Fun.id
        [
          differ "iter_succs" l (List.rev !seen) want;
          differ "successors" l (Ir.Block.successors b) want;
          differ "succ_table" l (row succs l) want;
          differ "pred_table" l (row preds l) model_preds.(l);
          differ "predecessors" l pred_lists.(l) model_preds.(l);
        ])
    (List.init n Fun.id)

let test_cfg_model_corpus () =
  List.iter
    (fun (name, f) ->
      match cfg_mismatch f with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" name msg)
    (Lazy.force Cfg_model.corpus_funcs)

let prop_cfg_model_random =
  QCheck.Test.make ~name:"random CFGs match the list model" ~count:500
    Cfg_model.arbitrary_func (fun f ->
      match cfg_mismatch f with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_cfg_model_builder =
  QCheck.Test.make ~name:"builder functions match the list model" ~count:100
    Gen.arbitrary_program (fun prog ->
      Ir.Prog.Smap.for_all
        (fun name f ->
          match cfg_mismatch f with
          | None -> true
          | Some msg -> QCheck.Test.fail_reportf "%s: %s" name msg)
        prog.Ir.Prog.funcs)

let test_iter_succs_alloc () =
  let blocks =
    Array.concat
      (List.map
         (fun (f : Ir.Func.t) -> f.Ir.Func.blocks)
         (Cfg_model.shapes ()))
  in
  let sum = ref 0 in
  let visit l = sum := !sum + l in
  let walk () =
    for i = 0 to Array.length blocks - 1 do
      Ir.Block.iter_succs visit blocks.(i)
    done
  in
  walk ();
  (* both readings box one float *)
  check (Alcotest.float 0.0) "words beyond an empty reading" 0.0
    (words walk -. words ignore);
  checkb "visited" true (!sum > 0)

(* --- functions ----------------------------------------------------------- *)

let mk_diamond () =
  (* 0 -> (1 | 2) -> 3 *)
  {
    Ir.Func.name = "diamond";
    blocks =
      [|
        { Ir.Block.label = 0; insns = [||]; term = Ir.Block.Br (1, 1, 2) };
        { Ir.Block.label = 1; insns = [| Ir.Insn.Nop |]; term = Ir.Block.Jump 3 };
        { Ir.Block.label = 2; insns = [||]; term = Ir.Block.Jump 3 };
        { Ir.Block.label = 3; insns = [||]; term = Ir.Block.Ret };
      |];
  }

let test_func_preds () =
  let f = mk_diamond () in
  let preds = Ir.Func.predecessors f in
  checkb "entry no preds" true (preds.(0) = []);
  checkb "join preds" true (List.sort compare preds.(3) = [ 1; 2 ]);
  checkb "validate ok" true (Ir.Func.validate f = Ok ())

let test_func_static_size () =
  checki "diamond size" 5 (Ir.Func.static_size (mk_diamond ()))

let test_func_drop_unreachable () =
  let f =
    {
      Ir.Func.name = "u";
      blocks =
        [|
          { Ir.Block.label = 0; insns = [||]; term = Ir.Block.Jump 2 };
          { Ir.Block.label = 1; insns = [||]; term = Ir.Block.Ret };
          { Ir.Block.label = 2; insns = [||]; term = Ir.Block.Ret };
        |];
    }
  in
  let f' = Ir.Func.drop_unreachable f in
  checki "two blocks left" 2 (Ir.Func.num_blocks f');
  checkb "relabelled valid" true (Ir.Func.validate f' = Ok ());
  checkb "entry jumps to 1" true
    ((Ir.Func.block f' 0).Ir.Block.term = Ir.Block.Jump 1)

let test_func_validate_errors () =
  let bad_label =
    {
      Ir.Func.name = "bad";
      blocks = [| { Ir.Block.label = 1; insns = [||]; term = Ir.Block.Ret } |];
    }
  in
  checkb "bad label rejected" true
    (Result.is_error (Ir.Func.validate bad_label));
  let bad_target =
    {
      Ir.Func.name = "bad2";
      blocks = [| { Ir.Block.label = 0; insns = [||]; term = Ir.Block.Jump 9 } |];
    }
  in
  checkb "bad target rejected" true
    (Result.is_error (Ir.Func.validate bad_target))

(* --- programs & builder -------------------------------------------------- *)

let test_builder_structured () =
  let prog = Gen.square_sum_program 10 in
  checkb "valid" true (Ir.Prog.validate prog = Ok ());
  let f = Ir.Prog.find prog "main" in
  checkb "has loop" true (Ir.Func.num_blocks f >= 4)

let test_builder_duplicate_func () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "f" (fun b -> Ir.Builder.ret b);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.func: duplicate function f") (fun () ->
      Ir.Builder.func pb "f" (fun b -> Ir.Builder.ret b))

let test_builder_missing_callee () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.call b "ghost";
      Ir.Builder.ret b);
  checkb "finish rejects ghost callee" true
    (try
       ignore (Ir.Builder.finish pb ~main:"main");
       false
     with Invalid_argument _ -> true)

let test_builder_data () =
  let pb = Ir.Builder.program () in
  let a = Ir.Builder.data_ints pb [ 1; 2; 3 ] in
  let bdata = Ir.Builder.data_floats pb [ 0.5 ] in
  checkb "disjoint" true (bdata >= a + 3);
  Ir.Builder.func pb "main" (fun b -> Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  checki "mem_init cells" 4
    (List.fold_left
       (fun n (_, cells) -> n + Ir.Prog.length cells)
       0 prog.Ir.Prog.mem_init);
  checkb "mem_top past data" true (prog.Ir.Prog.mem_top >= bdata + 1)

(* The data segment's runs, as the builder and the parser both merge them:
   adjacent same-kind pieces join, a kind change starts a run, and a cell
   written inside an earlier run stays a later run the interpreter reads. *)
let expected_runs base =
  [
    (base, Ir.Prog.Ints [| 1; 2; 3 |]);
    (base + 3, Ir.Prog.Flts [| 0.5; 1.5 |]);
    (base + 1, Ir.Prog.Ints [| 9 |]);
  ]

let reads_cell prog addr =
  let p =
    Ir.Prog.map_funcs
      (fun f ->
        if f.Ir.Func.name <> prog.Ir.Prog.main then f
        else
          {
            f with
            Ir.Func.blocks =
              [|
                {
                  Ir.Block.label = 0;
                  insns = [| Ir.Insn.Load (Ir.Reg.rv, Ir.Reg.zero, addr) |];
                  term = Ir.Block.Ret;
                };
              |];
          })
      prog
  in
  (Interp.Run.execute p).Interp.Run.result

let test_builder_data_runs () =
  let pb = Ir.Builder.program () in
  let a = Ir.Builder.data_ints pb [ 1; 2 ] in
  ignore (Ir.Builder.data_ints pb [ 3 ]);
  ignore (Ir.Builder.data_floats pb [ 0.5; 1.5 ]);
  ignore (Ir.Builder.data_floats pb []);
  Ir.Builder.init_cell pb (a + 1) (Ir.Value.Int 9);
  Ir.Builder.func pb "main" (fun b -> Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  checkb "runs" true (prog.Ir.Prog.mem_init = expected_runs a);
  checkb "later run read" true (reads_cell prog (a + 1) = Ir.Value.Int 9);
  checkb "earlier run read" true (reads_cell prog (a + 2) = Ir.Value.Int 3);
  checkb "float run read" true (reads_cell prog (a + 4) = Ir.Value.Flt 1.5)

let test_parse_data_runs () =
  let text =
    "data 4096 int 1 2\ndata 4098 int 3\ndata 5000 int\ndata 4099 flt 0.5 1.5\n\
     data 4097 int 9\nfunc main {\nL0:\n  ret\n}\nmain main\n"
  in
  match Ir.Parse.program text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok prog ->
    checkb "runs" true (prog.Ir.Prog.mem_init = expected_runs 4096);
    checkb "later run read" true (reads_cell prog 4097 = Ir.Value.Int 9);
    Alcotest.(check string)
      "one line per run"
      "data 4096 int 1 2 3\ndata 4099 flt 0x1p-1 0x1.8p+0\ndata 4097 int 9\n"
      (String.concat ""
         (List.map
            (fun l -> l ^ "\n")
            (List.filter
               (fun l -> String.length l > 5 && String.sub l 0 5 = "data ")
               (String.split_on_char '\n' (Ir.Pp.program_text prog)))))

let test_builder_unreachable_pruned () =
  let pb = Ir.Builder.program () in
  Ir.Builder.func pb "main" (fun b ->
      Ir.Builder.ret b;
      (* emission after ret lands in an unreachable block *)
      Ir.Builder.li b (Ir.Reg.tmp 0) 1;
      Ir.Builder.ret b);
  let prog = Ir.Builder.finish pb ~main:"main" in
  checki "only entry block" 1 (Ir.Func.num_blocks (Ir.Prog.find prog "main"))

(* --- textual IR parser --------------------------------------------------- *)

let roundtrip prog =
  match Ir.Parse.program (Ir.Pp.program_text prog) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok prog' -> prog'

let test_parse_roundtrip_sample () =
  let prog = Gen.fib_program 10 in
  let prog' = roundtrip prog in
  let a = Interp.Run.execute prog and b = Interp.Run.execute prog' in
  checkb "same result" true
    (Ir.Value.equal a.Interp.Run.result b.Interp.Run.result);
  checki "same steps" a.Interp.Run.steps b.Interp.Run.steps

let test_parse_insn_forms () =
  let cases =
    [
      "li t0, 5"; "lf t1, 2.5"; "mov rv, a0"; "add t1, t0, #3";
      "add t1, t0, t2"; "slt r3, t0, #10"; "fadd t4, t5, t6";
      "feq t0, t4, t5"; "fsqrt t1, t2"; "ld t0, 4(sp)"; "st t0, -8(t1)";
      "cmov t0, t1, t2"; "nop";
    ]
  in
  List.iter
    (fun c ->
      match Ir.Parse.insn c with
      | Ok i ->
        (* printing parses back to the same instruction *)
        (match Ir.Parse.insn (Ir.Insn.to_string i) with
        | Ok i' -> checkb c true (i = i')
        | Error e -> Alcotest.failf "%s reparse: %s" c e)
      | Error e -> Alcotest.failf "%s: %s" c e)
    cases;
  (* every operator of each family parses under its mnemonic and prints
     back the same text *)
  List.iter
    (fun c ->
      match Ir.Parse.insn c with
      | Ok i -> check Alcotest.string c c (Ir.Insn.to_string i)
      | Error e -> Alcotest.failf "%s: %s" c e)
    (List.map
       (fun m -> m ^ " t1, t0, t2")
       [
         "add"; "sub"; "mul"; "div"; "rem"; "and"; "or"; "xor"; "shl"; "shr";
         "slt"; "sle"; "seq"; "sne"; "sgt"; "sge"; "fadd"; "fsub"; "fmul";
         "fdiv"; "fmin"; "fmax"; "flt"; "fle"; "feq"; "fne";
       ]
    @ List.map
        (fun m -> m ^ " t1, t2")
        [ "fneg"; "fabs"; "fsqrt"; "itof"; "ftoi" ]);
  (* the mnemonic lookups the parser makes per instruction allocate
     nothing; both readings box one float *)
  let lookups () =
    ignore (Sys.opaque_identity (Ir.Insn.binop_of_name "sge"));
    ignore (Sys.opaque_identity (Ir.Insn.fbinop_of_name "sge"));
    ignore (Sys.opaque_identity (Ir.Insn.fcmp_of_name "fne"));
    ignore (Sys.opaque_identity (Ir.Insn.funop_of_name "ftoi"))
  in
  lookups ();
  check (Alcotest.float 0.0) "lookups allocate nothing" 0.0
    (words lookups -. words ignore)

let test_parse_errors () =
  let bad =
    [
      "frobnicate t0, t1"; "li t0"; "add t99, t0, #1"; "ld t0, sp";
      "br t0, L1"; "li t0, abc"; "li t-4, 1";
    ]
  in
  List.iter
    (fun c ->
      checkb c true
        (match Ir.Parse.insn c with Error _ -> true | Ok _ -> false))
    bad;
  checkb "unterminated function" true
    (Result.is_error (Ir.Parse.program "func f {
L0:
  ret
"));
  checkb "missing terminator" true
    (Result.is_error (Ir.Parse.program "func f {
L0:
  nop
}
main f
"))

let test_parse_comments_and_data () =
  let text =
    "# a comment
data 4096 int 7 8
data 4200 flt 0.5
     func main {
L0:
  li t0, 4096
  ld rv, 1(t0)
  ret
}
main main
"
  in
  match Ir.Parse.program text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok prog ->
    let o = Interp.Run.execute prog in
    checki "datum read back" 8 (Ir.Value.to_int o.Interp.Run.result)

let prop_parse_roundtrip =
  QCheck.Test.make ~name:"textual IR round-trips" ~count:30
    Gen.arbitrary_program (fun prog ->
      match Ir.Parse.program (Ir.Pp.program_text prog) with
      | Error _ -> false
      | Ok prog' ->
        let a = Interp.Run.execute prog and b = Interp.Run.execute prog' in
        Ir.Value.equal a.Interp.Run.result b.Interp.Run.result
        && a.Interp.Run.steps = b.Interp.Run.steps)

(* The printer's oracle: one MD5 per program of [Ir.Pp.program_text], the
   data lines included, for every workload as built from both inputs and
   the 44 programs of the seed-42 fuzz corpus.  Made with the printer that
   walked a boxed cell list, before the data segment became typed runs,
   and never regenerated in a change to the printer or the data segment. *)
let test_program_text_golden () =
  let line name p =
    Printf.sprintf "%-22s %s\n" name
      (Digest.to_hex (Digest.string (Ir.Pp.program_text p)))
  in
  let got =
    String.concat ""
      (List.concat_map
         (fun (e : Workloads.Registry.entry) ->
           [ line e.name (e.build ()); line (e.name ^ "/alt") (e.build_alt ()) ])
         Workloads.Suite.all
      @ List.init 44 (fun index ->
            line (Printf.sprintf "fuzz-%02d" index)
              (Fuzz.program Fuzz.default_config ~index)))
  in
  Corpus.check_golden
    ~path:(Filename.concat "golden" "program_text_digests.txt")
    ~what:"the printed program text" ~pins:"each program's printed text" got

let test_dot_export () =
  let prog = Gen.square_sum_program 3 in
  let dot = Ir.Pp.dot_of_func (Ir.Prog.find prog "main") in
  checkb "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* Mutation fuzzing of the parser, seeded from the fuzz reproducers and
   su2cor's printed text (int and float data runs): a mutant deletes a
   character, inserts or replaces a token, or duplicates or drops a line.
   The parser must return on every one, and each program it accepts that
   lint's IR rules pass must survive the printer and parser unchanged, the
   fuzz stack's round-trip oracle. *)
let mutation_seeds =
  lazy
    (Array.of_list
       (Ir.Pp.program_text ((Workloads.Suite.find "su2cor").build ())
       :: List.map snd (Corpus.reproducer_texts ())))

let mutation_tokens =
  [|
    "t-1"; "a-1"; "L-1"; "t-4"; "t52"; "data "; "memtop "; "func "; "main ";
    "nan"; "inf"; "-0x1p-1074"; "0x1.fffffffffffffp+1023"; "4611686018427387903";
    "-4611686018427387904"; "int"; "flt"; "#"; "#-1"; ","; "("; ")"; ":";
    "{"; "}"; "L0"; "r0"; "-1"; "\n"; " ";
  |]

let mutate text =
  let open QCheck.Gen in
  let n = String.length text in
  let* op = int_bound 4 in
  let* pos = int_bound (max 0 (n - 1)) in
  let* tok = oneofa mutation_tokens in
  match op with
  | 0 when n > 0 ->
    return (String.sub text 0 pos ^ String.sub text (pos + 1) (n - pos - 1))
  | 0 | 1 -> return (String.sub text 0 pos ^ tok ^ String.sub text pos (n - pos))
  | 2 ->
    (* replace the token around [pos], up to the next separator *)
    let is_sep c = c = ' ' || c = ',' || c = '\n' in
    let stop = ref pos in
    while !stop < n && not (is_sep text.[!stop]) do incr stop done;
    let start = ref pos in
    while !start > 0 && not (is_sep text.[!start - 1]) do decr start done;
    return (String.sub text 0 !start ^ tok ^ String.sub text !stop (n - !stop))
  | _ ->
    let ls = String.split_on_char '\n' text in
    let* i = int_bound (List.length ls - 1) in
    return
      (String.concat "\n"
         (List.concat
            (List.mapi
               (fun j l -> if j <> i then [ l ] else if op = 3 then [ l; l ] else [])
               ls)))

let gen_mutant =
  let open QCheck.Gen in
  let* text st =
    let seeds = Lazy.force mutation_seeds in
    seeds.(Random.State.int st (Array.length seeds))
  in
  let* k = int_range 1 3 in
  let rec go k text = if k = 0 then return text else mutate text >>= go (k - 1) in
  go k text

let prop_parse_mutants =
  QCheck.Test.make ~name:"mutated texts parse or fail cleanly" ~count:2000
    (QCheck.make ~print:Fun.id gen_mutant) (fun text ->
      match Ir.Parse.program text with
      | Error _ -> true
      | Ok p ->
        Lint.Diag.errors (Lint.check_prog p) <> []
        || Lint.check_roundtrip p = [])

let prop_random_programs_valid =
  QCheck.Test.make ~name:"random builder programs validate" ~count:60
    Gen.arbitrary_program (fun prog -> Ir.Prog.validate prog = Ok ())

let prop_blocks_end_in_range =
  QCheck.Test.make ~name:"all successor labels in range" ~count:60
    Gen.arbitrary_program (fun prog ->
      List.for_all
        (fun name ->
          let f = Ir.Prog.find prog name in
          let n = Ir.Func.num_blocks f in
          Array.for_all
            (fun b ->
              List.for_all (fun s -> s >= 0 && s < n) (Ir.Block.successors b))
            f.Ir.Func.blocks)
        (Ir.Prog.func_names prog))

let () =
  Alcotest.run "ir"
    [
      ( "reg",
        [
          Alcotest.test_case "roles" `Quick test_reg_roles;
          Alcotest.test_case "bounds" `Quick test_reg_bounds;
          Alcotest.test_case "names" `Quick test_reg_names;
        ] );
      ( "value",
        [
          Alcotest.test_case "truth" `Quick test_value_truth;
          Alcotest.test_case "convert" `Quick test_value_convert;
        ] );
      ( "insn",
        [
          Alcotest.test_case "defs/uses" `Quick test_insn_defs_uses;
          Alcotest.test_case "iter_uses" `Quick test_insn_iter_uses;
          Alcotest.test_case "iter_uses allocates nothing" `Quick
            test_insn_iter_uses_alloc;
          Alcotest.test_case "fu class" `Quick test_insn_fu_class;
          Alcotest.test_case "pretty printing" `Quick test_insn_pp;
        ] );
      ( "block",
        [
          Alcotest.test_case "successors" `Quick test_block_successors;
          Alcotest.test_case "targets" `Quick test_block_targets;
          Alcotest.test_case "iter_succs allocates nothing" `Quick
            test_iter_succs_alloc;
        ] );
      ( "model",
        [
          Alcotest.test_case "corpus and shapes" `Quick test_cfg_model_corpus;
          QCheck_alcotest.to_alcotest prop_cfg_model_random;
          QCheck_alcotest.to_alcotest prop_cfg_model_builder;
        ] );
      ( "func",
        [
          Alcotest.test_case "predecessors" `Quick test_func_preds;
          Alcotest.test_case "static size" `Quick test_func_static_size;
          Alcotest.test_case "drop unreachable" `Quick
            test_func_drop_unreachable;
          Alcotest.test_case "validate errors" `Quick test_func_validate_errors;
        ] );
      ( "builder",
        [
          Alcotest.test_case "structured" `Quick test_builder_structured;
          Alcotest.test_case "duplicate func" `Quick test_builder_duplicate_func;
          Alcotest.test_case "missing callee" `Quick test_builder_missing_callee;
          Alcotest.test_case "data segment" `Quick test_builder_data;
          Alcotest.test_case "data runs" `Quick test_builder_data_runs;
          Alcotest.test_case "unreachable pruned" `Quick
            test_builder_unreachable_pruned;
        ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip_sample;
          Alcotest.test_case "insn forms" `Quick test_parse_insn_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and data" `Quick
            test_parse_comments_and_data;
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "printer golden digests" `Quick
            test_program_text_golden;
          Alcotest.test_case "data runs" `Quick test_parse_data_runs;
          QCheck_alcotest.to_alcotest prop_parse_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            prop_parse_mutants;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_programs_valid;
          QCheck_alcotest.to_alcotest prop_blocks_end_in_range;
        ] );
    ]
