(* Tests for the register-communication (forward/release) analysis. *)

let checkb = Alcotest.check Alcotest.bool

let blk label insns term =
  { Ir.Block.label; insns = Array.of_list insns; term }

let r = Ir.Reg.tmp 0
let s = Ir.Reg.tmp 1

(* 0: r=1          -> 1
   1: branch       -> 2 | 3
   2: r=2          -> 4
   3: s=5          -> 4
   4: ret *)
let rewrite_func () =
  {
    Ir.Func.name = "rw";
    blocks =
      [|
        blk 0 [ Ir.Insn.Li (r, 1) ] (Ir.Block.Jump 1);
        blk 1 [ Ir.Insn.Li (3, 0) ] (Ir.Block.Br (3, 2, 3));
        blk 2 [ Ir.Insn.Li (r, 2) ] (Ir.Block.Jump 4);
        blk 3 [ Ir.Insn.Li (s, 5) ] (Ir.Block.Jump 4);
        blk 4 [] Ir.Block.Ret;
      |];
  }

let whole_task f =
  let included_calls = Array.make (Ir.Func.num_blocks f) false in
  let blocks =
    Core.Task.Iset.of_list
      (List.init (Ir.Func.num_blocks f) (fun i -> i))
  in
  let t = Core.Task.of_blocks f ~included_calls ~entry:0 blocks in
  {
    Core.Task.fname = f.Ir.Func.name;
    tasks = [| t |];
    task_of_entry =
      Array.init (Ir.Func.num_blocks f) (fun i -> if i = 0 then 0 else -1);
    included_calls;
  }

(* Regcomm over the function's own sound liveness, as a plan supplies it *)
let create f part =
  Core.Regcomm.create f ~live_in:(Analysis.Dataflow.sound_live_in f) part

let test_forwardable_last_write () =
  let f = rewrite_func () in
  let rc = create f (whole_task f) in
  (* the write of r in block 0 may be overwritten in block 2: not final *)
  checkb "early write not forwardable" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  (* the write in block 2 is final *)
  checkb "late write forwardable" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:2 ~idx:0 ~reg:r);
  (* s is written once: final *)
  checkb "s forwardable" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:3 ~idx:0 ~reg:s)

let test_may_rewrite_release_points () =
  let f = rewrite_func () in
  let rc = create f (whole_task f) in
  (* from block 0 or 1, r can still be rewritten (block 2 reachable) *)
  checkb "entry may rewrite r" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:0 ~reg:r);
  checkb "branch may rewrite r" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:1 ~reg:r);
  (* once control reaches block 3, r cannot be rewritten: release point *)
  checkb "other arm releases r" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:3 ~reg:r);
  checkb "join releases r" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:4 ~reg:r);
  (* block 2 itself still writes r *)
  checkb "writing block may rewrite" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:2 ~reg:r)

let test_multiple_writes_same_block () =
  let f =
    {
      Ir.Func.name = "mw";
      blocks =
        [| blk 0 [ Ir.Insn.Li (r, 1); Ir.Insn.Li (r, 2) ] Ir.Block.Ret |];
    }
  in
  let rc = create f (whole_task f) in
  checkb "first write not forwardable" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  checkb "second write forwardable" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:1 ~reg:r)

let test_included_call_kills () =
  let f =
    {
      Ir.Func.name = "ic";
      blocks =
        [|
          blk 0 [ Ir.Insn.Li (r, 1) ] (Ir.Block.Call ("callee", 1));
          blk 1 [] Ir.Block.Ret;
        |];
    }
  in
  let included_calls = [| true; false |] in
  let blocks = Core.Task.Iset.of_list [ 0; 1 ] in
  let t = Core.Task.of_blocks f ~included_calls ~entry:0 blocks in
  let part =
    {
      Core.Task.fname = "ic";
      tasks = [| t |];
      task_of_entry = [| 0; -1 |];
      included_calls;
    }
  in
  let rc = create f part in
  (* the included callee may write anything: the write before the call is
     not final, and the call block itself may rewrite every register *)
  checkb "write before included call not forwardable" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r);
  checkb "call block may rewrite" true
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:0 ~reg:s);
  checkb "after call released" false
    (Core.Regcomm.may_rewrite rc ~task:0 ~blk:1 ~reg:r)

let test_unknown_sites_conservative () =
  let f = rewrite_func () in
  let rc = create f (whole_task f) in
  checkb "bad task index" false
    (Core.Regcomm.forwardable rc ~task:5 ~blk:0 ~idx:0 ~reg:r);
  checkb "unknown site" false
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:7 ~reg:r);
  checkb "may_rewrite conservative on bad task" true
    (Core.Regcomm.may_rewrite rc ~task:9 ~blk:0 ~reg:r)

(* Loop-body task: the entry is also the target of the back edge, so the
   "reachable" relation must not flow through the re-entry. *)
let test_loop_task_reentry () =
  let f =
    {
      Ir.Func.name = "loop";
      blocks =
        [|
          blk 0
            [ Ir.Insn.Bin (Ir.Insn.Add, r, r, Ir.Insn.Imm 1);
              Ir.Insn.Bin (Ir.Insn.Lt, 3, r, Ir.Insn.Imm 10) ]
            (Ir.Block.Br (3, 0, 1));
          blk 1 [] Ir.Block.Ret;
        |];
    }
  in
  let included_calls = [| false; false |] in
  let blocks = Core.Task.Iset.singleton 0 in
  let t = Core.Task.of_blocks f ~included_calls ~entry:0 blocks in
  let part =
    {
      Core.Task.fname = "loop";
      tasks = [| t |];
      task_of_entry = [| 0; -1 |];
      included_calls;
    }
  in
  let rc = create f part in
  (* the increment is the last write on the iteration: forwardable even
     though the task re-enters itself *)
  checkb "increment forwardable in loop task" true
    (Core.Regcomm.forwardable rc ~task:0 ~blk:0 ~idx:0 ~reg:r)

(* A liveness table of another function would answer [needed] wrongly or
   index out of bounds, so create refuses one whose length differs. *)
let test_rejects_other_liveness () =
  let f = rewrite_func () in
  let other =
    {
      Ir.Func.name = "other";
      blocks = [| blk 0 [] (Ir.Block.Jump 1); blk 1 [] Ir.Block.Ret |];
    }
  in
  match
    Core.Regcomm.create f
      ~live_in:(Analysis.Dataflow.sound_live_in other)
      (whole_task f)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted another function's liveness"

let () =
  Alcotest.run "regcomm"
    [
      ( "forwarding",
        [
          Alcotest.test_case "last write" `Quick test_forwardable_last_write;
          Alcotest.test_case "release points" `Quick
            test_may_rewrite_release_points;
          Alcotest.test_case "same block writes" `Quick
            test_multiple_writes_same_block;
          Alcotest.test_case "included call kills" `Quick
            test_included_call_kills;
          Alcotest.test_case "conservative defaults" `Quick
            test_unknown_sites_conservative;
          Alcotest.test_case "loop re-entry" `Quick test_loop_task_reentry;
          Alcotest.test_case "rejects another function's liveness" `Quick
            test_rejects_other_liveness;
        ] );
    ]
