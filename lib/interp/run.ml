exception Runtime_error of string

type outcome = {
  trace : Trace.t;
  profile : Profile.t;
  steps : int;
  result : Ir.Value.t;
}

let initial_sp = 1 lsl 20

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let eval_binop op a b =
  let open Ir.Insn in
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then fail "division by zero" else a / b
  | Rem -> if b = 0 then fail "remainder by zero" else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (min 62 (max 0 b))
  | Shr -> a asr (min 62 (max 0 b))
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0

let eval_fbinop op a b =
  let open Ir.Insn in
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

let eval_fcmp op a b =
  let open Ir.Insn in
  match op with
  | Flt -> a < b
  | Fle -> a <= b
  | Feq -> Float.equal a b
  | Fne -> not (Float.equal a b)

let execute ?on_event ?(max_steps = 30_000_000) prog =
  let bindings = Ir.Prog.Smap.bindings prog.Ir.Prog.funcs in
  let fnames = Array.of_list (List.map fst bindings) in
  let funcs = Array.of_list (List.map snd bindings) in
  let fid_tbl = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace fid_tbl name i) fnames;
  let fid name =
    match Hashtbl.find_opt fid_tbl name with
    | Some i -> i
    | None -> fail "call to undefined function %s" name
  in
  let regs = Array.make Ir.Reg.count Ir.Value.zero in
  regs.(Ir.Reg.sp) <- Ir.Value.Int initial_sp;
  let mem : (int, Ir.Value.t) Hashtbl.t = Hashtbl.create 4096 in
  List.iter (fun (a, v) -> Hashtbl.replace mem a v) prog.Ir.Prog.mem_init;
  let profile = Profile.create () in
  (* last writer of each register: (fid, blk), or (-1, -1) initially *)
  let last_writer = Array.make Ir.Reg.count (-1, -1) in
  let buf = Trace.Builder.create () in
  let steps = ref 0 in
  let get r = if r = Ir.Reg.zero then Ir.Value.zero else regs.(r) in
  let geti r = Ir.Value.to_int (get r) in
  let getf r = Ir.Value.to_float (get r) in
  let set r v = if r <> Ir.Reg.zero then regs.(r) <- v in
  let read_mem a = try Hashtbl.find mem a with Not_found -> Ir.Value.zero in
  (* call stack: (return fid, return block, callee fid, steps at entry) *)
  let stack = ref [] in
  let cur_fid = ref (fid prog.Ir.Prog.main) in
  let cur_blk = ref Ir.Func.entry in
  Profile.bump_invocation profile !cur_fid;
  let entry_steps_main = 0 in
  let running = ref true in
  let result = ref Ir.Value.zero in
  while !running do
    let f = funcs.(!cur_fid) in
    let b = Ir.Func.block f !cur_blk in
    Trace.Builder.start_event buf ~fid:!cur_fid ~blk:!cur_blk;
    let note_dep r =
      if r <> Ir.Reg.zero then begin
        let wfid, wblk = last_writer.(r) in
        if wfid = !cur_fid && wblk <> !cur_blk && wblk >= 0 then
          Profile.bump_dep profile !cur_fid wblk !cur_blk r
      end
    in
    let note_write r = if r <> Ir.Reg.zero then last_writer.(r) <- (!cur_fid, !cur_blk) in
    let exec_insn insn =
      incr steps;
      List.iter note_dep (Ir.Insn.uses insn);
      (match insn with
      | Ir.Insn.Nop -> ()
      | Ir.Insn.Li (d, n) -> set d (Ir.Value.Int n)
      | Ir.Insn.Lf (d, x) -> set d (Ir.Value.Flt x)
      | Ir.Insn.Mov (d, s) -> set d (get s)
      | Ir.Insn.Bin (op, d, s, o) ->
        let a = geti s in
        let b' = match o with Ir.Insn.Reg r -> geti r | Ir.Insn.Imm n -> n in
        set d (Ir.Value.Int (eval_binop op a b'))
      | Ir.Insn.Fbin (op, d, s1, s2) ->
        set d (Ir.Value.Flt (eval_fbinop op (getf s1) (getf s2)))
      | Ir.Insn.Fcmp (op, d, s1, s2) ->
        set d (Ir.Value.Int (if eval_fcmp op (getf s1) (getf s2) then 1 else 0))
      | Ir.Insn.Fun (op, d, s) ->
        (match op with
        | Ir.Insn.Fneg -> set d (Ir.Value.Flt (-.getf s))
        | Ir.Insn.Fabs -> set d (Ir.Value.Flt (Float.abs (getf s)))
        | Ir.Insn.Fsqrt -> set d (Ir.Value.Flt (sqrt (getf s)))
        | Ir.Insn.Itof -> set d (Ir.Value.Flt (float_of_int (geti s)))
        | Ir.Insn.Ftoi -> set d (Ir.Value.Int (int_of_float (getf s))))
      | Ir.Insn.Load (d, base, off) ->
        let a = geti base + off in
        Trace.Builder.push_addr buf a;
        set d (read_mem a)
      | Ir.Insn.Store (s, base, off) ->
        let a = geti base + off in
        Trace.Builder.push_addr buf a;
        Hashtbl.replace mem a (get s)
      | Ir.Insn.Cmov (d, c, s) ->
        if Ir.Value.is_true (get c) then set d (get s));
      List.iter note_write (Ir.Insn.defs insn)
    in
    Array.iter exec_insn b.Ir.Block.insns;
    incr steps;
    if !steps > max_steps then
      fail "exceeded %d dynamic instructions (infinite loop?)" max_steps;
    (match on_event with
    | Some f ->
      f ~fid:!cur_fid ~blk:!cur_blk ~addrs:(Trace.Builder.last_event_addrs buf)
    | None -> ());
    (* terminator *)
    (match b.Ir.Block.term with
    | Ir.Block.Jump l -> cur_blk := l
    | Ir.Block.Br (c, l1, l2) ->
      note_dep c;
      cur_blk := if Ir.Value.is_true (get c) then l1 else l2
    | Ir.Block.Switch (c, targets, default) ->
      note_dep c;
      let v = geti c in
      cur_blk :=
        if v >= 0 && v < Array.length targets then targets.(v) else default
    | Ir.Block.Call (callee, cont) ->
      let callee_fid = fid callee in
      stack := (!cur_fid, cont, callee_fid, !steps) :: !stack;
      Profile.bump_invocation profile callee_fid;
      cur_fid := callee_fid;
      cur_blk := Ir.Func.entry
    | Ir.Block.Ret ->
      (match !stack with
      | (ret_fid, ret_blk, callee_fid, entry_steps) :: rest ->
        Profile.add_inclusive profile callee_fid (!steps - entry_steps);
        stack := rest;
        cur_fid := ret_fid;
        cur_blk := ret_blk
      | [] ->
        Profile.add_inclusive profile !cur_fid (!steps - entry_steps_main);
        result := get Ir.Reg.rv;
        running := false)
    | Ir.Block.Halt ->
      result := get Ir.Reg.rv;
      running := false)
  done;
  let trace = Trace.Builder.finish buf ~prog ~fnames ~funcs ~dyn_insns:!steps in
  { trace; profile; steps = !steps; result = !result }
