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

(* --- the register file, unboxed ------------------------------------------- *)

(* Every write keeps both views of a register current: [ints.(r)] is the
   value's [Value.to_int] and [flts.(r)] its [Value.to_float], so reads
   neither branch nor box.  [is_flt.(r)] records the constructor, which
   matters only when a value leaves the file (a store, the result).  r0 is
   never written, so it reads as integer 0. *)
type regs = { ints : int array; flts : float array; is_flt : bool array }

(* [@inline] keeps the float argument unboxed at every call site: without
   flambda, a float passed to a function that is not inlined is boxed *)
let[@inline] set_int regs d n =
  if d <> Ir.Reg.zero then begin
    regs.ints.(d) <- n;
    regs.flts.(d) <- float_of_int n;
    regs.is_flt.(d) <- false
  end

let[@inline] set_flt regs d x =
  if d <> Ir.Reg.zero then begin
    regs.ints.(d) <- int_of_float x;
    regs.flts.(d) <- x;
    regs.is_flt.(d) <- true
  end

let[@inline] copy regs d s =
  if d <> Ir.Reg.zero then begin
    regs.ints.(d) <- regs.ints.(s);
    regs.flts.(d) <- regs.flts.(s);
    regs.is_flt.(d) <- regs.is_flt.(s)
  end

let value regs r =
  if regs.is_flt.(r) then Ir.Value.Flt regs.flts.(r)
  else Ir.Value.Int regs.ints.(r)

(* [Value.is_true]: for an integer n, [float_of_int n <> 0.0] iff n <> 0 *)
let[@inline] is_true regs r = regs.flts.(r) <> 0.0

(* --- memory, unboxed -------------------------------------------------------- *)

(* Memory is fixed-size pages found by [addr asr page_bits] in an
   int-keyed table behind a last-page cache.  A page holds its cells'
   integers, floats and kinds (1 for a float), as the register file does,
   so loads and stores allocate nothing.  A cell never written reads as
   integer 0.  [asr] is floor division, so negative and huge addresses
   each land in their own cell.  A page's arrays are 64 words, inside
   the size classes OCaml 5's major heap pools (up to 128 words);
   DESIGN.md §5 has the page sizes measured. *)
let page_bits = 6
let page_size = 1 lsl page_bits

type page = { cints : int array; cflts : float array; kinds : Bytes.t }

type mem = {
  pages : (int, page) Hashtbl.t;
  mutable last_idx : int;  (* [min_int] is no page's index *)
  mutable last : page;
}

(* the page of [idx], through the cache; [Not_found] when no store made it *)
let[@inline] find_page mem idx =
  if idx = mem.last_idx then mem.last
  else begin
    let p = Hashtbl.find mem.pages idx in
    mem.last_idx <- idx;
    mem.last <- p;
    p
  end

let[@inline] store_page mem idx =
  match find_page mem idx with
  | p -> p
  | exception Not_found ->
    let p =
      {
        cints = Array.make page_size 0;
        cflts = Array.make page_size 0.0;
        kinds = Bytes.make page_size '\000';
      }
    in
    Hashtbl.add mem.pages idx p;
    mem.last_idx <- idx;
    mem.last <- p;
    p

let[@inline] store_int mem a n =
  let p = store_page mem (a asr page_bits) and i = a land (page_size - 1) in
  p.cints.(i) <- n;
  Bytes.unsafe_set p.kinds i '\000'

let[@inline] store_flt mem a x =
  let p = store_page mem (a asr page_bits) and i = a land (page_size - 1) in
  p.cflts.(i) <- x;
  Bytes.unsafe_set p.kinds i '\001'

(* the data runs, copied in program order *)
let load_data (prog : Ir.Prog.t) =
  let mem =
    {
      pages = Hashtbl.create 16;
      last_idx = min_int;
      last = { cints = [||]; cflts = [||]; kinds = Bytes.empty };
    }
  in
  List.iter
    (fun (base, cells) ->
      match cells with
      | Ir.Prog.Ints a ->
        for j = 0 to Array.length a - 1 do store_int mem (base + j) a.(j) done
      | Ir.Prog.Flts a ->
        for j = 0 to Array.length a - 1 do store_flt mem (base + j) a.(j) done)
    prog.Ir.Prog.mem_init;
  mem

(* --- one instruction ------------------------------------------------------ *)

let exec regs mem buf insn =
  let open Ir.Insn in
  match insn with
  | Nop -> ()
  | Li (d, n) -> set_int regs d n
  | Lf (d, x) -> set_flt regs d x
  | Mov (d, s) -> copy regs d s
  | Bin (op, d, s, o) ->
    let b = match o with Reg r -> regs.ints.(r) | Imm n -> n in
    set_int regs d (eval_binop op regs.ints.(s) b)
  | Fbin (op, d, s1, s2) ->
    let a = regs.flts.(s1) and b = regs.flts.(s2) in
    set_flt regs d
      (match op with
      | Fadd -> a +. b
      | Fsub -> a -. b
      | Fmul -> a *. b
      | Fdiv -> a /. b
      | Fmin -> Float.min a b
      | Fmax -> Float.max a b)
  | Fcmp (op, d, s1, s2) ->
    let a = regs.flts.(s1) and b = regs.flts.(s2) in
    let holds =
      match op with
      | Flt -> a < b
      | Fle -> a <= b
      | Feq -> Float.equal a b
      | Fne -> not (Float.equal a b)
    in
    set_int regs d (if holds then 1 else 0)
  | Fun (op, d, s) -> (
    match op with
    | Fneg -> set_flt regs d (-.regs.flts.(s))
    | Fabs -> set_flt regs d (Float.abs regs.flts.(s))
    | Fsqrt -> set_flt regs d (sqrt regs.flts.(s))
    | Itof -> set_flt regs d (float_of_int regs.ints.(s))
    | Ftoi -> set_int regs d (int_of_float regs.flts.(s)))
  | Load (d, base, off) ->
    let a = regs.ints.(base) + off in
    Trace.Builder.push_addr buf a;
    (match find_page mem (a asr page_bits) with
    | p ->
      let i = a land (page_size - 1) in
      if Bytes.unsafe_get p.kinds i = '\001' then set_flt regs d p.cflts.(i)
      else set_int regs d p.cints.(i)
    | exception Not_found -> set_int regs d 0)
  | Store (s, base, off) ->
    let a = regs.ints.(base) + off in
    Trace.Builder.push_addr buf a;
    if regs.is_flt.(s) then store_flt mem a regs.flts.(s)
    else store_int mem a regs.ints.(s)
  | Cmov (d, c, s) -> if is_true regs c then copy regs d s

(* --- decoding ------------------------------------------------------------- *)

(* A block as the loop runs it, decoded once per run: each instruction's
   deduplicated uses and its def, r0 dropped from both (it carries no
   dependence; a def of -1 means none), and a call's callee fid (-1 when
   the callee is undefined, which fails only if the call executes). *)
type block = {
  insns : Ir.Insn.t array;
  uses : int array array;
  defs : int array;
  term : Ir.Block.terminator;
  callee : int;
}

let decode fid_of (b : Ir.Block.t) =
  let real r = r <> Ir.Reg.zero in
  {
    insns = b.Ir.Block.insns;
    uses =
      Array.map
        (fun i -> Array.of_list (List.filter real (Ir.Insn.uses i)))
        b.Ir.Block.insns;
    defs =
      Array.map
        (fun i ->
          match List.filter real (Ir.Insn.defs i) with d :: _ -> d | [] -> -1)
        b.Ir.Block.insns;
    term = b.Ir.Block.term;
    callee =
      (match b.Ir.Block.term with
      | Ir.Block.Call (name, _) -> fid_of name
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
      | Ir.Block.Halt ->
        -1);
  }

(* --- the dependence profile ----------------------------------------------- *)

(* A register's last writer is one packed int, [fid lsl blk_bits lor blk]
   (-1 before any write); blocks fit the trace's 16-bit field, since the
   loop rejects any block that does not before it executes. *)
let blk_bits = 16

let[@inline] note_dep last_writer profile ~fid ~blk ~at r =
  let w = last_writer.(r) in
  if w lsr blk_bits = fid && w <> at then
    Profile.bump_dep profile fid (w land ((1 lsl blk_bits) - 1)) blk r

(* --- the loop ------------------------------------------------------------- *)

let execute ?on_event ?(max_steps = 30_000_000) prog =
  let bindings = Ir.Prog.Smap.bindings prog.Ir.Prog.funcs in
  let fnames = Array.of_list (List.map fst bindings) in
  let funcs = Array.of_list (List.map snd bindings) in
  let fid_tbl = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace fid_tbl name i) fnames;
  let fid_of name = Option.value (Hashtbl.find_opt fid_tbl name) ~default:(-1) in
  let main = fid_of prog.Ir.Prog.main in
  if main < 0 then fail "call to undefined function %s" prog.Ir.Prog.main;
  let code = Array.map (fun f -> Array.map (decode fid_of) f.Ir.Func.blocks) funcs in
  let regs =
    {
      ints = Array.make Ir.Reg.count 0;
      flts = Array.make Ir.Reg.count 0.0;
      is_flt = Array.make Ir.Reg.count false;
    }
  in
  set_int regs Ir.Reg.sp initial_sp;
  let mem = load_data prog in
  let profile = Profile.create ~nfuncs:(Array.length funcs) in
  let last_writer = Array.make Ir.Reg.count (-1) in
  let buf = Trace.Builder.create () in
  (* call stack, three ints a frame: return fid, return block, steps at the
     callee's entry *)
  let stack = ref (Array.make 48 0) in
  let depth = ref 0 in
  let steps = ref 0 in
  let cur_fid = ref main in
  let cur_blk = ref Ir.Func.entry in
  Profile.bump_invocation profile main;
  let running = ref true in
  let result = ref Ir.Value.zero in
  while !running do
    let fid = !cur_fid and blk = !cur_blk in
    let b = code.(fid).(blk) in
    if fid >= Trace.max_funcs then
      fail "function %s (fid %d) exceeds the trace's limit of %d functions"
        fnames.(fid) fid Trace.max_funcs;
    if blk >= Trace.max_blocks then
      fail "block L%d of %s exceeds the trace's limit of %d blocks per function"
        blk fnames.(fid) Trace.max_blocks;
    Trace.Builder.start_event buf ~fid ~blk;
    let at = (fid lsl blk_bits) lor blk in
    for i = 0 to Array.length b.insns - 1 do
      incr steps;
      let uses = b.uses.(i) in
      for k = 0 to Array.length uses - 1 do
        note_dep last_writer profile ~fid ~blk ~at uses.(k)
      done;
      exec regs mem buf b.insns.(i);
      let d = b.defs.(i) in
      if d >= 0 then last_writer.(d) <- at
    done;
    incr steps;
    if !steps > max_steps then
      fail "exceeded %d dynamic instructions (infinite loop?)" max_steps;
    (match on_event with
    | Some f -> f ~fid ~blk ~addrs:(Trace.Builder.last_event_addrs buf)
    | None -> ());
    match b.term with
    | Ir.Block.Jump l -> cur_blk := l
    | Ir.Block.Br (c, l1, l2) ->
      if c <> Ir.Reg.zero then note_dep last_writer profile ~fid ~blk ~at c;
      cur_blk := if is_true regs c then l1 else l2
    | Ir.Block.Switch (c, targets, default) ->
      if c <> Ir.Reg.zero then note_dep last_writer profile ~fid ~blk ~at c;
      let v = regs.ints.(c) in
      cur_blk :=
        if v >= 0 && v < Array.length targets then targets.(v) else default
    | Ir.Block.Call (name, cont) ->
      let callee = b.callee in
      if callee < 0 then fail "call to undefined function %s" name;
      if !depth + 3 > Array.length !stack then begin
        let bigger = Array.make (2 * Array.length !stack) 0 in
        Array.blit !stack 0 bigger 0 !depth;
        stack := bigger
      end;
      let s = !stack and top = !depth in
      s.(top) <- fid;
      s.(top + 1) <- cont;
      s.(top + 2) <- !steps;
      depth := top + 3;
      Profile.bump_invocation profile callee;
      cur_fid := callee;
      cur_blk := Ir.Func.entry
    | Ir.Block.Ret ->
      if !depth = 0 then begin
        Profile.add_inclusive profile fid !steps;
        result := value regs Ir.Reg.rv;
        running := false
      end
      else begin
        let s = !stack and top = !depth - 3 in
        Profile.add_inclusive profile fid (!steps - s.(top + 2));
        depth := top;
        cur_fid := s.(top);
        cur_blk := s.(top + 1)
      end
    | Ir.Block.Halt ->
      result := value regs Ir.Reg.rv;
      running := false
  done;
  let trace = Trace.Builder.finish buf ~prog ~fnames ~funcs ~dyn_insns:!steps in
  { trace; profile; steps = !steps; result = !result }
