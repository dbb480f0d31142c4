type bblock = {
  id : Block.label;
  mutable rev_insns : Insn.t list;
  mutable term : Block.terminator option;
}

type b = {
  fname : string;
  mutable rev_blocks : bblock list;
  mutable next_id : int;
  mutable cur : bblock option;
}

type pb = {
  mutable funcs : (string * Func.t) list;
  mutable rev_data : (int * Prog.cells) list;
  mutable next_addr : int;
}

let program () = { funcs = []; rev_data = []; next_addr = 0x1000 }

let alloc pb n =
  if n < 0 then invalid_arg "Builder.alloc";
  let base = pb.next_addr in
  pb.next_addr <- pb.next_addr + n;
  base

let add_data pb base cells = pb.rev_data <- (base, cells) :: pb.rev_data

let init_cell pb addr = function
  | Value.Int n -> add_data pb addr (Prog.Ints [| n |])
  | Value.Flt x -> add_data pb addr (Prog.Flts [| x |])

let data pb cells =
  let base = alloc pb (Prog.length cells) in
  add_data pb base cells;
  base

let data_ints pb xs = data pb (Prog.Ints (Array.of_list xs))
let data_floats pb xs = data pb (Prog.Flts (Array.of_list xs))

(* --- function building ------------------------------------------------- *)

let fresh_block b =
  let blk = { id = b.next_id; rev_insns = []; term = None } in
  b.next_id <- b.next_id + 1;
  b.rev_blocks <- blk :: b.rev_blocks;
  blk

let current b =
  match b.cur with
  | Some blk -> blk
  | None ->
    (* emission after a terminator: start an unreachable block, pruned at
       finish time *)
    let blk = fresh_block b in
    b.cur <- Some blk;
    blk

let emit b insn =
  let blk = current b in
  blk.rev_insns <- insn :: blk.rev_insns

let seal b term =
  let blk = current b in
  assert (blk.term = None);
  blk.term <- Some term;
  b.cur <- None

let seal_if_open b term =
  match b.cur with
  | None -> ()
  | Some _ -> seal b term

let start b blk = b.cur <- Some blk

let li b d n = emit b (Insn.Li (d, n))
let lf b d f = emit b (Insn.Lf (d, f))
let mov b d s = emit b (Insn.Mov (d, s))
let bin b op d s o = emit b (Insn.Bin (op, d, s, o))
let addi b d s n = emit b (Insn.Bin (Insn.Add, d, s, Insn.Imm n))
let fbin b op d s1 s2 = emit b (Insn.Fbin (op, d, s1, s2))
let fcmp b op d s1 s2 = emit b (Insn.Fcmp (op, d, s1, s2))
let funop b op d s = emit b (Insn.Fun (op, d, s))
let load b d base off = emit b (Insn.Load (d, base, off))
let store b s base off = emit b (Insn.Store (s, base, off))
let nop b = emit b Insn.Nop

let new_block b =
  let next = fresh_block b in
  seal b (Block.Jump next.id);
  start b next

let if_ b cond then_ else_ =
  let bt = fresh_block b in
  let be = fresh_block b in
  let bj = fresh_block b in
  seal b (Block.Br (cond, bt.id, be.id));
  start b bt;
  then_ b;
  seal_if_open b (Block.Jump bj.id);
  start b be;
  else_ b;
  seal_if_open b (Block.Jump bj.id);
  start b bj

let when_ b cond then_ = if_ b cond then_ (fun _ -> ())

let while_ b ~cond body =
  let head = fresh_block b in
  let bodyb = fresh_block b in
  let exitb = fresh_block b in
  seal b (Block.Jump head.id);
  start b head;
  let c = cond b in
  seal b (Block.Br (c, bodyb.id, exitb.id));
  start b bodyb;
  body b;
  seal_if_open b (Block.Jump head.id);
  start b exitb

let do_while b body =
  let bodyb = fresh_block b in
  let exitb = fresh_block b in
  seal b (Block.Jump bodyb.id);
  start b bodyb;
  let c = body b in
  seal b (Block.Br (c, bodyb.id, exitb.id));
  start b exitb

let scratch = 3

let for_ b r ~from ~below ~step body =
  (match from with
  | Insn.Imm n -> li b r n
  | Insn.Reg s -> mov b r s);
  let cond fb =
    bin fb (if step > 0 then Insn.Lt else Insn.Gt) scratch r below;
    scratch
  in
  while_ b ~cond (fun fb ->
      body fb;
      addi fb r r step)

let switch_ b idx cases ~default =
  let case_blocks = Array.map (fun _ -> fresh_block b) cases in
  let defb = fresh_block b in
  let joinb = fresh_block b in
  seal b (Block.Switch (idx, Array.map (fun blk -> blk.id) case_blocks, defb.id));
  Array.iteri
    (fun i blk ->
      start b blk;
      cases.(i) b;
      seal_if_open b (Block.Jump joinb.id))
    case_blocks;
  start b defb;
  default b;
  seal_if_open b (Block.Jump joinb.id);
  start b joinb

let call b callee =
  let cont = fresh_block b in
  seal b (Block.Call (callee, cont.id));
  start b cont

let ret b = seal b Block.Ret
let halt b = seal b Block.Halt

let func pb name body =
  if List.mem_assoc name pb.funcs then
    invalid_arg (Printf.sprintf "Builder.func: duplicate function %s" name);
  let b = { fname = name; rev_blocks = []; next_id = 0; cur = None } in
  let entry = fresh_block b in
  start b entry;
  body b;
  seal_if_open b Block.Ret;
  let blocks =
    List.rev_map
      (fun blk ->
        let term =
          match blk.term with
          | Some t -> t
          | None -> Block.Ret (* open unreachable block *)
        in
        {
          Block.label = blk.id;
          insns = Array.of_list (List.rev blk.rev_insns);
          term;
        })
      b.rev_blocks
  in
  let f = { Func.name = b.fname; blocks = Array.of_list blocks } in
  let f = Func.drop_unreachable f in
  pb.funcs <- (name, f) :: pb.funcs

let finish pb ~main =
  let funcs =
    List.fold_left
      (fun acc (name, f) -> Prog.Smap.add name f acc)
      Prog.Smap.empty pb.funcs
  in
  let p =
    {
      Prog.funcs;
      main;
      mem_init = Prog.runs (List.rev pb.rev_data);
      mem_top = pb.next_addr;
    }
  in
  match Prog.validate p with
  | Ok () -> p
  | Error e -> invalid_arg (Printf.sprintf "Builder.finish: %s" e)
