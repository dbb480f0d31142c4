(* Compiler register-communication analysis: which writes are final
   (forward bits), which values may still be rewritten on some path, and
   which registers any successor task could read before rewriting (dead
   traffic the release bits never send).

   The analysis itself runs once per (function, partition), over the
   function's sound liveness, which the caller supplies (a plan derives it
   once: Partition.live_in); its results are then flattened into per-task
   lookup tables — a byte per register for liveness-out, and per
   (block-in-task, register) a "forwardable at instruction index" entry
   and a may-rewrite bit — because the simulator queries these once per
   dynamic register write.  Tree-set membership and
   tuple-keyed hashtable probes on that path cost an allocation and a
   polymorphic hash per query; the flat tables are two array reads.

   The tables are filled from arrays and register sets, with nothing
   allocated per (block, register): each block's writes as a Regset, once
   per function; per task block, the last-def index of each register in
   one array reset per block, and the writes of the blocks strictly
   reachable from it inside the task, accumulated into one Regset by a
   depth-first search over a stamped visited array and an int stack. *)

module Iset = Task.Iset

module Regset = Analysis.Dataflow.Regset

type task_info = {
  (* registers some successor may read before writing, one byte per
     register: the complement is dead traffic *)
  needed_b : Bytes.t;
  (* dense index of each block inside this task, -1 outside *)
  blk_off : int array;
  (* per (block-in-task, reg): the unique instruction index whose write the
     compiler can mark forwardable, or -1 *)
  fwd : int array;
  (* per (block-in-task, reg): may a block in the task at or after this one
     still write the register? *)
  rw : Bytes.t;
}

type t = { infos : task_info array }

let included_call ~included_calls b (blk : Ir.Block.t) =
  match blk.Ir.Block.term with
  | Ir.Block.Call (_, _) -> included_calls.(b)
  | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
  | Ir.Block.Halt -> false

(* an included call writes every register *)
let block_writes ~included_calls b (blk : Ir.Block.t) =
  if included_call ~included_calls b blk then Regset.all
  else
    Array.fold_left
      (fun acc insn ->
        match Ir.Insn.def insn with -1 -> acc | r -> Regset.add r acc)
      Regset.empty blk.Ir.Block.insns

let create f ~live_in part =
  if Array.length live_in <> Ir.Func.num_blocks f then
    invalid_arg
      (Printf.sprintf "Regcomm.create: %d live-in sets for %s's %d blocks"
         (Array.length live_in) f.Ir.Func.name (Ir.Func.num_blocks f));
  let included_calls = part.Task.included_calls in
  let n = Ir.Func.num_blocks f and nregs = Ir.Reg.count in
  let writes = Array.mapi (block_writes ~included_calls) f.Ir.Func.blocks in
  (* the search's visited stamps, stack and the writes it has reached;
     one block's last defs *)
  let seen = Array.make n (-1) and stack = Array.make n 0 in
  let search = ref 0 and sp = ref 0 and reach = ref Regset.empty in
  let visit s =
    if seen.(s) <> !search then begin
      seen.(s) <- !search;
      reach := Regset.union writes.(s) !reach;
      stack.(!sp) <- s;
      incr sp
    end
  in
  let last_def = Array.make nregs (-1) in
  let task_info (task : Task.t) =
    let needed_out =
      if task.Task.has_ret || task.Task.calls_out <> [] then Regset.all
      else
        List.fold_left
          (fun acc target -> Regset.union acc live_in.(target))
          Regset.empty task.Task.targets
    in
    let needed_b =
      Bytes.init nregs (fun r ->
          if Regset.mem r needed_out then '\001' else '\000')
    in
    let blk_off = Array.make n (-1) in
    let ntb =
      Iset.fold
        (fun b k ->
          blk_off.(b) <- k;
          k + 1)
        task.Task.blocks 0
    in
    let fwd = Array.make (ntb * nregs) (-1) in
    let rw = Bytes.make (ntb * nregs) '\000' in
    let succs =
      Task.iter_intra_successors f ~included_calls ~entry:task.Task.entry
        task.Task.blocks visit
    in
    Iset.iter
      (fun b ->
        (* the writes of the blocks strictly reachable from [b] inside the
           task (edges to the entry end the task and do not continue) *)
        incr search;
        reach := Regset.empty;
        succs b;
        while !sp > 0 do
          decr sp;
          succs stack.(!sp)
        done;
        let blk = Ir.Func.block f b in
        Array.fill last_def 0 nregs (-1);
        for idx = 0 to Array.length blk.Ir.Block.insns - 1 do
          let r = Ir.Insn.def blk.Ir.Block.insns.(idx) in
          if r >= 0 then last_def.(r) <- idx
        done;
        (* the mega-write modelling an included callee is the last write of
           every register, but the compiler cannot mark forward bits inside
           a separately compiled callee: that site is never forwardable *)
        let included = included_call ~included_calls b blk in
        let base = blk_off.(b) * nregs in
        for reg = 0 to nregs - 1 do
          let later = Regset.mem reg !reach in
          if later || Regset.mem reg writes.(b) then
            Bytes.set rw (base + reg) '\001';
          if (not (included || later)) && last_def.(reg) >= 0 then
            fwd.(base + reg) <- last_def.(reg)
        done)
      task.Task.blocks;
    { needed_b; blk_off; fwd; rw }
  in
  { infos = Array.map task_info part.Task.tasks }

let needed t ~task ~reg =
  if task < 0 || task >= Array.length t.infos then true
  else Bytes.unsafe_get t.infos.(task).needed_b reg <> '\000'

let may_rewrite t ~task ~blk ~reg =
  if task < 0 || task >= Array.length t.infos then true
  else begin
    let info = t.infos.(task) in
    let o = info.blk_off.(blk) in
    if o < 0 then true
    else Bytes.unsafe_get info.rw ((o * Ir.Reg.count) + reg) <> '\000'
  end

let forwardable t ~task ~blk ~idx ~reg =
  if task < 0 || task >= Array.length t.infos then false
  else begin
    let info = t.infos.(task) in
    let o = info.blk_off.(blk) in
    o >= 0 && info.fwd.((o * Ir.Reg.count) + reg) = idx
  end
