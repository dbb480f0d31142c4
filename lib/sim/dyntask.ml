(* The task walk (see dyntask.mli).  The cursor holds the current
   instance's fields in mutable ints; [next] runs the per-instance loop
   from the event after the current instance's last, keeping its state in
   local variables (no closure captures them), and reads callee fids from
   the program's table, built once per [program].  A walk allocates its
   cursor and nothing per instance or event. *)

type succ_kind =
  | Fallthrough of Ir.Block.label
  | Calls of int
  | Returns
  | Program_end

type instance = {
  fid : int;
  task : int;
  first : int;
  last : int;
  size : int;
  ct : int;
  kind : succ_kind;
}

type succ = To_block | To_callee | To_caller | To_end

exception Not_closed of string

type program = {
  parts : Core.Task.partition array;
  (* the callee fid of every call block; -1 for other blocks and for
     callees the trace does not name *)
  callee : int array array;
}

let program (trace : Interp.Trace.t) ~parts =
  let fid_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i name -> Hashtbl.replace fid_of_name name i)
    trace.Interp.Trace.fnames;
  let callee =
    Array.map
      (fun (f : Ir.Func.t) ->
        Array.map
          (fun (b : Ir.Block.t) ->
            match b.Ir.Block.term with
            | Ir.Block.Call (name, _) ->
              Option.value (Hashtbl.find_opt fid_of_name name) ~default:(-1)
            | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
            | Ir.Block.Ret | Ir.Block.Halt -> -1)
          f.Ir.Func.blocks)
      trace.Interp.Trace.funcs
  in
  { parts; callee }

type t = {
  prog : program;
  trace : Interp.Trace.t;
  mutable c_index : int;
  mutable c_first : int;
  mutable c_last : int;  (* -1 before the first instance *)
  mutable c_fid : int;
  mutable c_task : int;
  mutable c_size : int;
  mutable c_ct : int;
  mutable c_succ : succ;
  mutable c_arg : int;
}

let walk prog trace =
  { prog; trace; c_index = -1; c_first = 0; c_last = -1; c_fid = 0;
    c_task = 0; c_size = 0; c_ct = 0; c_succ = To_end; c_arg = 0 }

let is_ct = function
  | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Call _ | Ir.Block.Ret -> true
  | Ir.Block.Jump _ | Ir.Block.Halt -> false

let next w =
  let trace = w.trace in
  let n = Interp.Trace.num_events trace in
  let first = w.c_last + 1 in
  if first >= n then false
  else begin
    let fid0 = Interp.Trace.get_fid trace first in
    let blk0 = Interp.Trace.get_blk trace first in
    let part = w.prog.parts.(fid0) in
    let task_idx = part.Core.Task.task_of_entry.(blk0) in
    if task_idx = -1 then
      raise
        (Not_closed
           (Printf.sprintf "event %d: block %s/L%d is not a task entry" first
              trace.Interp.Trace.fnames.(fid0)
              blk0));
    let task = part.Core.Task.tasks.(task_idx) in
    let blocks = task.Core.Task.blocks in
    let entry = task.Core.Task.entry in
    let size = ref 0 in
    let ct = ref 0 in
    let succ = ref To_end in
    let arg = ref 0 in
    let j = ref first in
    let depth = ref 0 in
    let go = ref true in
    (* every stop that does not set [succ] ends the program *)
    while !go do
      let ev_fid = Interp.Trace.get_fid trace !j in
      let ev_blk = Interp.Trace.get_blk trace !j in
      let blk = Interp.Trace.block_at trace !j in
      let has_next = !j + 1 < n in
      size := !size + Interp.Trace.size_at trace !j;
      if is_ct blk.Ir.Block.term then incr ct;
      match blk.Ir.Block.term with
      | Ir.Block.Call (name, _) ->
        if !depth > 0 || part.Core.Task.included_calls.(ev_blk) then begin
          if has_next then begin
            incr j;
            incr depth
          end
          else go := false
        end
        else begin
          let c = w.prog.callee.(ev_fid).(ev_blk) in
          if c < 0 then
            raise (Not_closed (Printf.sprintf "unknown callee %s" name));
          succ := To_callee;
          arg := c;
          go := false
        end
      | Ir.Block.Ret ->
        if !depth > 1 then begin
          if has_next then begin
            incr j;
            decr depth
          end
          else go := false
        end
        else if !depth = 1 then begin
          (* returning from an included callee: control resumes at the call
             continuation, which may or may not be in the task *)
          if not has_next then go := false
          else begin
            let next_fid = Interp.Trace.get_fid trace (!j + 1) in
            let next_blk = Interp.Trace.get_blk trace (!j + 1) in
            if
              next_fid = fid0
              && Core.Task.Iset.mem next_blk blocks
              && next_blk <> entry
            then begin
              incr j;
              depth := 0
            end
            else begin
              succ := To_block;
              arg := next_blk;
              go := false
            end
          end
        end
        else begin
          if has_next then succ := To_caller;
          go := false
        end
      | Ir.Block.Halt -> go := false
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ ->
        if !depth > 0 then begin
          if has_next then incr j else go := false
        end
        else if not has_next then go := false
        else begin
          let next_fid = Interp.Trace.get_fid trace (!j + 1) in
          let next_blk = Interp.Trace.get_blk trace (!j + 1) in
          if
            next_fid = ev_fid
            && Core.Task.Iset.mem next_blk blocks
            && next_blk <> entry
          then incr j
          else begin
            succ := To_block;
            arg := next_blk;
            go := false
          end
        end
    done;
    w.c_index <- w.c_index + 1;
    w.c_first <- first;
    w.c_last <- !j;
    w.c_fid <- fid0;
    w.c_task <- task_idx;
    w.c_size <- !size;
    w.c_ct <- !ct;
    w.c_succ <- !succ;
    w.c_arg <- !arg;
    true
  end

let index w = w.c_index
let fid w = w.c_fid
let task w = w.c_task
let first w = w.c_first
let last w = w.c_last
let size w = w.c_size
let ct w = w.c_ct
let succ w = w.c_succ
let succ_arg w = w.c_arg

let get w =
  {
    fid = w.c_fid;
    task = w.c_task;
    first = w.c_first;
    last = w.c_last;
    size = w.c_size;
    ct = w.c_ct;
    kind =
      (match w.c_succ with
      | To_block -> Fallthrough w.c_arg
      | To_callee -> Calls w.c_arg
      | To_caller -> Returns
      | To_end -> Program_end);
  }

let walk_of trace ~parts = walk (program trace ~parts) trace

let instances trace ~parts =
  let w = walk_of trace ~parts in
  let acc = ref [] in
  while next w do
    acc := get w :: !acc
  done;
  Array.of_list (List.rev !acc)

let count trace ~parts =
  let w = walk_of trace ~parts in
  while next w do
    ()
  done;
  index w + 1

let check_instances trace ~parts =
  let n = Interp.Trace.num_events trace in
  let result = ref (Ok ()) in
  let fail fmt =
    Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt
  in
  let expected = ref 0 in
  let total_size = ref 0 in
  let w = walk_of trace ~parts in
  while next w do
    if first w <> !expected then
      fail "instance starts at %d, expected %d" (first w) !expected;
    if last w < first w then fail "negative instance";
    expected := last w + 1;
    total_size := !total_size + size w
  done;
  if !expected <> n then fail "instances cover %d of %d events" !expected n;
  if !total_size <> trace.Interp.Trace.dyn_insns then
    fail "instance sizes sum to %d, trace has %d" !total_size
      trace.Interp.Trace.dyn_insns;
  !result
