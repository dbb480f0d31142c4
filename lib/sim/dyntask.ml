(* The task chop (see dyntask.mli).  Instances live in three int arrays:
   [starts] holds each instance's first event and, after the last
   instance, the trace's event count, so instance k's last event is
   [starts.(k + 1) - 1]; [ids] packs fid, task, successor and argument;
   [works] packs size and control transfers.  Each field is range-checked
   as it is packed, so a value that does not fit raises rather than
   wraps.  The chop loop keeps its state in local variables (no closure
   captures them) and reads callee fids from a table built once per
   chop, so it allocates only the arrays' growth. *)

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

type t = {
  starts : int array;  (* count + 1 entries *)
  ids : int array;  (* fid lsl 42 | task lsl 22 | succ lsl 20 | arg *)
  works : int array;  (* ct lsl 31 | size *)
}

exception Not_closed of string

let field_bits = 20
let field_max = (1 lsl field_bits) - 1
let succ_shift = field_bits
let task_shift = succ_shift + 2
let fid_shift = task_shift + field_bits
let size_bits = 31
let size_max = (1 lsl size_bits) - 1

(* the [succ] codes, in constructor order *)
let to_block = 0
let to_callee = 1
let to_caller = 2
let to_end = 3

let check_fits what v max =
  if v < 0 || v > max then
    invalid_arg
      (Printf.sprintf "Dyntask.chop: %s %d does not fit its packed field"
         what v)

let is_ct = function
  | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Call _ | Ir.Block.Ret -> true
  | Ir.Block.Jump _ | Ir.Block.Halt -> false

let grow a len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let chop (trace : Interp.Trace.t) ~(parts : Core.Task.partition array) =
  let n = Interp.Trace.num_events trace in
  let fid_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i name -> Hashtbl.replace fid_of_name name i)
    trace.Interp.Trace.fnames;
  (* the callee fid of every call block; -1 for other blocks and for
     callees the trace does not name *)
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
  let cap = ref 256 in
  let starts = ref (Array.make (!cap + 1) 0) in
  let ids = ref (Array.make !cap 0) in
  let works = ref (Array.make !cap 0) in
  let count = ref 0 in
  let i = ref 0 in
  while !i < n do
    let first = !i in
    let fid0 = Interp.Trace.get_fid trace first in
    let blk0 = Interp.Trace.get_blk trace first in
    let part = parts.(fid0) in
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
    let succ = ref to_end in
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
          let c = callee.(ev_fid).(ev_blk) in
          if c < 0 then
            raise (Not_closed (Printf.sprintf "unknown callee %s" name));
          succ := to_callee;
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
              succ := to_block;
              arg := next_blk;
              go := false
            end
          end
        end
        else begin
          if has_next then succ := to_caller;
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
            succ := to_block;
            arg := next_blk;
            go := false
          end
        end
    done;
    check_fits "fid" fid0 field_max;
    check_fits "task" task_idx field_max;
    check_fits "successor argument" !arg field_max;
    check_fits "size" !size size_max;
    check_fits "control-transfer count" !ct size_max;
    if !count = !cap then begin
      cap := 2 * !cap;
      starts := grow !starts (!cap + 1);
      ids := grow !ids !cap;
      works := grow !works !cap
    end;
    !starts.(!count) <- first;
    !ids.(!count) <-
      (fid0 lsl fid_shift) lor (task_idx lsl task_shift)
      lor (!succ lsl succ_shift) lor !arg;
    !works.(!count) <- (!ct lsl size_bits) lor !size;
    incr count;
    i := !j + 1
  done;
  !starts.(!count) <- !i;
  {
    starts = Array.sub !starts 0 (!count + 1);
    ids = Array.sub !ids 0 !count;
    works = Array.sub !works 0 !count;
  }

let count t = Array.length t.ids
let first t k = t.starts.(k)
let last t k = t.starts.(k + 1) - 1
let fid t k = t.ids.(k) lsr fid_shift
let task t k = (t.ids.(k) lsr task_shift) land field_max
let succ_arg t k = t.ids.(k) land field_max
let size t k = t.works.(k) land size_max
let ct t k = t.works.(k) lsr size_bits

let succ t k =
  match (t.ids.(k) lsr succ_shift) land 3 with
  | 0 -> To_block
  | 1 -> To_callee
  | 2 -> To_caller
  | _ -> To_end

let get t k =
  {
    fid = fid t k;
    task = task t k;
    first = first t k;
    last = last t k;
    size = size t k;
    ct = ct t k;
    kind =
      (match succ t k with
      | To_block -> Fallthrough (succ_arg t k)
      | To_callee -> Calls (succ_arg t k)
      | To_caller -> Returns
      | To_end -> Program_end);
  }

let check_instances trace t =
  let n = Interp.Trace.num_events trace in
  let result = ref (Ok ()) in
  let fail fmt =
    Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt
  in
  let expected = ref 0 in
  let total_size = ref 0 in
  for k = 0 to count t - 1 do
    if first t k <> !expected then
      fail "instance starts at %d, expected %d" (first t k) !expected;
    if last t k < first t k then fail "negative instance";
    expected := last t k + 1;
    total_size := !total_size + size t k
  done;
  if !expected <> n then fail "instances cover %d of %d events" !expected n;
  if !total_size <> trace.Interp.Trace.dyn_insns then
    fail "instance sizes sum to %d, trace has %d" !total_size
      trace.Interp.Trace.dyn_insns;
  !result
