module Iset = Set.Make (Int)

type t = {
  entry : Ir.Block.label;
  blocks : Iset.t;
  targets : Ir.Block.label list;
  calls_out : string list;
  has_ret : bool;
}

type partition = {
  fname : string;
  tasks : t array;
  task_of_entry : int array;
  included_calls : bool array;
}

let num_hw_targets t = List.length t.targets + List.length t.calls_out

let task_of p entry =
  let i = p.task_of_entry.(entry) in
  if i = -1 then None else Some p.tasks.(i)

(* Build the task record for a block set: compute exits, out-calls, rets. *)
let of_blocks f ~included_calls ~entry blocks =
  let targets = ref Iset.empty in
  let calls_out = ref [] in
  let has_ret = ref false in
  Iset.iter
    (fun b ->
      let blk = Ir.Func.block f b in
      match blk.Ir.Block.term with
      | Ir.Block.Call (callee, _) when not included_calls.(b) ->
        (* the continuation is reached through the callee's return and is a
           new task; the callee entry is this task's (inter-function)
           target *)
        calls_out := callee :: !calls_out
      | Ir.Block.Ret | Ir.Block.Halt -> has_ret := true
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
        ->
        List.iter
          (fun s ->
            if s = entry || not (Iset.mem s blocks) then
              targets := Iset.add s !targets)
          (Ir.Block.successors blk))
    blocks;
  {
    entry;
    blocks;
    targets = Iset.elements !targets;
    calls_out = List.sort_uniq compare !calls_out;
    has_ret = !has_ret;
  }

(* Continuation blocks of non-included calls: they become task entries via
   the return path even though they are nobody's target. *)
let forced_entries f ~included_calls blocks =
  Iset.fold
    (fun b acc ->
      match (Ir.Func.block f b).Ir.Block.term with
      | Ir.Block.Call (_, cont) when not included_calls.(b) -> cont :: acc
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
      | Ir.Block.Ret | Ir.Block.Halt -> acc)
    blocks []

let intra_successors f ~included_calls ~entry blocks b =
  let blk = Ir.Func.block f b in
  match blk.Ir.Block.term with
  | Ir.Block.Call (_, _) when not included_calls.(b) -> []
  | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
  | Ir.Block.Ret | Ir.Block.Halt ->
    List.filter
      (fun s -> s <> entry && Iset.mem s blocks)
      (Ir.Block.successors blk)

let validate f p =
  let result = ref (Ok ()) in
  let fail fmt =
    Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt
  in
  let n = Ir.Func.num_blocks f in
  if Array.length p.task_of_entry <> n then
    fail "%s: task_of_entry has wrong length" p.fname;
  if p.task_of_entry.(Ir.Func.entry) = -1 then
    fail "%s: function entry is not a task entry" p.fname;
  Array.iteri
    (fun i t ->
      if p.task_of_entry.(t.entry) <> i then
        fail "%s: task %d entry L%d not mapped back" p.fname i t.entry;
      if not (Iset.mem t.entry t.blocks) then
        fail "%s: task %d does not contain its entry" p.fname i;
      (* connectivity *)
      let seen = ref (Iset.singleton t.entry) in
      let rec visit b =
        List.iter
          (fun s ->
            if not (Iset.mem s !seen) then begin
              seen := Iset.add s !seen;
              visit s
            end)
          (intra_successors f ~included_calls:p.included_calls ~entry:t.entry
             t.blocks b)
      in
      visit t.entry;
      if not (Iset.equal !seen t.blocks) then
        fail "%s: task %d (entry L%d) is not connected from its entry" p.fname
          i t.entry;
      (* recomputed exits match *)
      let fresh =
        of_blocks f ~included_calls:p.included_calls ~entry:t.entry t.blocks
      in
      if fresh.targets <> t.targets then
        fail "%s: task %d has stale targets" p.fname i;
      (* closure: every target and forced entry is a task entry *)
      List.iter
        (fun tgt ->
          if p.task_of_entry.(tgt) = -1 then
            fail "%s: task %d targets L%d which is no task entry" p.fname i tgt)
        t.targets;
      List.iter
        (fun cont ->
          if p.task_of_entry.(cont) = -1 then
            fail "%s: call continuation L%d is no task entry" p.fname cont)
        (forced_entries f ~included_calls:p.included_calls t.blocks))
    p.tasks;
  !result

let pp ppf p =
  Format.fprintf ppf "@[<v>partition of %s (%d tasks)" p.fname
    (Array.length p.tasks);
  Array.iteri
    (fun i t ->
      Format.fprintf ppf "@,task %d: entry L%d blocks {%s} targets [%s]%s%s" i
        t.entry
        (String.concat ","
           (List.map (fun b -> string_of_int b) (Iset.elements t.blocks)))
        (String.concat "," (List.map string_of_int t.targets))
        (match t.calls_out with
        | [] -> ""
        | cs -> " calls:" ^ String.concat "," cs)
        (if t.has_ret then " ret" else ""))
    p.tasks;
  Format.fprintf ppf "@]"
