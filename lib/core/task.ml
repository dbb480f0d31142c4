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

(* --- the exit walk ----------------------------------------------------------- *)

(* [s] is an exit of the set [blocks] entered at [entry] when it leaves
   the set or re-enters the entry (a loop task). *)
let exit_to ~entry blocks ~target st s =
  if s = entry || not (Iset.mem s blocks) then target st s

(* What block [b] of the set adds to its exits: [target st s] for each
   exit the terminator names (as often as it names it), [call st b
   callee] for a non-included call — the continuation is reached through
   the callee's return and is a new task, the callee entry this task's
   (inter-function) target — and [ret st] for a return or halt.  The
   state is passed through, so a walker whose state and callbacks are
   made ahead allocates nothing here. *)
let block_exits f ~included_calls ~entry blocks ~target ~call ~ret st b =
  match (Ir.Func.block f b).Ir.Block.term with
  | Ir.Block.Call (callee, _) when not included_calls.(b) -> call st b callee
  | Ir.Block.Ret | Ir.Block.Halt -> ret st
  | Ir.Block.Jump s | Ir.Block.Call (_, s) ->
    exit_to ~entry blocks ~target st s
  | Ir.Block.Br (_, s1, s2) ->
    exit_to ~entry blocks ~target st s1;
    exit_to ~entry blocks ~target st s2
  | Ir.Block.Switch (_, ss, default) ->
    for k = 0 to Array.length ss - 1 do
      exit_to ~entry blocks ~target st ss.(k)
    done;
    exit_to ~entry blocks ~target st default

(* What the walk gathers for [of_blocks]' record *)
type exits = {
  mutable x_targets : Iset.t;
  mutable x_calls : string list;
  mutable x_ret : bool;
}

let of_blocks f ~included_calls ~entry blocks =
  let x = { x_targets = Iset.empty; x_calls = []; x_ret = false } in
  Iset.iter
    (block_exits f ~included_calls ~entry blocks
       ~target:(fun x s -> x.x_targets <- Iset.add s x.x_targets)
       ~call:(fun x _ callee -> x.x_calls <- callee :: x.x_calls)
       ~ret:(fun x -> x.x_ret <- true)
       x)
    blocks;
  {
    entry;
    blocks;
    targets = Iset.elements x.x_targets;
    calls_out = List.sort_uniq compare x.x_calls;
    has_ret = x.x_ret;
  }

(* The walk's count of distinct exits: [seen] holds one stamp slot per
   block label, then one per distinct callee of the function.  A count
   takes a fresh stamp, so the slots are never cleared; the walk's
   per-block step is made once and reads the set and entry the count
   stores in the marks. *)
type marks = {
  m_f : Ir.Func.t;
  m_included : bool array;
  callee : int array;  (* per call block: its callee's slot *)
  seen : int array;
  mutable stamp : int;
  mutable count : int;
  mutable m_entry : Ir.Block.label;
  mutable m_blocks : Iset.t;
  step : Ir.Block.label -> unit;
}

let mark m slot =
  if m.seen.(slot) <> m.stamp then begin
    m.seen.(slot) <- m.stamp;
    m.count <- m.count + 1
  end

let mark_call m b _ = mark m m.callee.(b)
let no_ret (_ : marks) = ()

let marks f ~included_calls =
  let nb = Ir.Func.num_blocks f in
  let slots = Hashtbl.create 8 in
  let callee =
    Array.map
      (fun (blk : Ir.Block.t) ->
        match blk.Ir.Block.term with
        | Ir.Block.Call (g, _) -> (
          match Hashtbl.find_opt slots g with
          | Some k -> k
          | None ->
            let k = nb + Hashtbl.length slots in
            Hashtbl.replace slots g k;
            k)
        | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
        | Ir.Block.Halt -> -1)
      f.Ir.Func.blocks
  in
  let seen = Array.make (nb + Hashtbl.length slots) 0 in
  let rec m =
    {
      m_f = f;
      m_included = included_calls;
      callee;
      seen;
      stamp = 0;
      count = 0;
      m_entry = Ir.Func.entry;
      m_blocks = Iset.empty;
      step =
        (fun b ->
          block_exits m.m_f ~included_calls:m.m_included ~entry:m.m_entry
            m.m_blocks ~target:mark ~call:mark_call ~ret:no_ret m b);
    }
  in
  m

let count_hw_targets m ~entry blocks =
  m.stamp <- m.stamp + 1;
  m.count <- 0;
  m.m_entry <- entry;
  m.m_blocks <- blocks;
  Iset.iter m.step blocks;
  m.m_blocks <- Iset.empty;
  m.count

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

let iter_intra_successors f ~included_calls ~entry blocks visit =
  let step s = if s <> entry && Iset.mem s blocks then visit s in
  fun b ->
    let blk = Ir.Func.block f b in
    match blk.Ir.Block.term with
    | Ir.Block.Call (_, _) when not included_calls.(b) -> ()
    | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
    | Ir.Block.Ret | Ir.Block.Halt -> Ir.Block.iter_succs step blk

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
