module Diag = Diag
module Iset = Core.Task.Iset
module Smap = Ir.Prog.Smap

(* Register sets as two-int bit words, registers 0-31 in [lo] and 32-63 in
   [hi], one set per index of two flat arrays (by block, task or edge
   slot).  The audits' own representation: Analysis.Dataflow.Regset
   belongs to the code they audit. *)
module Words = struct
  type t = { lo : int array; hi : int array }

  let () =
    if Ir.Reg.count > 64 then
      failwith
        (Printf.sprintf "Lint.Words: %d registers do not fit in two words"
           Ir.Reg.count)

  let make n = { lo = Array.make n 0; hi = Array.make n 0 }
  let all_lo = (1 lsl Int.min Ir.Reg.count 32) - 1
  let all_hi = (1 lsl Int.max 0 (Ir.Reg.count - 32)) - 1

  let mem w i r =
    (if r < 32 then w.lo.(i) lsr r else w.hi.(i) lsr (r - 32)) land 1 <> 0

  let set w i lo hi =
    w.lo.(i) <- lo;
    w.hi.(i) <- hi

  let add w i r =
    if r < 32 then w.lo.(i) <- w.lo.(i) lor (1 lsl r)
    else w.hi.(i) <- w.hi.(i) lor (1 lsl (r - 32))

  let remove w i r =
    if r < 32 then w.lo.(i) <- w.lo.(i) land lnot (1 lsl r)
    else w.hi.(i) <- w.hi.(i) land lnot (1 lsl (r - 32))

  let fill_all w i = set w i all_lo all_hi

  (* [w.(i) <- w.(i) ∪ v.(j)] *)
  let union_into w i v j =
    set w i (w.lo.(i) lor v.lo.(j)) (w.hi.(i) lor v.hi.(j))
  let equal w i v j = w.lo.(i) = v.lo.(j) && w.hi.(i) = v.hi.(j)
end

let reachable_blocks f =
  let n = Ir.Func.num_blocks f in
  let seen = Array.make n false in
  let rec visit l =
    if not seen.(l) then begin
      seen.(l) <- true;
      Ir.Block.iter_succs visit (Ir.Func.block f l)
    end
  in
  if n > 0 then visit Ir.Func.entry;
  seen

(* --- IR well-formedness --------------------------------------------------- *)

(* Checks whose failure makes block labels / successor edges unusable for
   the later families; their absence is what "structurally sound" means. *)
let check_func_structure (f : Ir.Func.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let n = Ir.Func.num_blocks f in
  if n = 0 then
    add
      (Diag.error ~rule:"ir/empty-func" (Diag.in_func f.Ir.Func.name)
         "function has no blocks");
  Array.iteri
    (fun i (b : Ir.Block.t) ->
      if b.Ir.Block.label <> i then
        add
          (Diag.error ~rule:"ir/block-label"
             (Diag.in_func ~block:i f.Ir.Func.name)
             "block at index %d carries label %d" i b.Ir.Block.label);
      Ir.Block.iter_succs
        (fun s ->
          if s < 0 || s >= n then
            add
              (Diag.error ~rule:"ir/label-range"
                 (Diag.in_func ~block:i f.Ir.Func.name)
                 "terminator targets out-of-range label L%d (%d blocks)" s n))
        b;
      let at = ref 0 in
      let invalid what r =
        if not (Ir.Reg.is_valid r) then
          add
            (Diag.error ~rule:"ir/invalid-reg"
               (Diag.in_func ~block:i ~insn:!at f.Ir.Func.name)
               "%s invalid register %d" what r)
      in
      let operand = invalid "instruction touches" in
      Array.iteri
        (fun idx insn ->
          at := idx;
          Ir.Insn.iter_regs operand insn)
        b.Ir.Block.insns;
      match b.Ir.Block.term with
      | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) ->
        at := Array.length b.Ir.Block.insns;
        invalid "terminator reads" c
      | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> ())
    f.Ir.Func.blocks;
  !ds

(* Forward must-defined analysis: warn about register reads no definition
   is guaranteed to precede on every path from the entry.  Registers are
   architecturally global, so for any function a caller may have set
   anything — only [main], which nobody calls, starts from the loader state
   (zero and the stack pointer).  Reads of never-written registers observe
   the loader's initial zero: legal, but almost always a workload bug, hence
   a warning rather than an error. *)
let check_use_before_def ~is_main (f : Ir.Func.t) =
  if not is_main then []
  else begin
    let n = Ir.Func.num_blocks f in
    let reach = reachable_blocks f in
    let preds = Ir.Func.predecessors f in
    (* per block, once some path from the entry has reached its end
       ([has_out]): the registers defined on every such path *)
    let out = Words.make n and has_out = Array.make n false in
    let cur = Words.make 1 in
    let define r = Words.add cur 0 r in
    let meet reached p =
      if not has_out.(p) then reached
      else begin
        if reached then
          Words.set cur 0
            (cur.Words.lo.(0) land out.Words.lo.(p))
            (cur.Words.hi.(0) land out.Words.hi.(p))
        else Words.set cur 0 out.Words.lo.(p) out.Words.hi.(p);
        true
      end
    in
    (* [cur] := what is defined at [l]'s entry on every path; false while
       no path has reached it *)
    let defined_in l =
      if l = Ir.Func.entry then begin
        Words.set cur 0 0 0;
        define Ir.Reg.zero;
        define Ir.Reg.sp;
        true
      end
      else List.fold_left meet false preds.(l)
    in
    let define_insn insn =
      match Ir.Insn.def insn with -1 -> () | r -> define r
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for l = 0 to n - 1 do
        if reach.(l) && defined_in l then begin
          let b = Ir.Func.block f l in
          Array.iter define_insn b.Ir.Block.insns;
          (* a call writes the return-value register; no other terminator
             writes *)
          (match b.Ir.Block.term with
          | Ir.Block.Call (_, _) -> define Ir.Reg.rv
          | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
          | Ir.Block.Halt -> ());
          if not (has_out.(l) && Words.equal cur 0 out l) then begin
            has_out.(l) <- true;
            Words.set out l cur.Words.lo.(0) cur.Words.hi.(0);
            changed := true
          end
        end
      done
    done;
    let ds = ref [] in
    let at_block = ref 0 and at_insn = ref 0 in
    let use r =
      if r <> Ir.Reg.zero && not (Words.mem cur 0 r) then
        ds :=
          Diag.warning ~rule:"ir/use-before-def"
            (Diag.in_func ~block:!at_block ~insn:!at_insn f.Ir.Func.name)
            "%s is read but no definition reaches this use on every path \
             from the entry"
            (Ir.Reg.name r)
          :: !ds
    in
    for l = 0 to n - 1 do
      if reach.(l) && defined_in l then begin
        let b = Ir.Func.block f l in
        at_block := l;
        Array.iteri
          (fun idx insn ->
            at_insn := idx;
            Ir.Insn.iter_uses use insn;
            define_insn insn)
          b.Ir.Block.insns;
        (* only *genuine* terminator reads count: a call's conservative
           all-args use set (as liveness models it) would flag every
           caller that passes fewer than max_args arguments *)
        match b.Ir.Block.term with
        | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) ->
          at_insn := Array.length b.Ir.Block.insns;
          use c
        | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt
          -> ()
      end
    done;
    !ds
  end

let check_func_semantics prog ~is_main (f : Ir.Func.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let reach = reachable_blocks f in
  Array.iteri
    (fun l (b : Ir.Block.t) ->
      (match b.Ir.Block.term with
      | Ir.Block.Call (callee, _) ->
        if not (Ir.Prog.has_func prog callee) then
          add
            (Diag.error ~rule:"ir/call-target"
               (Diag.in_func ~block:l f.Ir.Func.name)
               "call targets unknown function %S" callee)
      | Ir.Block.Switch (_, targets, _) ->
        if Array.length targets = 0 then
          add
            (Diag.warning ~rule:"ir/empty-switch"
               (Diag.in_func ~block:l f.Ir.Func.name)
               "switch has no indexed targets (degenerate jump to default)")
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Ret | Ir.Block.Halt -> ());
      if not reach.(l) then
        add
          (Diag.warning ~rule:"ir/unreachable"
             (Diag.in_func ~block:l f.Ir.Func.name)
             "block is unreachable from the function entry"))
    f.Ir.Func.blocks;
  !ds @ check_use_before_def ~is_main f

(* Returns the diagnostics plus the set of structurally sound functions —
   the only ones the partition/regcomm families may index into. *)
let check_prog_sound (prog : Ir.Prog.t) =
  let ds = ref [] in
  if not (Ir.Prog.has_func prog prog.Ir.Prog.main) then
    ds :=
      [
        Diag.error ~rule:"ir/no-main" Diag.program_loc
          "program entry %S is not a defined function" prog.Ir.Prog.main;
      ];
  let sound = Hashtbl.create 16 in
  Smap.iter
    (fun name f ->
      let structural = check_func_structure f in
      Hashtbl.replace sound name (structural = []);
      ds := structural @ !ds;
      if structural = [] then
        ds :=
          check_func_semantics prog ~is_main:(name = prog.Ir.Prog.main) f
          @ !ds)
    prog.Ir.Prog.funcs;
  (!ds, fun name -> try Hashtbl.find sound name with Not_found -> false)

let check_prog prog = List.sort Diag.compare (fst (check_prog_sound prog))

(* --- partition invariants ------------------------------------------------- *)

(* The part/* audit's walk state over one partition: a stamp per block,
   never cleared (each walk takes a fresh stamp), an explicit stack for
   the connectivity walk, and what the exit walk recomputes for the task
   at hand.  Both walks read Ir.Block terminators directly, restating the
   Task model (§2.2) rather than calling it.  [exit_step] is the exit
   walk's per-block step, made once per partition; it reads the task's
   entry and blocks from here. *)
type walk = {
  wf : Ir.Func.t;
  included : bool array;
  task_of_entry : int array;
  stamps : int array;
  mutable stamp : int;
  stack : int array;
  mutable depth : int;
  mutable reached : int;
  mutable entry : Ir.Block.label;
  mutable blocks : Iset.t;
  targets : int array;  (* the exit targets, ascending, in [0, ntargets) *)
  mutable ntargets : int;
  mutable calls : string list;  (* callees of non-included calls *)
  mutable has_ret : bool;
  mutable open_conts : (Ir.Block.label * Ir.Block.label) list;
      (* (call block, continuation) pairs whose continuation is no task's
         entry, by descending block *)
  exit_step : Ir.Block.label -> unit;
}

(* [visit w s] for each successor a terminator names, as often as it
   names it *)
let iter_succs w visit (term : Ir.Block.terminator) =
  match term with
  | Ir.Block.Jump s | Ir.Block.Call (_, s) -> visit w s
  | Ir.Block.Br (_, s1, s2) ->
    visit w s1;
    visit w s2
  | Ir.Block.Switch (_, ss, default) ->
    for k = 0 to Array.length ss - 1 do
      visit w ss.(k)
    done;
    visit w default
  | Ir.Block.Ret | Ir.Block.Halt -> ()

(* Intra-task successors: reaching the entry again starts a new task
   instance, and a non-included call transfers to the callee's tasks, so
   neither edge continues the current task.  Each one not yet reached is
   stamped and pushed. *)
let push_succ w s =
  if s <> w.entry && Iset.mem s w.blocks && w.stamps.(s) <> w.stamp then begin
    w.stamps.(s) <- w.stamp;
    w.stack.(w.depth) <- s;
    w.depth <- w.depth + 1;
    w.reached <- w.reached + 1
  end

let push_task_succs w b =
  match (Ir.Func.block w.wf b).Ir.Block.term with
  | Ir.Block.Call (_, _) when not w.included.(b) -> ()
  | term -> iter_succs w push_succ term

(* Blocks of the task reachable from its entry inside the task, the
   entry included; they hold the current stamp afterwards. *)
let reach_within w =
  w.stamp <- w.stamp + 1;
  w.stamps.(w.entry) <- w.stamp;
  w.stack.(0) <- w.entry;
  w.depth <- 1;
  w.reached <- 1;
  while w.depth > 0 do
    w.depth <- w.depth - 1;
    push_task_succs w w.stack.(w.depth)
  done;
  w.reached

(* An intra-function target: a successor leaving the task or re-entering
   its entry (loop task), kept once, in ascending order. *)
let exit_target w s =
  if (s = w.entry || not (Iset.mem s w.blocks)) && w.stamps.(s) <> w.stamp
  then begin
    w.stamps.(s) <- w.stamp;
    let k = ref w.ntargets in
    while !k > 0 && w.targets.(!k - 1) > s do
      w.targets.(!k) <- w.targets.(!k - 1);
      decr k
    done;
    w.targets.(!k) <- s;
    w.ntargets <- w.ntargets + 1
  end

let exit_step w b =
  match (Ir.Func.block w.wf b).Ir.Block.term with
  | Ir.Block.Call (callee, cont) when not w.included.(b) ->
    w.calls <- callee :: w.calls;
    if w.task_of_entry.(cont) = -1 then
      w.open_conts <- (b, cont) :: w.open_conts
  | Ir.Block.Ret | Ir.Block.Halt -> w.has_ret <- true
  | term -> iter_succs w exit_target term

(* Independent recomputation of a task's exit metadata: the intra-function
   targets (including the entry itself for loop tasks), callees of
   non-included calls, whether some block returns, and the continuations
   of non-included calls no task enters. *)
let recompute_exits w =
  w.stamp <- w.stamp + 1;
  w.ntargets <- 0;
  w.calls <- [];
  w.has_ret <- false;
  w.open_conts <- [];
  Iset.iter w.exit_step w.blocks

let make_walk f ~included_calls ~task_of_entry =
  let n = Ir.Func.num_blocks f in
  let rec w =
    {
      wf = f;
      included = included_calls;
      task_of_entry;
      stamps = Array.make n 0;
      stamp = 0;
      stack = Array.make n 0;
      depth = 0;
      reached = 0;
      entry = Ir.Func.entry;
      blocks = Iset.empty;
      targets = Array.make n 0;
      ntargets = 0;
      calls = [];
      has_ret = false;
      open_conts = [];
      exit_step = (fun b -> exit_step w b);
    }
  in
  w

(* the recomputed targets equal [labels] *)
let same_targets w labels =
  let rec go i = function
    | [] -> i = w.ntargets
    | l :: rest -> i < w.ntargets && w.targets.(i) = l && go (i + 1) rest
  in
  go 0 labels

let target_list w = List.init w.ntargets (fun i -> w.targets.(i))
let task_loc fname i = Diag.in_func ~task:i fname

let level_rank = function
  | Core.Heuristics.Basic_block -> 0
  | Core.Heuristics.Control_flow -> 1
  | Core.Heuristics.Data_dependence -> 2
  | Core.Heuristics.Task_size -> 3
  | Core.Heuristics.Feedback -> 4

let pp_labels labels =
  String.concat "," (List.map (fun l -> "L" ^ string_of_int l) labels)

let check_partition ?level ?(params = Core.Heuristics.default) (f : Ir.Func.t)
    (p : Core.Task.partition) =
  let fname = p.Core.Task.fname in
  let n = Ir.Func.num_blocks f in
  let ntasks = Array.length p.Core.Task.tasks in
  let fatal = ref [] in
  if Array.length p.Core.Task.task_of_entry <> n then
    fatal :=
      Diag.error ~rule:"part/task-of-entry-length" (Diag.in_func fname)
        "task_of_entry has %d entries for %d blocks"
        (Array.length p.Core.Task.task_of_entry)
        n
      :: !fatal;
  if Array.length p.Core.Task.included_calls <> n then
    fatal :=
      Diag.error ~rule:"part/included-length" (Diag.in_func fname)
        "included_calls has %d entries for %d blocks"
        (Array.length p.Core.Task.included_calls)
        n
      :: !fatal;
  if !fatal = [] then
    Array.iteri
      (fun b i ->
        if i < -1 || i >= ntasks then
          fatal :=
            Diag.error ~rule:"part/task-index-range"
              (Diag.in_func ~block:b fname)
              "task_of_entry maps L%d to task %d (have %d tasks)" b i ntasks
            :: !fatal)
      p.Core.Task.task_of_entry;
  if !fatal <> [] then !fatal
  else begin
    let ds = ref [] in
    let add d = ds := d :: !ds in
    let included_calls = p.Core.Task.included_calls in
    (* metadata arrays *)
    Array.iteri
      (fun b inc ->
        if inc then
          match (Ir.Func.block f b).Ir.Block.term with
          | Ir.Block.Call (_, _) -> ()
          | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
          | Ir.Block.Halt ->
            add
              (Diag.error ~rule:"part/included-noncall"
                 (Diag.in_func ~block:b fname)
                 "included_calls marks L%d, which does not end in a call" b))
      included_calls;
    if p.Core.Task.task_of_entry.(Ir.Func.entry) = -1 then
      add
        (Diag.error ~rule:"part/entry-task"
           (Diag.in_func ~block:Ir.Func.entry fname)
           "the function entry block is not a task entry");
    Array.iteri
      (fun b i ->
        if i >= 0 && p.Core.Task.tasks.(i).Core.Task.entry <> b then
          add
            (Diag.error ~rule:"part/entry-mismatch"
               (Diag.in_func ~task:i ~block:b fname)
               "task_of_entry maps L%d to task %d, whose entry is L%d" b i
               p.Core.Task.tasks.(i).Core.Task.entry))
      p.Core.Task.task_of_entry;
    (* per-task invariants *)
    let w =
      make_walk f ~included_calls ~task_of_entry:p.Core.Task.task_of_entry
    in
    let in_range l = l >= 0 && l < n in
    Array.iteri
      (fun i (t : Core.Task.t) ->
        if not (in_range t.Core.Task.entry && Iset.for_all in_range t.Core.Task.blocks)
        then
          add
            (Diag.error ~rule:"part/block-range" (task_loc fname i)
               "task mentions out-of-range block labels (%d blocks in %s)" n
               fname)
        else begin
          let entry = t.Core.Task.entry in
          let blocks = t.Core.Task.blocks in
          w.entry <- entry;
          w.blocks <- blocks;
          if p.Core.Task.task_of_entry.(entry) <> i then
            add
              (Diag.error ~rule:"part/entry-mismatch" (task_loc fname i)
                 "entry L%d maps back to task %d, not %d" entry
                 p.Core.Task.task_of_entry.(entry) i);
          if not (Iset.mem entry blocks) then
            add
              (Diag.error ~rule:"part/entry-not-member" (task_loc fname i)
                 "task does not contain its own entry L%d" entry)
          else begin
            (* connectivity: every block reachable from the entry without
               re-entering it and without crossing a non-included call *)
            if reach_within w <> Iset.cardinal blocks then
              add
                (Diag.error ~rule:"part/connected" (task_loc fname i)
                   "blocks {%s} are not reachable from entry L%d inside the \
                    task"
                   (pp_labels
                      (Iset.elements
                         (Iset.filter (fun b -> w.stamps.(b) <> w.stamp) blocks)))
                   entry);
            (* independent exit recomputation, diffed field by field *)
            recompute_exits w;
            let calls = List.sort_uniq compare w.calls in
            if not (same_targets w t.Core.Task.targets) then
              add
                (Diag.error ~rule:"part/stale-targets" (task_loc fname i)
                   "stored targets [%s] but the CFG yields [%s]"
                   (pp_labels t.Core.Task.targets)
                   (pp_labels (target_list w)));
            if calls <> t.Core.Task.calls_out then
              add
                (Diag.error ~rule:"part/stale-calls" (task_loc fname i)
                   "stored calls_out [%s] but the CFG yields [%s]"
                   (String.concat "," t.Core.Task.calls_out)
                   (String.concat "," calls));
            if w.has_ret <> t.Core.Task.has_ret then
              add
                (Diag.error ~rule:"part/stale-ret" (task_loc fname i)
                   "stored has_ret %B but the CFG yields %B"
                   t.Core.Task.has_ret w.has_ret);
            (* closure over the true (recomputed) exits *)
            for k = 0 to w.ntargets - 1 do
              let tgt = w.targets.(k) in
              if p.Core.Task.task_of_entry.(tgt) = -1 then
                add
                  (Diag.error ~rule:"part/closure-target" (task_loc fname i)
                     "target L%d is not any task's entry" tgt)
            done;
            List.iter
              (fun (b, cont) ->
                add
                  (Diag.error ~rule:"part/closure-cont"
                     (Diag.in_func ~task:i ~block:b fname)
                     "continuation L%d of the non-included call in L%d is \
                      not any task's entry"
                     cont b))
              w.open_conts;
            (* the hardware tracks at most max_targets next-task targets;
               the heuristics guarantee it from Control_flow up — except for
               a task that is a single unsplittable block (e.g. a wide
               switch), which no selection scheme can shrink further *)
            (match level with
            | Some l when level_rank l >= level_rank Core.Heuristics.Control_flow
              ->
              let hw = w.ntargets + List.length calls in
              if hw > params.Core.Heuristics.max_targets then
                if Iset.cardinal blocks > 1 then
                  add
                    (Diag.error ~rule:"part/hw-targets" (task_loc fname i)
                       "%d hardware targets exceed the prediction bound N=%d"
                       hw params.Core.Heuristics.max_targets)
                else
                  add
                    (Diag.info ~rule:"part/hw-targets" (task_loc fname i)
                       "single-block task has %d hardware targets (bound \
                        N=%d); no selection can split a basic block"
                       hw params.Core.Heuristics.max_targets)
            | Some _ | None -> ())
          end
        end)
      p.Core.Task.tasks;
    (* coverage: the simulator maps every executed block to a task, so every
       reachable block must belong to at least one *)
    w.stamp <- w.stamp + 1;
    let cover b = if in_range b then w.stamps.(b) <- w.stamp in
    Array.iter
      (fun (t : Core.Task.t) -> Iset.iter cover t.Core.Task.blocks)
      p.Core.Task.tasks;
    let reach = reachable_blocks f in
    for b = 0 to n - 1 do
      if reach.(b) && w.stamps.(b) <> w.stamp then
        add
          (Diag.error ~rule:"part/uncovered" (Diag.in_func ~block:b fname)
             "reachable block L%d belongs to no task" b)
    done;
    List.rev !ds
  end

(* --- register-communication audit ----------------------------------------- *)

(* Each block's successors, as an array: its row of the successor table *)
let successors f =
  let t = Ir.Func.succ_table f in
  Array.init (Ir.Func.num_blocks f) (fun l ->
      Array.sub t.Ir.Func.adj t.Ir.Func.first.(l)
        (t.Ir.Func.first.(l + 1) - t.Ir.Func.first.(l)))

(* Each block's successors that may continue a task, as [push_task_succs]
   reads them before its filter on the task: none after a non-included
   call. *)
let task_successors f ~included_calls succs =
  Array.mapi
    (fun b ss ->
      match (Ir.Func.block f b).Ir.Block.term with
      | Ir.Block.Call (_, _) when not included_calls.(b) -> [||]
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
      | Ir.Block.Ret | Ir.Block.Halt -> ss)
    succs

(* Interprocedurally sound liveness, reimplemented as a per-instruction
   backward walk (Regcomm's comes from Analysis.Dataflow's block-summary
   fixpoint; the audit must not).  A callee may read or write any register
   (they are architecturally global), so a call terminator uses everything
   and defines rv; returns assume everything live at the exit.  The
   live-in sets, by block; [succs] is {!successors}. *)
let sound_live_in f succs =
  let n = Ir.Func.num_blocks f in
  let live = Words.make n and set = Words.make 1 in
  let read r = Words.add set 0 r in
  let live_after s = Words.union_into set 0 live s in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let b = Ir.Func.block f l in
      (match b.Ir.Block.term with
      | Ir.Block.Ret | Ir.Block.Halt -> Words.fill_all set 0
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Call _
        -> Words.set set 0 0 0);
      Array.iter live_after succs.(l);
      (* the block backwards from its live-out: the call defines rv but
         reads every register, rv included *)
      (match b.Ir.Block.term with
      | Ir.Block.Call (_, _) -> Words.fill_all set 0
      | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> read c
      | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> ());
      let insns = b.Ir.Block.insns in
      for idx = Array.length insns - 1 downto 0 do
        (match Ir.Insn.def insns.(idx) with
        | -1 -> ()
        | r -> Words.remove set 0 r);
        Ir.Insn.iter_uses read insns.(idx)
      done;
      if not (Words.equal set 0 live l) then begin
        Words.set live l set.Words.lo.(0) set.Words.hi.(0);
        changed := true
      end
    done
  done;
  live

(* Registers each block may write: its instruction defs, and everything
   when it ends in an included call (the callee's effects are unknown). *)
let block_writes f ~included_calls =
  let w = Words.make (Ir.Func.num_blocks f) in
  Array.iteri
    (fun b (blk : Ir.Block.t) ->
      match blk.Ir.Block.term with
      | Ir.Block.Call (_, _) when included_calls.(b) -> Words.fill_all w b
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
      | Ir.Block.Ret | Ir.Block.Halt ->
        Array.iter
          (fun insn ->
            match Ir.Insn.def insn with -1 -> () | r -> Words.add w b r)
          blk.Ir.Block.insns)
    f.Ir.Func.blocks;
  w

let check_regcomm (f : Ir.Func.t) ~live_in (p : Core.Task.partition) =
  let rc = Core.Regcomm.create f ~live_in p in
  let fname = f.Ir.Func.name in
  let included_calls = p.Core.Task.included_calls in
  let n = Ir.Func.num_blocks f in
  let cfg = successors f in
  (* the audit's own liveness, not the table Regcomm was given *)
  let live = sound_live_in f cfg in
  let writes = block_writes f ~included_calls in
  let succs = task_successors f ~included_calls cfg in
  (* per block: the index of the task at hand when it holds the block
     (tasks are walked in order), and the registers written by the block
     or by any block strictly reachable from it inside that task *)
  let holder = Array.make n (-1) and may_write = Words.make n in
  (* one task's dead-register facts; registers some block strictly after
     the block at hand may still write; one block's last defs *)
  let needed = Words.make 1 and after = Words.make 1 in
  let last = Array.make Ir.Reg.count (-1) in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let write_after i entry b =
    Words.set after 0 0 0;
    let ss = succs.(b) in
    for k = 0 to Array.length ss - 1 do
      let s = ss.(k) in
      if s <> entry && holder.(s) = i then Words.union_into after 0 may_write s
    done
  in
  let site_check i b idx r mine =
    let theirs = Core.Regcomm.forwardable rc ~task:i ~blk:b ~idx ~reg:r in
    if theirs <> mine then
      add
        (Diag.error ~rule:"regcomm/forwardable-diff"
           (Diag.in_func ~task:i ~block:b ~insn:idx fname)
           "forwardable(%s): Regcomm says %B, the audit says %B"
           (Ir.Reg.name r) theirs mine)
  in
  Array.iteri
    (fun i (t : Core.Task.t) ->
      let entry = t.Core.Task.entry in
      let blocks = t.Core.Task.blocks in
      Iset.iter
        (fun b ->
          holder.(b) <- i;
          Words.set may_write b writes.Words.lo.(b) writes.Words.hi.(b))
        blocks;
      (* may-write: a reverse fixpoint over the task subgraph *)
      let changed = ref true in
      while !changed do
        changed := false;
        Iset.iter
          (fun b ->
            write_after i entry b;
            let lo = may_write.Words.lo.(b) lor after.Words.lo.(0)
            and hi = may_write.Words.hi.(b) lor after.Words.hi.(0) in
            if lo <> may_write.Words.lo.(b) || hi <> may_write.Words.hi.(b)
            then begin
              Words.set may_write b lo hi;
              changed := true
            end)
          blocks
      done;
      (* dead-register facts: what must this task's exit send on the ring? *)
      if t.Core.Task.has_ret || t.Core.Task.calls_out <> [] then
        Words.fill_all needed 0
      else begin
        Words.set needed 0 0 0;
        List.iter
          (fun tgt -> Words.union_into needed 0 live tgt)
          t.Core.Task.targets
      end;
      for r = 0 to Ir.Reg.count - 1 do
        let theirs = Core.Regcomm.needed rc ~task:i ~reg:r in
        let mine = Words.mem needed 0 r in
        if theirs <> mine then
          add
            (Diag.error ~rule:"regcomm/needed-diff" (Diag.in_func ~task:i fname)
               "needed(%s): Regcomm says %B, the audit says %B" (Ir.Reg.name r)
               theirs mine)
      done;
      Iset.iter
        (fun b ->
          write_after i entry b;
          (* release facts: can r still be written at or after b? *)
          for r = 0 to Ir.Reg.count - 1 do
            let theirs = Core.Regcomm.may_rewrite rc ~task:i ~blk:b ~reg:r in
            let mine = Words.mem writes b r || Words.mem after 0 r in
            if theirs <> mine then
              add
                (Diag.error ~rule:"regcomm/rewrite-diff"
                   (Diag.in_func ~task:i ~block:b fname)
                   "may_rewrite(%s): Regcomm says %B, the audit says %B"
                   (Ir.Reg.name r) theirs mine)
          done;
          (* forward facts: a write site is forwardable iff it is the last
             write of the register in its block and no later task block can
             write it.  The mega-write modelling an included callee is
             never forwardable — the compiler cannot mark forward bits
             inside a separately compiled callee. *)
          let blk = Ir.Func.block f b in
          let insns = blk.Ir.Block.insns in
          let nins = Array.length insns in
          Array.fill last 0 Ir.Reg.count (-1);
          for idx = 0 to nins - 1 do
            match Ir.Insn.def insns.(idx) with
            | -1 -> ()
            | r -> last.(r) <- idx
          done;
          let included_call =
            match blk.Ir.Block.term with
            | Ir.Block.Call (_, _) -> included_calls.(b)
            | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
            | Ir.Block.Ret | Ir.Block.Halt -> false
          in
          for idx = 0 to nins - 1 do
            match Ir.Insn.def insns.(idx) with
            | -1 -> ()
            | r ->
              site_check i b idx r
                ((not included_call)
                && last.(r) = idx
                && not (Words.mem after 0 r))
          done;
          if included_call then
            for r = 0 to Ir.Reg.count - 1 do
              site_check i b nins r false
            done)
        blocks)
    p.Core.Task.tasks;
  List.rev !ds

(* --- whole plans ----------------------------------------------------------- *)

let check_plan (plan : Core.Partition.plan) =
  let prog = plan.Core.Partition.prog in
  let ir_diags, sound = check_prog_sound prog in
  let ds = ref ir_diags in
  let add d = ds := d :: !ds in
  Smap.iter
    (fun name _ ->
      if not (Smap.mem name plan.Core.Partition.parts) then
        add
          (Diag.error ~rule:"part/missing" (Diag.in_func name)
             "function has no partition in the plan"))
    prog.Ir.Prog.funcs;
  Smap.iter
    (fun name part ->
      if not (Ir.Prog.has_func prog name) then
        add
          (Diag.error ~rule:"part/unknown-func" (Diag.in_func name)
             "plan partitions a function the program does not define")
      else if sound name then begin
        let f = Ir.Prog.find prog name in
        if part.Core.Task.fname <> name then
          add
            (Diag.error ~rule:"part/fname" (Diag.in_func name)
               "partition is labelled %S" part.Core.Task.fname);
        let pd =
          check_partition ~level:plan.Core.Partition.level
            ~params:plan.Core.Partition.params f part
        in
        ds := pd @ !ds;
        if Diag.errors pd = [] then
          ds :=
            check_regcomm f ~live_in:(Core.Partition.live_in plan name) part
            @ !ds
      end)
    plan.Core.Partition.parts;
  List.sort Diag.compare !ds

let validate_plan plan =
  match Diag.errors (check_plan plan) with
  | [] -> Ok ()
  | d :: rest ->
    Error
      (Format.asprintf "%a%s" Diag.pp d
         (match rest with
         | [] -> ""
         | _ -> Printf.sprintf " (and %d more errors)" (List.length rest)))

(* Partition.validate is a thin wrapper over this checker; the registration
   happens at link time (this library is built with -linkall). *)
let () = Core.Partition.set_validator validate_plan

(* The rule catalog (DESIGN.md "Static verification" carries the prose
   table).  Registered here, also at link time, so bench/lint.json can emit
   stable zero-count entries and tests can assert id uniqueness. *)
let () =
  List.iter
    (fun (id, desc) -> Diag.register_rule id desc)
    [
      ("ir/block-label", "block label disagrees with its array index");
      ("ir/call-target", "call targets an unknown function");
      ("ir/empty-func", "function has no blocks");
      ("ir/empty-switch", "switch with no targets");
      ("ir/invalid-reg", "instruction names an out-of-range register");
      ("ir/label-range", "terminator targets an out-of-range label");
      ("ir/no-main", "program's main function is missing");
      ("ir/roundtrip", "program fails the Ir.Pp/Ir.Parse textual round-trip");
      ("ir/unreachable", "block unreachable from the function entry");
      ("ir/use-before-def", "register read before any definition");
      ("part/block-range", "task contains an out-of-range block");
      ("part/closure-cont", "forced call continuation is no task entry");
      ("part/closure-target", "inter-task transfer lands on no task entry");
      ("part/connected", "task blocks not reachable from the task entry");
      ("part/entry-mismatch", "task_of_entry disagrees with the task array");
      ("part/entry-not-member", "task entry missing from its block set");
      ("part/entry-task", "function entry block is no task entry");
      ("part/fname", "partition names the wrong function");
      ("part/hw-targets", "task exceeds the hardware target bound");
      ("part/included-length", "included_calls length mismatch");
      ("part/included-noncall", "included_calls marks a non-call block");
      ("part/missing", "function has no partition");
      ("part/stale-calls", "stored calls_out diverges from recomputation");
      ("part/stale-ret", "stored has_ret diverges from recomputation");
      ("part/stale-targets", "stored targets diverge from recomputation");
      ("part/task-index-range", "task_of_entry holds an invalid index");
      ("part/task-of-entry-length", "task_of_entry length mismatch");
      ("part/uncovered", "reachable block belongs to no task");
      ("part/unknown-func", "partition for a function not in the program");
      ("regcomm/forwardable-diff", "Regcomm.forwardable diverges from audit");
      ("regcomm/needed-diff", "Regcomm.needed diverges from audit");
      ("regcomm/rewrite-diff", "Regcomm.may_rewrite diverges from audit");
      ("trace/decode", "packed trace fails its decode audit");
      ("acct/conserve", "cycle accounting violates conservation");
      ("dep/sound", "observed cross-task memory dependence not predicted");
      ("dep/reg", "Depend register edges diverge from Regcomm recomputation");
      ("cost/conserve", "predicted cost shares violate conservation");
      ("absint/sound", "trace address escapes the refined abstract region");
      ("absint/refines", "refined site region exceeds its flow-insensitive bound");
    ]

(* --- textual round-trip audit ----------------------------------------------- *)

(* Printing through Ir.Pp and re-parsing must reproduce the program exactly:
   the fuzz reproducer dump (and any externally supplied program) is only a
   faithful regression input if this holds.  Structural comparison is via
   [compare] so float payloads (including nan) are matched bit-for-bit
   rather than by [=]. *)
let check_roundtrip prog =
  match Ir.Parse.program (Ir.Pp.program_text prog) with
  | Error e ->
    [
      Diag.error ~rule:"ir/roundtrip" Diag.program_loc
        "printed program does not parse back: %s" e;
    ]
  | Ok p' ->
    let ds = ref [] in
    let add d = ds := d :: !ds in
    if not (String.equal p'.Ir.Prog.main prog.Ir.Prog.main) then
      add
        (Diag.error ~rule:"ir/roundtrip" Diag.program_loc
           "main changed across print/parse: %S became %S"
           prog.Ir.Prog.main p'.Ir.Prog.main);
    if p'.Ir.Prog.mem_top <> prog.Ir.Prog.mem_top then
      add
        (Diag.error ~rule:"ir/roundtrip" Diag.program_loc
           "mem_top changed across print/parse: %d became %d"
           prog.Ir.Prog.mem_top p'.Ir.Prog.mem_top);
    if compare p'.Ir.Prog.mem_init prog.Ir.Prog.mem_init <> 0 then
      add
        (Diag.error ~rule:"ir/roundtrip" Diag.program_loc
           "data segment changed across print/parse (%d runs became %d)"
           (List.length prog.Ir.Prog.mem_init)
           (List.length p'.Ir.Prog.mem_init));
    Smap.iter
      (fun name f ->
        match Smap.find_opt name p'.Ir.Prog.funcs with
        | None ->
          add
            (Diag.error ~rule:"ir/roundtrip" (Diag.in_func name)
               "function lost across print/parse")
        | Some f' ->
          if compare f f' <> 0 then
            add
              (Diag.error ~rule:"ir/roundtrip" (Diag.in_func name)
                 "function changed across print/parse"))
      prog.Ir.Prog.funcs;
    Smap.iter
      (fun name _ ->
        if not (Smap.mem name prog.Ir.Prog.funcs) then
          add
            (Diag.error ~rule:"ir/roundtrip" (Diag.in_func name)
               "function appeared across print/parse"))
      p'.Ir.Prog.funcs;
    List.sort Diag.compare !ds

(* --- packed trace audit ----------------------------------------------------- *)

(* The decode audit itself lives with the representation
   (Interp.Trace.check); here it is surfaced as a lint rule so the
   suite-wide gate covers the dynamic artifact as well as the static plan. *)
let check_trace trace =
  match Interp.Trace.check trace with
  | Ok () -> []
  | Error msg -> [ Diag.error ~rule:"trace/decode" Diag.program_loc "%s" msg ]

(* --- cycle-accounting conservation ----------------------------------------- *)

(* The engine enforces conservation when a simulation finishes; this rule
   re-derives it from the recorded statistics so the gate also covers
   records that were aggregated, cached or deserialised after the fact. *)
let check_account ~num_pus ~in_order (stats : Sim.Stats.t) =
  let acct = stats.Sim.Stats.acct in
  let machine =
    Printf.sprintf "%d-PU %s machine" num_pus
      (if in_order then "in-order" else "out-of-order")
  in
  match Sim.Account.check acct with
  | Error msg ->
    [ Diag.error ~rule:"acct/conserve" Diag.program_loc "%s: %s" machine msg ]
  | Ok () ->
    if
      acct.Sim.Account.pus <> num_pus
      || acct.Sim.Account.cycles <> stats.Sim.Stats.cycles
    then
      [
        Diag.error ~rule:"acct/conserve" Diag.program_loc
          "%s: breakdown records %d PUs x %d cycles but the simulation ran \
           %d PUs for %d cycles"
          machine acct.Sim.Account.pus acct.Sim.Account.cycles num_pus
          stats.Sim.Stats.cycles;
      ]
    else []

(* --- static dependence audit ------------------------------------------------ *)

(* dep/reg: recompute the cross-task register edge set from Core.Regcomm —
   the module Core.Depend deliberately avoids — plus a recursive DFS
   upward-exposure walk (a different shape from Depend's distance
   fixpoints), and diff the two sets; additionally cross-check the
   analyzer's chosen forwardable site against Regcomm.forwardable.
   dep/sound: replay the packed trace and require every observed
   cross-instance store->load flow to be predicted by the analyzer's
   memory edges. *)

let term_reads_reg (term : Ir.Block.terminator) r =
  match term with
  | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> c = r
  | Ir.Block.Call _ | Ir.Block.Ret ->
    (* registers are architecturally global *)
    true
  | Ir.Block.Jump _ | Ir.Block.Halt -> false

(* [exposed c r]: is [r] read before being written on some path of task
   [c] from its entry?  A recursive depth-first search over the task's
   blocks, stamped per question; each answer is kept, by task and
   register. *)
let upward_exposure f ~included_calls (tasks : Core.Task.t array) =
  let succs = task_successors f ~included_calls (successors f) in
  let seen = Array.make (Ir.Func.num_blocks f) (-1) and search = ref 0 in
  (* '\000' not asked yet, '\001' no, '\002' yes *)
  let answers = Bytes.make (Array.length tasks * Ir.Reg.count) '\000' in
  let reg = ref 0 and hit = ref false in
  let probe u = if u = !reg then hit := true in
  (* how [blk]'s instructions first touch [!reg]: 1 a read, 0 a write,
     -1 neither *)
  let first_touch (blk : Ir.Block.t) =
    let insns = blk.Ir.Block.insns in
    let touch = ref (-1) and i = ref 0 in
    while !touch < 0 && !i < Array.length insns do
      hit := false;
      Ir.Insn.iter_uses probe insns.(!i);
      if !hit then touch := 1
      else if Ir.Insn.def insns.(!i) = !reg then touch := 0;
      incr i
    done;
    !touch
  in
  let rec visit (t : Core.Task.t) b =
    seen.(b) <> !search
    && begin
      seen.(b) <- !search;
      let blk = Ir.Func.block f b in
      match first_touch blk with
      | 1 -> true
      | 0 -> false
      | _ -> term_reads_reg blk.Ir.Block.term !reg || visit_succs t succs.(b) 0
    end
  and visit_succs t ss k =
    k < Array.length ss
    && ((let s = ss.(k) in
         s <> t.Core.Task.entry && Iset.mem s t.Core.Task.blocks && visit t s)
       || visit_succs t ss (k + 1))
  in
  fun c r ->
    let key = (c * Ir.Reg.count) + r in
    match Bytes.get answers key with
    | '\000' ->
      incr search;
      reg := r;
      let yes = visit tasks.(c) tasks.(c).Core.Task.entry in
      Bytes.set answers key (if yes then '\002' else '\001');
      yes
    | a -> a = '\002'

(* Last explicit def of [r] in block [b], if any — the only sites
   Regcomm.forwardable can answer true for. *)
let last_def_idx f b r =
  let best = ref (-1) in
  if r >= 0 then
    Array.iteri
      (fun i insn -> if Ir.Insn.def insn = r then best := i)
      (Ir.Func.block f b).Ir.Block.insns;
  !best

(* [edges]: the analyzer's register edges of this function alone *)
let check_deps_func fname (f : Ir.Func.t) ~live_in (part : Core.Task.partition)
    edges =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let rc = Core.Regcomm.create f ~live_in part in
  let included_calls = part.Core.Task.included_calls in
  let tasks = part.Core.Task.tasks in
  let nt = Array.length tasks and nregs = Ir.Reg.count in
  (* the reference edge set, from Regcomm facts: per task, what its blocks
     write; per (task, target) slot, the registers of the edge to the
     target's task *)
  let writes = block_writes f ~included_calls in
  let twrites = Words.make nt in
  Array.iteri
    (fun p (t : Core.Task.t) ->
      Iset.iter
        (fun b -> Words.union_into twrites p writes b)
        t.Core.Task.blocks)
    tasks;
  let exposed = upward_exposure f ~included_calls tasks in
  let first_slot = Array.make (nt + 1) 0 in
  Array.iteri
    (fun p (t : Core.Task.t) ->
      first_slot.(p + 1) <- first_slot.(p) + List.length t.Core.Task.targets)
    tasks;
  let nslots = first_slot.(nt) in
  let consumer = Array.make nslots (-1) in
  let mine = Words.make nslots and theirs = Words.make nslots in
  Array.iteri
    (fun p (pt : Core.Task.t) ->
      List.iteri
        (fun k tgt ->
          let slot = first_slot.(p) + k in
          let c = part.Core.Task.task_of_entry.(tgt) in
          consumer.(slot) <- c;
          if c >= 0 then
            for r = 1 to nregs - 1 do
              if
                Words.mem twrites p r
                && Core.Regcomm.needed rc ~task:p ~reg:r
                && exposed c r
              then Words.add mine slot r
            done)
        pt.Core.Task.targets)
    tasks;
  (* the analyzer's edges, into the slots of their task pair; an edge no
     slot holds (no such (task, target) pair, or a register out of range)
     is kept aside, once *)
  let stray = ref [] in
  List.iter
    (fun (e : Core.Depend.reg_edge) ->
      let p = e.Core.Depend.re_src and c = e.Core.Depend.re_dst
      and r = e.Core.Depend.re_reg in
      let held = ref false in
      if p >= 0 && p < nt && c >= 0 && r >= 0 && r < nregs then
        for slot = first_slot.(p) to first_slot.(p + 1) - 1 do
          if consumer.(slot) = c then begin
            Words.add theirs slot r;
            held := true
          end
        done;
      if not (!held || List.mem (p, c, r) !stray) then
        stray := (p, c, r) :: !stray)
    edges;
  let misses p c r =
    add
      (Diag.error ~rule:"dep/reg" (Diag.in_func ~task:p fname)
         "analyzer misses register edge task %d -> task %d on %s (Regcomm \
          says needed, written and upward-exposed)"
         p c (Ir.Reg.name r))
  and over_reports p c r =
    add
      (Diag.error ~rule:"dep/reg" (Diag.in_func ~task:p fname)
         "analyzer over-reports register edge task %d -> task %d on %s (not \
          in the Regcomm recomputation)"
         p c (Ir.Reg.name r))
  in
  for p = 0 to nt - 1 do
    for slot = first_slot.(p) to first_slot.(p + 1) - 1 do
      let c = consumer.(slot) in
      (* a task two targets of [p] map to is one task pair *)
      let repeat = ref false in
      for s = first_slot.(p) to slot - 1 do
        if consumer.(s) = c then repeat := true
      done;
      if c >= 0 && not !repeat then
        for r = 0 to nregs - 1 do
          match (Words.mem mine slot r, Words.mem theirs slot r) with
          | true, false -> misses p c r
          | false, true -> over_reports p c r
          | true, true | false, false -> ()
        done
    done
  done;
  List.iter (fun (p, c, r) -> over_reports p c r) !stray;
  (* criticality sites against Regcomm.forwardable *)
  List.iter
    (fun (e : Core.Depend.reg_edge) ->
      let p = e.Core.Depend.re_src and r = e.Core.Depend.re_reg in
      match e.Core.Depend.re_site with
      | Some (b, i) ->
        if not (Core.Regcomm.forwardable rc ~task:p ~blk:b ~idx:i ~reg:r)
        then
          add
            (Diag.error ~rule:"dep/reg"
               (Diag.in_func ~task:p ~block:b ~insn:i fname)
               "analyzer height site for %s is not forwardable per Regcomm"
               (Ir.Reg.name r))
      | None ->
        Iset.iter
          (fun b ->
            let i = last_def_idx f b r in
            if
              i >= 0
              && Core.Regcomm.forwardable rc ~task:p ~blk:b ~idx:i ~reg:r
            then
              add
                (Diag.error ~rule:"dep/reg"
                   (Diag.in_func ~task:p ~block:b ~insn:i fname)
                   "analyzer found no forwardable site for %s but Regcomm \
                    forwards the write at i%d"
                   (Ir.Reg.name r) i))
          tasks.(p).Core.Task.blocks)
    edges;
  !ds

(* The dep/reg half of check_deps, without a trace: the register edges
   are derived function by function, each checked against its Regcomm
   recomputation.  Installed behind Core.Partition.validate_deps, where
   the cost-directed search vets every candidate plan with it (candidates
   have no trace, so dep/sound is covered suite-wide once the refined plan
   is final). *)
let check_deps_static (plan : Core.Partition.plan) =
  let ds =
    Smap.fold
      (fun fname (part : Core.Task.partition) acc ->
        let f = Ir.Prog.find plan.Core.Partition.prog fname in
        let live_in = Core.Partition.live_in plan fname in
        let m =
          Core.Depend.memo f ~live_in
            ~included_calls:part.Core.Task.included_calls
        in
        check_deps_func fname f ~live_in part
          (Core.Depend.func_edges m fname part).Core.Depend.f_regs
        @ acc)
      plan.Core.Partition.parts []
  in
  List.sort Diag.compare ds

let check_deps (plan : Core.Partition.plan) trace =
  let ds = ref (check_deps_static plan) in
  let add d = ds := d :: !ds in
  let dep = Core.Depend.analyze plan in
  let fnames = trace.Interp.Trace.fnames in
  (match
     Array.map
       (fun name -> Smap.find name plan.Core.Partition.parts)
       fnames
   with
  | exception Not_found ->
    add
      (Diag.error ~rule:"dep/sound" Diag.program_loc
         "trace names a function the plan has no partition for")
  | parts -> (
    match Sim.Memflow.observed trace ~parts with
    | exception Sim.Dyntask.Not_closed msg ->
      add
        (Diag.error ~rule:"dep/sound" Diag.program_loc
           "trace cannot be chopped into task instances: %s" msg)
    | observed ->
      List.iter
        (fun (o : Sim.Memflow.edge) ->
          let src =
            { Core.Depend.fn = fnames.(o.Sim.Memflow.src_fid);
              task = o.Sim.Memflow.src_task }
          and dst =
            { Core.Depend.fn = fnames.(o.Sim.Memflow.dst_fid);
              task = o.Sim.Memflow.dst_task }
          in
          if not (Core.Depend.predicts_mem dep ~src ~dst) then
            add
              (Diag.error ~rule:"dep/sound"
                 (Diag.in_func ~task:dst.Core.Depend.task dst.Core.Depend.fn)
                 "observed memory dependence not predicted: store in \
                  %s/task %d reaches a load at address %d (%d dynamic \
                  occurrences)"
                 src.Core.Depend.fn src.Core.Depend.task o.Sim.Memflow.addr
                 o.Sim.Memflow.count))
        observed));
  List.sort Diag.compare !ds

let first_error_message ds =
  match Diag.errors ds with
  | [] -> Ok ()
  | d :: rest ->
    Error
      (Format.asprintf "%a%s" Diag.pp d
         (match rest with
         | [] -> ""
         | _ -> Printf.sprintf " (and %d more errors)" (List.length rest)))

let validate_plan_deps plan = first_error_message (check_deps_static plan)
let () = Core.Partition.set_dep_validator validate_plan_deps

(* --- flow-sensitive refinement audit ---------------------------------------- *)

(* absint/sound mirrors dep/sound one level lower: dep/sound grounds the
   task-pair EDGES against observed flows, this grounds the per-site
   address REGIONS themselves — every address a trace event records must
   be contained in the refined region of the corresponding static site
   (the k-th address of an event belongs to the k-th memory instruction of
   the executed block).  absint/refines audits the refinement-bound
   plumbing: site for site, the refined region must be a provable subset
   of the flow-insensitive one, and both tables must share the same
   skeleton (block, index, kind). *)
let check_absint (plan : Core.Partition.plan) trace =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let prog = plan.Core.Partition.prog in
  let summary = (Core.Partition.facts plan).Core.Partition.mem in
  (* refinement bound, site for site *)
  List.iter
    (fun fname ->
      let refined = Analysis.Memdep.sites summary fname in
      let fi = Analysis.Memdep.fi_sites summary fname in
      if List.length refined <> List.length fi then
        add
          (Diag.error ~rule:"absint/refines" (Diag.in_func fname)
             "refined site table has %d sites where the flow-insensitive \
              one has %d"
             (List.length refined) (List.length fi))
      else
        List.iter2
          (fun (r : Analysis.Memdep.site) (f : Analysis.Memdep.site) ->
            if
              r.Analysis.Memdep.blk <> f.Analysis.Memdep.blk
              || r.Analysis.Memdep.idx <> f.Analysis.Memdep.idx
              || r.Analysis.Memdep.store <> f.Analysis.Memdep.store
            then
              add
                (Diag.error ~rule:"absint/refines"
                   (Diag.in_func ~block:r.Analysis.Memdep.blk
                      ~insn:r.Analysis.Memdep.idx fname)
                   "refined and flow-insensitive site skeletons diverge")
            else if
              not
                (Analysis.Memdep.leq r.Analysis.Memdep.region
                   f.Analysis.Memdep.region)
            then
              add
                (Diag.error ~rule:"absint/refines"
                   (Diag.in_func ~block:r.Analysis.Memdep.blk
                      ~insn:r.Analysis.Memdep.idx fname)
                   "refined region %s is not a subset of the \
                    flow-insensitive bound %s"
                   (Analysis.Memdep.value_to_string r.Analysis.Memdep.region)
                   (Analysis.Memdep.value_to_string f.Analysis.Memdep.region)))
          refined fi)
    (Ir.Prog.func_names prog);
  (* trace grounding of the refined regions *)
  let regions_of = Hashtbl.create 16 in
  List.iter
    (fun fname ->
      let nb = Ir.Func.num_blocks (Ir.Prog.find prog fname) in
      let per_blk = Array.make nb [] in
      List.iter
        (fun (s : Analysis.Memdep.site) ->
          per_blk.(s.Analysis.Memdep.blk) <-
            s.Analysis.Memdep.region :: per_blk.(s.Analysis.Memdep.blk))
        (Analysis.Memdep.sites summary fname);
      (* sites arrive in block/idx order, so each bucket reverses back *)
      Hashtbl.replace regions_of fname
        (Array.map (fun l -> Array.of_list (List.rev l)) per_blk))
    (Ir.Prog.func_names prog);
  let bad = Hashtbl.create 16 in
  let fnames = trace.Interp.Trace.fnames in
  let n = Interp.Trace.num_events trace in
  (try
     for i = 0 to n - 1 do
       if Interp.Trace.addr_count trace i > 0 then begin
         let fname = fnames.(Interp.Trace.get_fid trace i) in
         let blk = Interp.Trace.get_blk trace i in
         let regs =
           match Hashtbl.find_opt regions_of fname with
           | Some per_blk when blk < Array.length per_blk -> per_blk.(blk)
           | _ -> [||]
         in
         let k = ref 0 in
         Interp.Trace.iter_addrs trace i (fun addr ->
             (if !k >= Array.length regs then
                add
                  (Diag.error ~rule:"absint/sound"
                     (Diag.in_func ~block:blk fname)
                     "trace event has more addresses than the block has \
                      static memory sites")
              else if not (Analysis.Memdep.contains regs.(!k) addr) then
                let key = (fname, blk, !k) in
                match Hashtbl.find_opt bad key with
                | Some (cnt, a0) -> Hashtbl.replace bad key (cnt + 1, a0)
                | None -> Hashtbl.replace bad key (1, addr));
             incr k)
       end
     done
   with Invalid_argument _ ->
     add
       (Diag.error ~rule:"absint/sound" Diag.program_loc
          "trace names a function or block outside the analyzed program"));
  Hashtbl.iter
    (fun (fname, blk, k) (cnt, addr) ->
      add
        (Diag.error ~rule:"absint/sound"
           (Diag.in_func ~block:blk ~insn:k fname)
           "address %d escapes the refined region of memory site %d (%d \
            dynamic occurrences)"
           addr k cnt))
    bad;
  List.sort Diag.compare !ds

(* --- static cost model ------------------------------------------------------ *)

(* cost/conserve: the predicted cycle-account shares form a well-formed
   distribution, and the whole cost result is stable under re-derivation.
   Core.Cost.plan_cost reads the plan's facts and liveness (each derived
   once per program record); the second derivation makes fresh ones with
   Core.Partition.make_facts — address analysis, block frequencies,
   function weights — and Analysis.Dataflow.sound_live_in, never from the
   record, and, like every plan_cost, fresh dependence memos, so
   bit-comparing the two exercises the entire derivation chain for
   determinism (ordered folds only, no hash-order float sums). *)
let check_cost (plan : Core.Partition.plan) =
  let prog = plan.Core.Partition.prog in
  let a = Core.Cost.plan_cost plan in
  let b =
    Core.Cost.cost_with
      (Core.Partition.make_facts prog)
      ~live_in:(fun name ->
        Analysis.Dataflow.sound_live_in (Ir.Prog.find prog name))
      plan
  in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  if not (Analysis.Cost.shares_well_formed a.Core.Cost.r_shares) then
    add
      (Diag.error ~rule:"cost/conserve" Diag.program_loc
         "predicted shares are not a well-formed distribution (finite, \
          non-negative, summing to 1)");
  if not (Float.is_finite a.Core.Cost.r_scalar && a.Core.Cost.r_scalar >= 0.0)
  then
    add
      (Diag.error ~rule:"cost/conserve" Diag.program_loc
         "scalar plan cost is not a finite non-negative number");
  if a <> b then
    add
      (Diag.error ~rule:"cost/conserve" Diag.program_loc
         "plan cost is not stable under re-derivation");
  List.rev !ds

(* --- rule filtering --------------------------------------------------------- *)

(* Anchored shell-style glob over rule ids: '*' matches any substring. *)
let rule_matches ~pat id =
  let n = String.length pat and m = String.length id in
  let rec go i j =
    if i >= n then j >= m
    else if pat.[i] = '*' then go (i + 1) j || (j < m && go i (j + 1))
    else j < m && pat.[i] = id.[j] && go (i + 1) (j + 1)
  in
  go 0 0

(* --- suite-wide enforcement ------------------------------------------------ *)

type report = {
  workload : string;
  level : Core.Heuristics.level;
  diags : Diag.t list;
}

(* Machine configurations the accounting gate simulates; both appear in the
   figure-5 grid, so a run that already simulated them pays nothing
   extra (the store memoizes per (key, PUs, issue-discipline)). *)
let acct_configs = [ (4, true); (8, false) ]

(* the deps and absint audits assume a valid plan, so a plan error stands
   alone *)
let check_artifact store (art : Harness.Artifact.artifact) =
  let plan = art.Harness.Artifact.plan
  and trace = art.Harness.Artifact.trace in
  let plan_diags = check_plan plan in
  if Diag.errors plan_diags <> [] then plan_diags
  else
    plan_diags @ check_trace trace @ check_deps plan trace
    @ check_absint plan trace @ check_cost plan
    @ List.concat_map
        (fun (num_pus, in_order) ->
          check_account ~num_pus ~in_order
            (Harness.Artifact.sim store art ~num_pus ~in_order))
        acct_configs

let check_suite ?jobs ?(levels = Core.Heuristics.all_levels) ~store entries =
  Harness.Artifact.grid store ?jobs ~levels entries (fun art ->
      {
        workload = art.Harness.Artifact.key.Harness.Artifact.workload;
        level = art.Harness.Artifact.key.Harness.Artifact.level;
        diags = check_artifact store art;
      })

let total_errors reports =
  List.fold_left (fun acc r -> acc + List.length (Diag.errors r.diags)) 0
    reports

let invariants reports =
  List.concat_map
    (fun r ->
      List.map
        (fun d ->
          Format.asprintf "%s %s: %a" r.workload
            (Harness.Job.level_tag r.level)
            Diag.pp d)
        (Diag.errors r.diags))
    reports

let filter_rule pat reports =
  List.map
    (fun r ->
      {
        r with
        diags = List.filter (fun (d : Diag.t) -> rule_matches ~pat d.Diag.rule) r.diags;
      })
    reports

let report_to_json reports =
  let rule_counts = Hashtbl.create 16 in
  (* zero-count entries for every registered rule keep the diffs stable
     when a rule family is added *)
  List.iter
    (fun (id, _) -> Hashtbl.replace rule_counts id 0)
    (Diag.registered_rules ());
  List.iter
    (fun r ->
      List.iter
        (fun (d : Diag.t) ->
          let k = d.Diag.rule in
          Hashtbl.replace rule_counts k
            (1 + Option.value ~default:0 (Hashtbl.find_opt rule_counts k)))
        r.diags)
    reports;
  let counts =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, Harness.Json.Int v) :: acc)
         rule_counts [])
  in
  let sev_total sev =
    List.fold_left (fun acc r -> acc + Diag.count sev r.diags) 0 reports
  in
  Harness.Json.Obj
    [
      ("errors", Harness.Json.Int (sev_total Diag.Error));
      ("warnings", Harness.Json.Int (sev_total Diag.Warning));
      ("infos", Harness.Json.Int (sev_total Diag.Info));
      ("rule_counts", Harness.Json.Obj counts);
      ( "reports",
        Harness.Json.List
          (List.map
             (fun r ->
               Harness.Json.Obj
                 [
                   ("workload", Harness.Json.String r.workload);
                   ( "level",
                     Harness.Json.String (Core.Heuristics.level_name r.level)
                   );
                   ("diags", Diag.list_to_json r.diags);
                 ])
             reports) );
    ]
