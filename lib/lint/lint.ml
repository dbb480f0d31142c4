module Diag = Diag
module Iset = Core.Task.Iset
module Regset = Analysis.Dataflow.Regset
module Smap = Ir.Prog.Smap

let all_regs = Regset.of_list (List.init Ir.Reg.count (fun i -> i))

(* Terminator defs, mirroring the convention of Analysis.Dataflow: a call
   writes the return-value register; nothing else writes through its
   terminator.  (Reimplemented here on purpose — the audit must not lean on
   the module it is auditing.) *)
let term_defs = function
  | Ir.Block.Call (_, _) -> [ Ir.Reg.rv ]
  | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
  | Ir.Block.Halt -> []

let reachable_blocks f =
  let n = Ir.Func.num_blocks f in
  let seen = Array.make n false in
  let rec visit l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter visit (Ir.Func.successors f l)
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
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            add
              (Diag.error ~rule:"ir/label-range"
                 (Diag.in_func ~block:i f.Ir.Func.name)
                 "terminator targets out-of-range label L%d (%d blocks)" s n))
        (Ir.Block.successors b);
      Array.iteri
        (fun idx insn ->
          List.iter
            (fun r ->
              if not (Ir.Reg.is_valid r) then
                add
                  (Diag.error ~rule:"ir/invalid-reg"
                     (Diag.in_func ~block:i ~insn:idx f.Ir.Func.name)
                     "instruction touches invalid register %d" r))
            (Ir.Insn.defs insn @ Ir.Insn.uses insn))
        b.Ir.Block.insns)
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
    let initial = Regset.of_list [ Ir.Reg.zero; Ir.Reg.sp ] in
    let preds = Ir.Func.predecessors f in
    let defined_out = Array.make n None in
    let block_defs (b : Ir.Block.t) acc =
      let acc =
        Array.fold_left
          (fun acc insn ->
            List.fold_left (fun acc r -> Regset.add r acc) acc
              (Ir.Insn.defs insn))
          acc b.Ir.Block.insns
      in
      List.fold_left (fun acc r -> Regset.add r acc) acc
        (term_defs b.Ir.Block.term)
    in
    let defined_in l =
      if l = Ir.Func.entry then Some initial
      else
        List.fold_left
          (fun acc p ->
            match defined_out.(p) with
            | None -> acc
            | Some dp ->
              Some
                (match acc with
                | None -> dp
                | Some a -> Regset.inter a dp))
          None preds.(l)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for l = 0 to n - 1 do
        if reach.(l) then
          match defined_in l with
          | None -> ()
          | Some din ->
            let dout = Some (block_defs (Ir.Func.block f l) din) in
            if dout <> defined_out.(l) then begin
              defined_out.(l) <- dout;
              changed := true
            end
      done
    done;
    let ds = ref [] in
    for l = 0 to n - 1 do
      if reach.(l) then
        match defined_in l with
        | None -> ()
        | Some din ->
          let b = Ir.Func.block f l in
          let cur = ref din in
          let use_at idx r =
            if r <> Ir.Reg.zero && not (Regset.mem r !cur) then
              ds :=
                Diag.warning ~rule:"ir/use-before-def"
                  (Diag.in_func ~block:l ~insn:idx f.Ir.Func.name)
                  "%s is read but no definition reaches this use on every \
                   path from the entry"
                  (Ir.Reg.name r)
                :: !ds
          in
          Array.iteri
            (fun idx insn ->
              List.iter (use_at idx) (Ir.Insn.uses insn);
              List.iter (fun r -> cur := Regset.add r !cur) (Ir.Insn.defs insn))
            b.Ir.Block.insns;
          (* only *genuine* terminator reads count: a call's conservative
             all-args use set (as liveness models it) would flag every
             caller that passes fewer than max_args arguments *)
          (match b.Ir.Block.term with
          | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) ->
            use_at (Array.length b.Ir.Block.insns) c
          | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt
            -> ())
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

(* Intra-task successor relation, restated from the Task model (§2.2):
   reaching the entry again starts a new task instance, and a non-included
   call transfers to the callee's tasks, so neither edge continues the
   current task. *)
let task_succ f ~included_calls ~entry ~blocks b =
  let blk = Ir.Func.block f b in
  match blk.Ir.Block.term with
  | Ir.Block.Call (_, _) when not included_calls.(b) -> []
  | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
  | Ir.Block.Ret | Ir.Block.Halt ->
    List.filter
      (fun s -> s <> entry && Iset.mem s blocks)
      (Ir.Block.successors blk)

(* Independent recomputation of a task's exit metadata: the intra-function
   targets (including the entry itself for loop tasks), distinct callees of
   non-included calls, and whether some block returns. *)
let recompute_exits f ~included_calls ~entry blocks =
  let targets = ref Iset.empty in
  let calls = ref [] in
  let has_ret = ref false in
  Iset.iter
    (fun b ->
      let blk = Ir.Func.block f b in
      match blk.Ir.Block.term with
      | Ir.Block.Call (callee, _) when not included_calls.(b) ->
        calls := callee :: !calls
      | Ir.Block.Ret | Ir.Block.Halt -> has_ret := true
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
        ->
        List.iter
          (fun s ->
            if s = entry || not (Iset.mem s blocks) then
              targets := Iset.add s !targets)
          (Ir.Block.successors blk))
    blocks;
  (Iset.elements !targets, List.sort_uniq compare !calls, !has_ret)

let forced_conts f ~included_calls blocks =
  Iset.fold
    (fun b acc ->
      match (Ir.Func.block f b).Ir.Block.term with
      | Ir.Block.Call (_, cont) when not included_calls.(b) -> (b, cont) :: acc
      | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
      | Ir.Block.Ret | Ir.Block.Halt -> acc)
    blocks []

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
    Array.iteri
      (fun i (t : Core.Task.t) ->
        let loc = Diag.in_func ~task:i fname in
        let in_range l = l >= 0 && l < n in
        if not (in_range t.Core.Task.entry && Iset.for_all in_range t.Core.Task.blocks)
        then
          add
            (Diag.error ~rule:"part/block-range" loc
               "task mentions out-of-range block labels (%d blocks in %s)" n
               fname)
        else begin
          let entry = t.Core.Task.entry in
          let blocks = t.Core.Task.blocks in
          if p.Core.Task.task_of_entry.(entry) <> i then
            add
              (Diag.error ~rule:"part/entry-mismatch" loc
                 "entry L%d maps back to task %d, not %d" entry
                 p.Core.Task.task_of_entry.(entry) i);
          if not (Iset.mem entry blocks) then
            add
              (Diag.error ~rule:"part/entry-not-member" loc
                 "task does not contain its own entry L%d" entry)
          else begin
            (* connectivity: every block reachable from the entry without
               re-entering it and without crossing a non-included call *)
            let seen = ref (Iset.singleton entry) in
            let rec visit b =
              List.iter
                (fun s ->
                  if not (Iset.mem s !seen) then begin
                    seen := Iset.add s !seen;
                    visit s
                  end)
                (task_succ f ~included_calls ~entry ~blocks b)
            in
            visit entry;
            if not (Iset.equal !seen blocks) then
              add
                (Diag.error ~rule:"part/connected" loc
                   "blocks {%s} are not reachable from entry L%d inside the \
                    task"
                   (pp_labels (Iset.elements (Iset.diff blocks !seen)))
                   entry);
            (* independent exit recomputation, diffed field by field *)
            let targets, calls, has_ret =
              recompute_exits f ~included_calls ~entry blocks
            in
            if targets <> t.Core.Task.targets then
              add
                (Diag.error ~rule:"part/stale-targets" loc
                   "stored targets [%s] but the CFG yields [%s]"
                   (pp_labels t.Core.Task.targets)
                   (pp_labels targets));
            if calls <> t.Core.Task.calls_out then
              add
                (Diag.error ~rule:"part/stale-calls" loc
                   "stored calls_out [%s] but the CFG yields [%s]"
                   (String.concat "," t.Core.Task.calls_out)
                   (String.concat "," calls));
            if has_ret <> t.Core.Task.has_ret then
              add
                (Diag.error ~rule:"part/stale-ret" loc
                   "stored has_ret %B but the CFG yields %B"
                   t.Core.Task.has_ret has_ret);
            (* closure over the true (recomputed) exits *)
            List.iter
              (fun tgt ->
                if p.Core.Task.task_of_entry.(tgt) = -1 then
                  add
                    (Diag.error ~rule:"part/closure-target" loc
                       "target L%d is not any task's entry" tgt))
              targets;
            List.iter
              (fun (b, cont) ->
                if p.Core.Task.task_of_entry.(cont) = -1 then
                  add
                    (Diag.error ~rule:"part/closure-cont"
                       (Diag.in_func ~task:i ~block:b fname)
                       "continuation L%d of the non-included call in L%d is \
                        not any task's entry"
                       cont b))
              (forced_conts f ~included_calls blocks);
            (* the hardware tracks at most max_targets next-task targets;
               the heuristics guarantee it from Control_flow up — except for
               a task that is a single unsplittable block (e.g. a wide
               switch), which no selection scheme can shrink further *)
            (match level with
            | Some l when level_rank l >= level_rank Core.Heuristics.Control_flow
              ->
              let hw = List.length targets + List.length calls in
              if hw > params.Core.Heuristics.max_targets then
                if Iset.cardinal blocks > 1 then
                  add
                    (Diag.error ~rule:"part/hw-targets" loc
                       "%d hardware targets exceed the prediction bound N=%d"
                       hw params.Core.Heuristics.max_targets)
                else
                  add
                    (Diag.info ~rule:"part/hw-targets" loc
                       "single-block task has %d hardware targets (bound \
                        N=%d); no selection can split a basic block"
                       hw params.Core.Heuristics.max_targets)
            | Some _ | None -> ())
          end
        end)
      p.Core.Task.tasks;
    (* coverage: the simulator maps every executed block to a task, so every
       reachable block must belong to at least one *)
    let covered =
      Array.fold_left
        (fun acc (t : Core.Task.t) -> Iset.union acc t.Core.Task.blocks)
        Iset.empty p.Core.Task.tasks
    in
    let reach = reachable_blocks f in
    for b = 0 to n - 1 do
      if reach.(b) && not (Iset.mem b covered) then
        add
          (Diag.error ~rule:"part/uncovered" (Diag.in_func ~block:b fname)
             "reachable block L%d belongs to no task" b)
    done;
    List.rev !ds
  end

(* --- register-communication audit ----------------------------------------- *)

(* Interprocedurally sound liveness, reimplemented as a per-instruction
   backward walk (Regcomm goes through Analysis.Dataflow's block-summary
   fixpoint; the audit must not).  A callee may read or write any register
   (they are architecturally global), so a call terminator uses everything
   and defines rv; returns assume everything live at the exit. *)
let sound_live_in f =
  let n = Ir.Func.num_blocks f in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let transfer (b : Ir.Block.t) out =
    let set = ref out in
    (match b.Ir.Block.term with
    | Ir.Block.Call (_, _) ->
      set := Regset.union (Regset.remove Ir.Reg.rv !set) all_regs
    | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) ->
      set := Regset.add c !set
    | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> ());
    for idx = Array.length b.Ir.Block.insns - 1 downto 0 do
      let insn = b.Ir.Block.insns.(idx) in
      List.iter (fun r -> set := Regset.remove r !set) (Ir.Insn.defs insn);
      List.iter (fun r -> set := Regset.add r !set) (Ir.Insn.uses insn)
    done;
    !set
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let b = Ir.Func.block f l in
      let exits =
        match b.Ir.Block.term with
        | Ir.Block.Ret | Ir.Block.Halt -> all_regs
        | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
        | Ir.Block.Call _ -> Regset.empty
      in
      let out =
        List.fold_left
          (fun acc s -> Regset.union acc live_in.(s))
          exits (Ir.Func.successors f l)
      in
      let inn = transfer b out in
      if
        not (Regset.equal out live_out.(l) && Regset.equal inn live_in.(l))
      then begin
        live_out.(l) <- out;
        live_in.(l) <- inn;
        changed := true
      end
    done
  done;
  live_in

(* Registers a block may write: its instruction defs, and everything when
   it ends in an included call (the callee's effects are unknown). *)
let block_writes f ~included_calls b =
  let blk = Ir.Func.block f b in
  let ws =
    Array.fold_left
      (fun acc insn ->
        List.fold_left (fun acc r -> Regset.add r acc) acc (Ir.Insn.defs insn))
      Regset.empty blk.Ir.Block.insns
  in
  match blk.Ir.Block.term with
  | Ir.Block.Call (_, _) when included_calls.(b) -> all_regs
  | Ir.Block.Call _ | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
  | Ir.Block.Ret | Ir.Block.Halt -> ws

let check_regcomm_task f ~included_calls ~live_in rc i (t : Core.Task.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let entry = t.Core.Task.entry in
  let blocks = t.Core.Task.blocks in
  let succ = task_succ f ~included_calls ~entry ~blocks in
  let writes = Hashtbl.create 8 in
  Iset.iter
    (fun b -> Hashtbl.replace writes b (block_writes f ~included_calls b))
    blocks;
  (* may_write_from b: registers written by b or any block strictly reachable
     from it inside the task — a reverse fixpoint over the task subgraph *)
  let mw = Hashtbl.create 8 in
  Iset.iter (fun b -> Hashtbl.replace mw b (Hashtbl.find writes b)) blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    Iset.iter
      (fun b ->
        let cur = Hashtbl.find mw b in
        let next =
          List.fold_left
            (fun acc s -> Regset.union acc (Hashtbl.find mw s))
            cur (succ b)
        in
        if not (Regset.equal next cur) then begin
          Hashtbl.replace mw b next;
          changed := true
        end)
      blocks
  done;
  (* registers some block strictly after b may still write *)
  let write_after b =
    List.fold_left
      (fun acc s -> Regset.union acc (Hashtbl.find mw s))
      Regset.empty (succ b)
  in
  (* dead-register facts: what must this task's exit send on the ring? *)
  let needed_mine =
    if t.Core.Task.has_ret || t.Core.Task.calls_out <> [] then all_regs
    else
      List.fold_left
        (fun acc tgt -> Regset.union acc live_in.(tgt))
        Regset.empty t.Core.Task.targets
  in
  for r = 0 to Ir.Reg.count - 1 do
    let theirs = Core.Regcomm.needed rc ~task:i ~reg:r in
    let mine = Regset.mem r needed_mine in
    if theirs <> mine then
      add
        (Diag.error ~rule:"regcomm/needed-diff"
           (Diag.in_func ~task:i f.Ir.Func.name)
           "needed(%s): Regcomm says %B, the audit says %B" (Ir.Reg.name r)
           theirs mine)
  done;
  Iset.iter
    (fun b ->
      let after = write_after b in
      let here = Hashtbl.find writes b in
      (* release facts: can r still be written at or after b? *)
      for r = 0 to Ir.Reg.count - 1 do
        let theirs = Core.Regcomm.may_rewrite rc ~task:i ~blk:b ~reg:r in
        let mine = Regset.mem r here || Regset.mem r after in
        if theirs <> mine then
          add
            (Diag.error ~rule:"regcomm/rewrite-diff"
               (Diag.in_func ~task:i ~block:b f.Ir.Func.name)
               "may_rewrite(%s): Regcomm says %B, the audit says %B"
               (Ir.Reg.name r) theirs mine)
      done;
      (* forward facts: a write site is forwardable iff it is the last write
         of the register in its block and no later task block can write it.
         The mega-write modelling an included callee is never forwardable —
         the compiler cannot mark forward bits inside a separately compiled
         callee. *)
      let blk = Ir.Func.block f b in
      let nins = Array.length blk.Ir.Block.insns in
      let last = Hashtbl.create 8 in
      Array.iteri
        (fun idx insn ->
          List.iter (fun r -> Hashtbl.replace last r idx) (Ir.Insn.defs insn))
        blk.Ir.Block.insns;
      let included_call =
        match blk.Ir.Block.term with
        | Ir.Block.Call (_, _) -> included_calls.(b)
        | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
        | Ir.Block.Halt -> false
      in
      let site_check idx r mine =
        let theirs =
          Core.Regcomm.forwardable rc ~task:i ~blk:b ~idx ~reg:r
        in
        if theirs <> mine then
          add
            (Diag.error ~rule:"regcomm/forwardable-diff"
               (Diag.in_func ~task:i ~block:b ~insn:idx f.Ir.Func.name)
               "forwardable(%s): Regcomm says %B, the audit says %B"
               (Ir.Reg.name r) theirs mine)
      in
      Array.iteri
        (fun idx insn ->
          List.iter
            (fun r ->
              let mine =
                (not included_call)
                && Hashtbl.find last r = idx
                && not (Regset.mem r after)
              in
              site_check idx r mine)
            (Ir.Insn.defs insn))
        blk.Ir.Block.insns;
      if included_call then
        for r = 0 to Ir.Reg.count - 1 do
          site_check nins r false
        done)
    blocks;
  List.rev !ds

let check_regcomm (f : Ir.Func.t) (p : Core.Task.partition) =
  let rc = Core.Regcomm.create f p in
  let live_in = sound_live_in f in
  let included_calls = p.Core.Task.included_calls in
  List.concat
    (Array.to_list
       (Array.mapi
          (check_regcomm_task f ~included_calls ~live_in rc)
          p.Core.Task.tasks))

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
        if Diag.errors pd = [] then ds := check_regcomm f part @ !ds
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
    let norm m = List.sort compare m in
    if compare (norm p'.Ir.Prog.mem_init) (norm prog.Ir.Prog.mem_init) <> 0
    then
      add
        (Diag.error ~rule:"ir/roundtrip" Diag.program_loc
           "data segment changed across print/parse (%d cells became %d)"
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

(* Is [r] read before being written on some task path from the entry? *)
let upward_exposed f ~included_calls (t : Core.Task.t) r =
  let entry = t.Core.Task.entry in
  let blocks = t.Core.Task.blocks in
  let seen = ref Iset.empty in
  let rec visit b =
    if Iset.mem b !seen then false
    else begin
      seen := Iset.add b !seen;
      let blk = Ir.Func.block f b in
      let n = Array.length blk.Ir.Block.insns in
      let rec scan i =
        if i >= n then
          term_reads_reg blk.Ir.Block.term r
          || List.exists visit (task_succ f ~included_calls ~entry ~blocks b)
        else
          let insn = blk.Ir.Block.insns.(i) in
          if List.mem r (Ir.Insn.uses insn) then true
          else if List.mem r (Ir.Insn.defs insn) then false
          else scan (i + 1)
      in
      scan 0
    end
  in
  visit entry

(* Last explicit def of [r] in block [b], if any — the only sites
   Regcomm.forwardable can answer true for. *)
let last_def_idx f b r =
  let blk = Ir.Func.block f b in
  let best = ref (-1) in
  Array.iteri
    (fun i insn -> if List.mem r (Ir.Insn.defs insn) then best := i)
    blk.Ir.Block.insns;
  !best

(* [edges]: the analyzer's register edges of this function alone *)
let check_deps_func fname (f : Ir.Func.t) (part : Core.Task.partition) edges =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let rc = Core.Regcomm.create f part in
  let included_calls = part.Core.Task.included_calls in
  let tasks = part.Core.Task.tasks in
  (* the reference edge set, from Regcomm facts *)
  let twrites =
    Array.map
      (fun (t : Core.Task.t) ->
        Iset.fold
          (fun b acc -> Regset.union acc (block_writes f ~included_calls b))
          t.Core.Task.blocks Regset.empty)
      tasks
  in
  let exposed = Hashtbl.create 64 in
  let exposed_in c r =
    match Hashtbl.find_opt exposed (c, r) with
    | Some v -> v
    | None ->
      let v = upward_exposed f ~included_calls tasks.(c) r in
      Hashtbl.replace exposed (c, r) v;
      v
  in
  let mine = Hashtbl.create 64 in
  Array.iteri
    (fun p (pt : Core.Task.t) ->
      List.iter
        (fun tgt ->
          let c = part.Core.Task.task_of_entry.(tgt) in
          if c >= 0 then
            for r = 1 to Ir.Reg.count - 1 do
              if
                Regset.mem r twrites.(p)
                && Core.Regcomm.needed rc ~task:p ~reg:r
                && exposed_in c r
              then Hashtbl.replace mine (p, c, r) ()
            done)
        pt.Core.Task.targets)
    tasks;
  let theirs = Hashtbl.create 64 in
  List.iter
    (fun (e : Core.Depend.reg_edge) ->
      Hashtbl.replace theirs (e.Core.Depend.re_src, e.Core.Depend.re_dst,
                              e.Core.Depend.re_reg) ())
    edges;
  Hashtbl.iter
    (fun (p, c, r) () ->
      if not (Hashtbl.mem theirs (p, c, r)) then
        add
          (Diag.error ~rule:"dep/reg" (Diag.in_func ~task:p fname)
             "analyzer misses register edge task %d -> task %d on %s \
              (Regcomm says needed, written and upward-exposed)"
             p c (Ir.Reg.name r)))
    mine;
  Hashtbl.iter
    (fun (p, c, r) () ->
      if not (Hashtbl.mem mine (p, c, r)) then
        add
          (Diag.error ~rule:"dep/reg" (Diag.in_func ~task:p fname)
             "analyzer over-reports register edge task %d -> task %d on %s \
              (not in the Regcomm recomputation)"
             p c (Ir.Reg.name r)))
    theirs;
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

let check_deps (plan : Core.Partition.plan) trace =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let dep = Core.Depend.analyze plan in
  Smap.iter
    (fun fname part ->
      List.iter add
        (check_deps_func fname
           (Ir.Prog.find plan.Core.Partition.prog fname)
           part
           (List.filter
              (fun (e : Core.Depend.reg_edge) -> e.Core.Depend.re_fn = fname)
              (Core.Depend.reg_edges dep))))
    plan.Core.Partition.parts;
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
    match Sim.Dyntask.chop trace ~parts with
    | exception Sim.Dyntask.Not_closed msg ->
      add
        (Diag.error ~rule:"dep/sound" Diag.program_loc
           "trace cannot be chopped into task instances: %s" msg)
    | instances ->
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
        (Sim.Memflow.observed trace ~instances)));
  List.sort Diag.compare !ds

(* The static half of check_deps, installed behind
   Core.Partition.validate_deps: the cost-directed search vets every
   candidate plan with it (candidates have no trace, so dep/sound is
   covered suite-wide once the refined plan is final).  Only the register
   edges are derived, function by function — the memory analysis
   Depend.analyze would add is never read here. *)
let check_deps_static (plan : Core.Partition.plan) =
  let ds =
    Smap.fold
      (fun fname (part : Core.Task.partition) acc ->
        let f = Ir.Prog.find plan.Core.Partition.prog fname in
        let m =
          Core.Depend.memo f ~included_calls:part.Core.Task.included_calls
        in
        check_deps_func fname f part
          (Core.Depend.func_edges m fname part).Core.Depend.f_regs
        @ acc)
      plan.Core.Partition.parts []
  in
  List.sort Diag.compare ds

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
   Core.Cost.plan_cost reads the plan's facts (derived once per plan); the
   second derivation makes fresh ones with Core.Partition.make_facts —
   address analysis, block frequencies, function weights — and, like
   every plan_cost, fresh dependence memos, so bit-comparing the two
   exercises the entire derivation chain for determinism (ordered folds
   only, no hash-order float sums). *)
let check_cost (plan : Core.Partition.plan) =
  let a = Core.Cost.plan_cost plan in
  let b =
    Core.Cost.cost_with
      (Core.Partition.make_facts plan.Core.Partition.prog)
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
