(* Static cross-task dependence edges (see depend.mli).  Register edges are
   computed from the function's sound liveness (the caller's: a plan's is
   Partition.live_in) plus private per-task fixpoints — NOT from Regcomm,
   which the dep/reg lint rule uses as the independent reference
   implementation.  Each task summary builds the task's subgraph
   once (blocks as an array, intra-task successors as one row of positions
   per block in a flat array) and
   runs its 63 per-register fixpoints and its distance pass over that
   subgraph and one reused distance buffer.  A partition's register edges
   and exposed reads are visited from those summaries (iter_func_edges),
   allocating nothing per edge; func_edges is their list view and
   reg_edges a whole plan's.  Memory edges (analyze) combine per-task
   address-region summaries from the plan's Analysis.Memdep analysis
   (Partition.facts). *)

module Smap = Ir.Prog.Smap
module Rset = Analysis.Dataflow.Regset
module Iset = Task.Iset

type task_id = { fn : string; task : int }

type reg_edge = {
  re_fn : string;
  re_src : int;
  re_dst : int;
  re_reg : Ir.Reg.t;
  re_height : int;
  re_depth : int;
  re_site : (Ir.Block.label * int) option;
}

type t = {
  mems : (task_id * task_id) list;
  mem_set : (string * int * string * int, unit) Hashtbl.t;
  ntasks : int;
  nloads : int;
  nstores : int;
}

(* --- per-function static tables ------------------------------------------- *)

(* What happens to a register along a block's straight line, as one int:
   the position of its first read (k >= 0; the terminator counts as
   position [Array.length insns]), [kill] when it is defined before any
   read, or [through] when the block leaves it alone. *)
let through = -1
let kill = -2

(* Per block, one row of [Ir.Reg.count] ints for first events and one for
   last defs: a row is a small block the minor heap takes, where one
   [nb * count] array per function would go straight to the major heap. *)
type fctx = {
  f : Ir.Func.t;
  included_calls : bool array;
  live_in : Rset.t array;  (* the caller's sound liveness *)
  first_event : int array array;  (* .(blk).(reg) *)
  last_def : int array array;  (* .(blk).(reg); -1 = no explicit def *)
  writes : Rset.t array;  (* per block, included-call mega-writes folded in *)
  sizes : int array;
}

let term_reads (term : Ir.Block.terminator) r =
  match term with
  | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> c = r
  | Ir.Block.Call _ | Ir.Block.Ret ->
    (* registers are architecturally global: the callee (resp. the caller
       after a return) may read anything *)
    true
  | Ir.Block.Jump _ | Ir.Block.Halt -> false

let make_fctx (f : Ir.Func.t) ~live_in ~included_calls =
  let nb = Ir.Func.num_blocks f in
  let first_event = Array.make nb [||] and last_def = Array.make nb [||] in
  let writes = Array.make nb Rset.empty in
  let sizes = Array.make nb 0 in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      let fe = Array.make Ir.Reg.count through in
      let ld = Array.make Ir.Reg.count (-1) in
      let w = ref Rset.empty in
      let insns = b.Ir.Block.insns in
      let n = Array.length insns in
      let pos = ref 0 in
      let read r = if fe.(r) = through then fe.(r) <- !pos in
      for i = 0 to n - 1 do
        pos := i;
        Ir.Insn.iter_uses read insns.(i);
        let r = Ir.Insn.def insns.(i) in
        if r >= 0 then begin
          if fe.(r) = through then fe.(r) <- kill;
          ld.(r) <- i;
          w := Rset.add r !w
        end
      done;
      for r = 0 to Ir.Reg.count - 1 do
        if fe.(r) = through && term_reads b.Ir.Block.term r then fe.(r) <- n
      done;
      first_event.(l) <- fe;
      last_def.(l) <- ld;
      writes.(l) <- (if included_calls.(l) then Rset.all else !w);
      sizes.(l) <- Ir.Block.size b)
    f.Ir.Func.blocks;
  { f; included_calls; live_in; first_event; last_def; writes; sizes }

(* One task's subgraph, built once per summary: its blocks in ascending
   label order, each block's intra-task successors (Task.iter_intra_successors)
   as positions in that array, position [i]'s in
   [succs.(first.(i))] .. [succs.(first.(i + 1) - 1)], and one distance
   buffer, by position, that every fixpoint of the summary reuses. *)
type sub = {
  blocks : int array;
  first : int array;
  succs : int array;
  entry : int;  (* position of the task entry *)
  dist : int array;
}

let position blocks b =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    if lo > hi then invalid_arg "Depend: task entry outside its blocks"
    else if blocks.(mid) = b then mid
    else if blocks.(mid) < b then go (mid + 1) hi
    else go lo (mid - 1)
  in
  go 0 (Array.length blocks - 1)

let subgraph ctx (task : Task.t) =
  let nt = Iset.cardinal task.Task.blocks in
  let blocks = Array.make nt 0 in
  ignore
    (Iset.fold
       (fun b i ->
         blocks.(i) <- b;
         i + 1)
       task.Task.blocks 0);
  let walk visit =
    Task.iter_intra_successors ctx.f ~included_calls:ctx.included_calls
      ~entry:task.Task.entry task.Task.blocks visit
  in
  (* count each position's successors into [first.(i + 1)], sum them into
     starts, then place the rows one after another *)
  let first = Array.make (nt + 1) 0 and pos = ref 0 in
  let count = walk (fun _ -> first.(!pos + 1) <- first.(!pos + 1) + 1) in
  for i = 0 to nt - 1 do
    pos := i;
    count blocks.(i)
  done;
  for i = 1 to nt do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let succs = Array.make first.(nt) 0 in
  let place =
    walk (fun s ->
        succs.(!pos) <- position blocks s;
        incr pos)
  in
  pos := 0;
  Array.iter place blocks;
  {
    blocks;
    first;
    succs;
    entry = position blocks task.Task.entry;
    dist = Array.make nt max_int;
  }

(* Minimum-distance fixpoint from the task entry over the subgraph, into
   [sub.dist]; passing through a block costs its static size.  With
   [stop >= 0], propagation stops out of every block whose first event on
   register [stop] is a read or a kill (its own distance stays valid). *)
let task_dists ctx sub ~stop =
  let dist = sub.dist in
  Array.fill dist 0 (Array.length dist) max_int;
  dist.(sub.entry) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length dist - 1 do
      let b = sub.blocks.(i) in
      if
        dist.(i) < max_int
        && (stop < 0 || ctx.first_event.(b).(stop) = through)
      then begin
        let d = dist.(i) + ctx.sizes.(b) in
        for k = sub.first.(i) to sub.first.(i + 1) - 1 do
          let j = sub.succs.(k) in
          if d < dist.(j) then begin
            dist.(j) <- d;
            changed := true
          end
        done
      end
    done
  done

(* Per register: the minimum number of instructions the task executes
   before first reading it (-1 when not upward-exposed in the task). *)
let consumer_depths ctx sub =
  let depths = Array.make Ir.Reg.count (-1) in
  let dist = sub.dist and blocks = sub.blocks in
  for r = 1 to Ir.Reg.count - 1 do
    task_dists ctx sub ~stop:r;
    let best = ref max_int in
    for i = 0 to Array.length blocks - 1 do
      let k = ctx.first_event.(blocks.(i)).(r) in
      if k >= 0 && dist.(i) < max_int && dist.(i) + k < !best then
        best := dist.(i) + k
    done;
    if !best < max_int then depths.(r) <- !best
  done;
  depths

(* Per register: the earliest forwardable last-write site and its height
   (static instructions from the entry through the write, inclusive).
   Registers with writes but no forwardable site fall back to the task's
   static size — the value only leaves at task exit. *)
let producer_heights ctx sub =
  (* may-write-after: registers some block strictly after [b] (within the
     task, cycles included) may still write; by position *)
  let nt = Array.length sub.blocks in
  let maw = Array.make nt Rset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to nt - 1 do
      let s = ref maw.(i) in
      for k = sub.first.(i) to sub.first.(i + 1) - 1 do
        let j = sub.succs.(k) in
        s := Rset.union !s (Rset.union ctx.writes.(sub.blocks.(j)) maw.(j))
      done;
      if not (Rset.equal !s maw.(i)) then begin
        maw.(i) <- !s;
        changed := true
      end
    done
  done;
  task_dists ctx sub ~stop:(-1);
  let dist = sub.dist in
  let tsize = Array.fold_left (fun acc b -> acc + ctx.sizes.(b)) 0 sub.blocks in
  let heights = Array.make Ir.Reg.count tsize in
  let sites = Array.make Ir.Reg.count None in
  for r = 1 to Ir.Reg.count - 1 do
    (* the (height, block, index)-least site; blocks ascend, so a tie on
       height keeps the first *)
    let best = ref (-1) and best_h = ref max_int in
    for p = 0 to nt - 1 do
      let b = sub.blocks.(p) in
      let i = ctx.last_def.(b).(r) in
      (* an included call's mega-write follows every explicit def of its
         block, so no site there is ever the task's last write *)
      if
        i >= 0
        && (not ctx.included_calls.(b))
        && (not (Rset.mem r maw.(p)))
        && dist.(p) < max_int
        && dist.(p) + i + 1 < !best_h
      then begin
        best := p;
        best_h := dist.(p) + i + 1
      end
    done;
    if !best >= 0 then begin
      let b = sub.blocks.(!best) in
      heights.(r) <- !best_h;
      sites.(r) <- Some (b, ctx.last_def.(b).(r))
    end
  done;
  (heights, sites)

(* --- per-task summaries and their memo ------------------------------------- *)

(* Everything the register edges and exposed reads need from one task.  A
   pure function of the function, its included calls and the task record,
   so a boundary move that leaves a task untouched can reuse it. *)
type tsum = {
  depths : int array;
  heights : int array;
  sites : (Ir.Block.label * int) option array;
  twrites : Rset.t;
  exports : Rset.t;
}

let summarize ctx (t : Task.t) =
  let sub = subgraph ctx t in
  let heights, sites = producer_heights ctx sub in
  {
    depths = consumer_depths ctx sub;
    heights;
    sites;
    twrites =
      Iset.fold (fun b acc -> Rset.union acc ctx.writes.(b)) t.Task.blocks
        Rset.empty;
    exports =
      (if t.Task.has_ret || t.Task.calls_out <> [] then Rset.all
       else
         List.fold_left
           (fun acc tgt -> Rset.union acc ctx.live_in.(tgt))
           Rset.empty t.Task.targets);
  }

(* Keyed by the whole task record: targets, out-calls and the return flag
   follow from (entry, blocks) for any Task.of_blocks task, and comparing
   them too keeps a hand-built task from aliasing a derived one. *)
module Tkey = Hashtbl.Make (struct
  type t = Task.t

  let equal (a : Task.t) (b : Task.t) =
    a.Task.entry = b.Task.entry
    && Iset.equal a.Task.blocks b.Task.blocks
    && a.Task.targets = b.Task.targets
    && a.Task.calls_out = b.Task.calls_out
    && a.Task.has_ret = b.Task.has_ret

  let hash (t : Task.t) =
    Iset.fold (fun b h -> (h * 31) + b) t.Task.blocks t.Task.entry
end)

(* [dsts] is the buffer one producer's target tasks are ordered in; it
   grows to the longest target list the memo has seen. *)
type memo = { ctx : fctx; sums : tsum Tkey.t; mutable dsts : int array }

let memo f ~live_in ~included_calls =
  if Array.length live_in <> Ir.Func.num_blocks f then
    invalid_arg
      (Printf.sprintf "Depend.memo: %d live-in sets for %s's %d blocks"
         (Array.length live_in) f.Ir.Func.name (Ir.Func.num_blocks f));
  {
    ctx = make_fctx f ~live_in ~included_calls;
    sums = Tkey.create 64;
    dsts = Array.make 8 0;
  }

let task_summary m t =
  match Tkey.find_opt m.sums t with
  | Some s -> s
  | None ->
    let s = summarize m.ctx t in
    Tkey.add m.sums t s;
    s

(* The tasks entered at [targets] (labels no task enters skipped) into
   [buf] from position [n] on, kept ascending by insertion; returns how
   many the buffer holds.  A task entered twice stays twice. *)
let rec order_dsts buf task_of_entry n = function
  | [] -> n
  | tgt :: rest ->
    let c = task_of_entry.(tgt) in
    if c < 0 then order_dsts buf task_of_entry n rest
    else begin
      let k = ref n in
      while !k > 0 && buf.(!k - 1) > c do
        buf.(!k) <- buf.(!k - 1);
        decr k
      done;
      buf.(!k) <- c;
      order_dsts buf task_of_entry (n + 1) rest
    end

let iter_func_edges m (part : Task.partition) ~reg ~exposed =
  if part.Task.included_calls <> m.ctx.included_calls then
    invalid_arg
      "Depend.iter_func_edges: partition's included calls differ from the \
       memo's";
  let tasks = part.Task.tasks in
  let sums = Array.map (task_summary m) tasks in
  for p = 0 to Array.length tasks - 1 do
    let ps = sums.(p) in
    let targets = tasks.(p).Task.targets in
    let len = List.length targets in
    if len > Array.length m.dsts then
      m.dsts <- Array.make (max len (2 * Array.length m.dsts)) 0;
    let buf = m.dsts in
    let n = order_dsts buf part.Task.task_of_entry 0 targets in
    (* each consumer once, with the number of targets that enter it *)
    let k = ref 0 in
    while !k < n do
      let c = buf.(!k) in
      let next = ref (!k + 1) in
      while !next < n && buf.(!next) = c do
        incr next
      done;
      let depths = sums.(c).depths in
      for r = 1 to Ir.Reg.count - 1 do
        if Rset.mem r ps.twrites && Rset.mem r ps.exports && depths.(r) >= 0
        then
          for _ = !k to !next - 1 do
            reg ~src:p ~dst:c ~reg:r ~height:ps.heights.(r) ~depth:depths.(r)
              ~site:ps.sites.(r)
          done
      done;
      k := !next
    done
  done;
  for ti = 0 to Array.length sums - 1 do
    let depths = sums.(ti).depths in
    for r = 1 to Ir.Reg.count - 1 do
      if depths.(r) >= 0 then exposed ~task:ti ~reg:r ~depth:depths.(r)
    done
  done

type func_edges = {
  f_regs : reg_edge list;
  f_exposed : (int * Ir.Reg.t * int) list;
}

let func_edges m fname part =
  let regs = ref [] and exposed = ref [] in
  iter_func_edges m part
    ~reg:(fun ~src ~dst ~reg ~height ~depth ~site ->
      regs :=
        {
          re_fn = fname;
          re_src = src;
          re_dst = dst;
          re_reg = reg;
          re_height = height;
          re_depth = depth;
          re_site = site;
        }
        :: !regs)
    ~exposed:(fun ~task ~reg ~depth ->
      exposed := (task, reg, depth) :: !exposed);
  { f_regs = List.rev !regs; f_exposed = List.rev !exposed }

let reg_edges (plan : Partition.plan) =
  List.concat_map
    (fun (fname, (part : Task.partition)) ->
      let m =
        memo
          (Ir.Prog.find plan.Partition.prog fname)
          ~live_in:(Partition.live_in plan fname)
          ~included_calls:part.Task.included_calls
      in
      (func_edges m fname part).f_regs)
    (Smap.bindings plan.Partition.parts)

(* --- memory edges ---------------------------------------------------------- *)

let dedup_regions rs =
  List.rev
    (List.fold_left
       (fun acc r ->
         if List.exists (Analysis.Memdep.equal r) acc then acc else r :: acc)
       [] rs)

(* Call-graph closure: every function reachable from [name], itself
   included — the functions an included call at [name] may drag into the
   enclosing task (Dyntask attributes the whole call subtree to it). *)
let closure prog =
  let memo = Hashtbl.create 16 in
  let reach name =
    match Hashtbl.find_opt memo name with
    | Some l -> l
    | None ->
      (* break call cycles: publish the partial answer first *)
      Hashtbl.replace memo name [ name ];
      let seen = ref [ name ] in
      let rec visit n =
        if Ir.Prog.has_func prog n then
          List.iter
            (fun g ->
              if not (List.mem g !seen) then begin
                seen := g :: !seen;
                visit g
              end)
            (Ir.Func.callees (Ir.Prog.find prog n))
      in
      visit name;
      Hashtbl.replace memo name !seen;
      !seen
  in
  reach

let analyze ?(fi = false) (plan : Partition.plan) =
  let prog = plan.Partition.prog in
  let sites =
    (if fi then Analysis.Memdep.fi_sites else Analysis.Memdep.sites)
      (Partition.facts plan).Partition.mem
  in
  let reach = closure prog in
  (* per-function region groupings *)
  let by_blk = Hashtbl.create 16 in
  let func_regions = Hashtbl.create 16 in
  let nloads = ref 0 and nstores = ref 0 in
  List.iter
    (fun fname ->
      let f = Ir.Prog.find prog fname in
      let nb = Ir.Func.num_blocks f in
      let st = Array.make nb [] and ld = Array.make nb [] in
      let all_st = ref [] and all_ld = ref [] in
      List.iter
        (fun (s : Analysis.Memdep.site) ->
          if s.Analysis.Memdep.store then begin
            incr nstores;
            st.(s.Analysis.Memdep.blk) <-
              s.Analysis.Memdep.region :: st.(s.Analysis.Memdep.blk);
            all_st := s.Analysis.Memdep.region :: !all_st
          end
          else begin
            incr nloads;
            ld.(s.Analysis.Memdep.blk) <-
              s.Analysis.Memdep.region :: ld.(s.Analysis.Memdep.blk);
            all_ld := s.Analysis.Memdep.region :: !all_ld
          end)
        (sites fname);
      Hashtbl.replace by_blk fname (st, ld);
      Hashtbl.replace func_regions fname
        (dedup_regions !all_st, dedup_regions !all_ld))
    (Ir.Prog.func_names prog);
  let closure_regions = Hashtbl.create 16 in
  let closure_of g =
    match Hashtbl.find_opt closure_regions g with
    | Some r -> r
    | None ->
      let st, ld =
        List.fold_left
          (fun (st, ld) n ->
            match Hashtbl.find_opt func_regions n with
            | Some (s, l) -> (s @ st, l @ ld)
            | None -> (st, ld))
          ([], []) (reach g)
      in
      let r = (dedup_regions st, dedup_regions ld) in
      Hashtbl.replace closure_regions g r;
      r
  in
  (* per-task summaries, in deterministic (function, task index) order *)
  let tinfos = ref [] in
  let ntasks = ref 0 in
  Smap.iter
    (fun fname (part : Task.partition) ->
      let f = Ir.Prog.find prog fname in
      let st_blk, ld_blk = Hashtbl.find by_blk fname in
      Array.iteri
        (fun i (task : Task.t) ->
          incr ntasks;
          let st = ref [] and ld = ref [] in
          Iset.iter
            (fun b ->
              st := st_blk.(b) @ !st;
              ld := ld_blk.(b) @ !ld;
              if part.Task.included_calls.(b) then
                match (Ir.Func.block f b).Ir.Block.term with
                | Ir.Block.Call (g, _) ->
                  let cs, cl = closure_of g in
                  st := cs @ !st;
                  ld := cl @ !ld
                | _ -> ())
            task.Task.blocks;
          let st = dedup_regions !st and ld = dedup_regions !ld in
          let id = { fn = fname; task = i } in
          let joined l =
            List.fold_left Analysis.Memdep.join Analysis.Memdep.bot l
          in
          tinfos := (id, st, ld, joined st, joined ld) :: !tinfos)
        part.Task.tasks)
    plan.Partition.parts;
  let tinfos = Array.of_list (List.rev !tinfos) in
  let mem_set = Hashtbl.create 256 in
  let mems = ref [] in
  Array.iter
    (fun (src, st, _, jst, _) ->
      if st <> [] then
        Array.iter
          (fun (dst, _, ld, _, jld) ->
            if
              ld <> []
              && Analysis.Memdep.may_intersect jst jld
              && List.exists
                   (fun s ->
                     List.exists (Analysis.Memdep.may_intersect s) ld)
                   st
            then begin
              Hashtbl.replace mem_set (src.fn, src.task, dst.fn, dst.task) ();
              mems := (src, dst) :: !mems
            end)
          tinfos)
    tinfos;
  {
    mems = List.sort compare (List.rev !mems);
    mem_set;
    ntasks = !ntasks;
    nloads = !nloads;
    nstores = !nstores;
  }

let mem_edges t = t.mems

let predicts_mem t ~src ~dst =
  Hashtbl.mem t.mem_set (src.fn, src.task, dst.fn, dst.task)

let num_tasks t = t.ntasks
let num_load_sites t = t.nloads
let num_store_sites t = t.nstores
