(* Static cross-task dependence edges (see depend.mli).  Register edges are
   computed from Analysis.Dataflow liveness plus private per-task fixpoints
   — NOT from Regcomm, which the dep/reg lint rule uses as the independent
   reference implementation.  Memory edges combine per-task address-region
   summaries from Analysis.Memdep. *)

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
  summary : Analysis.Memdep.t;
  regs : reg_edge list;
  mems : (task_id * task_id) list;
  mem_set : (string * int * string * int, unit) Hashtbl.t;
  ntasks : int;
  nloads : int;
  nstores : int;
  stores_tbl : (string * int, Analysis.Memdep.value list) Hashtbl.t;
  loads_tbl : (string * int, Analysis.Memdep.value list) Hashtbl.t;
}

let all_regs = Rset.of_list (List.init Ir.Reg.count Fun.id)

(* --- per-function static tables ------------------------------------------- *)

(* What happens to a register along a block's straight line: position of the
   first read (the terminator counts as position [Array.length insns]),
   a kill (defined before any read), or untouched pass-through. *)
type fevent = Read of int | Kill | Through

type fctx = {
  f : Ir.Func.t;
  included_calls : bool array;
  live_in : Rset.t array;
  first_event : fevent array array;  (* .(blk).(reg) *)
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

let make_fctx (f : Ir.Func.t) ~included_calls =
  let nb = Ir.Func.num_blocks f in
  let live_in =
    (Analysis.Dataflow.liveness ~call_uses:all_regs f).Analysis.Dataflow.live_in
  in
  let first_event = Array.init nb (fun _ -> Array.make Ir.Reg.count Through) in
  let last_def = Array.init nb (fun _ -> Array.make Ir.Reg.count (-1)) in
  let writes = Array.make nb Rset.empty in
  let sizes = Array.make nb 0 in
  Array.iter
    (fun (b : Ir.Block.t) ->
      let l = b.Ir.Block.label in
      let fe = first_event.(l) and ld = last_def.(l) in
      let decided = Array.make Ir.Reg.count false in
      Array.iteri
        (fun i insn ->
          List.iter
            (fun r ->
              if not decided.(r) then begin
                decided.(r) <- true;
                fe.(r) <- Read i
              end)
            (Ir.Insn.uses insn);
          List.iter
            (fun r ->
              if not decided.(r) then begin
                decided.(r) <- true;
                fe.(r) <- Kill
              end;
              ld.(r) <- i;
              writes.(l) <- Rset.add r writes.(l))
            (Ir.Insn.defs insn))
        b.Ir.Block.insns;
      let n = Array.length b.Ir.Block.insns in
      for r = 0 to Ir.Reg.count - 1 do
        if (not decided.(r)) && term_reads b.Ir.Block.term r then
          fe.(r) <- Read n
      done;
      if included_calls.(l) then writes.(l) <- all_regs;
      sizes.(l) <- Ir.Block.size b)
    f.Ir.Func.blocks;
  { f; included_calls; live_in; first_event; last_def; writes; sizes }

let tsucc ctx (task : Task.t) b =
  Task.intra_successors ctx.f ~included_calls:ctx.included_calls
    ~entry:task.Task.entry task.Task.blocks b

(* Minimum-distance fixpoint from the task entry over the task subgraph.
   [weight b] is the cost of passing through block [b]; [stop b] cuts
   propagation out of a block (its distance stays valid). *)
let task_dists ctx (task : Task.t) ~weight ~stop =
  let nb = Ir.Func.num_blocks ctx.f in
  let dist = Array.make nb max_int in
  dist.(task.Task.entry) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    Iset.iter
      (fun b ->
        if dist.(b) < max_int && not (stop b) then
          let d = dist.(b) + weight b in
          List.iter
            (fun s ->
              if d < dist.(s) then begin
                dist.(s) <- d;
                changed := true
              end)
            (tsucc ctx task b))
      task.Task.blocks
  done;
  dist

(* Per register: the minimum number of instructions the task executes
   before first reading it (-1 when not upward-exposed in the task). *)
let consumer_depths ctx (task : Task.t) =
  let depths = Array.make Ir.Reg.count (-1) in
  for r = 1 to Ir.Reg.count - 1 do
    let dist =
      task_dists ctx task
        ~weight:(fun b -> ctx.sizes.(b))
        ~stop:(fun b ->
          match ctx.first_event.(b).(r) with
          | Through -> false
          | Read _ | Kill -> true)
    in
    let best = ref max_int in
    Iset.iter
      (fun b ->
        if dist.(b) < max_int then
          match ctx.first_event.(b).(r) with
          | Read i -> best := min !best (dist.(b) + i)
          | Kill | Through -> ())
      task.Task.blocks;
    if !best < max_int then depths.(r) <- !best
  done;
  depths

(* Per register: the earliest forwardable last-write site and its height
   (static instructions from the entry through the write, inclusive).
   Registers with writes but no forwardable site fall back to the task's
   static size — the value only leaves at task exit. *)
let producer_heights ctx (task : Task.t) =
  (* may-write-after: registers some block strictly after [b] (within the
     task, cycles included) may still write *)
  let nb = Ir.Func.num_blocks ctx.f in
  let maw = Array.make nb Rset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    Iset.iter
      (fun b ->
        let s =
          List.fold_left
            (fun acc s -> Rset.union acc (Rset.union ctx.writes.(s) maw.(s)))
            maw.(b) (tsucc ctx task b)
        in
        if not (Rset.equal s maw.(b)) then begin
          maw.(b) <- s;
          changed := true
        end)
      task.Task.blocks
  done;
  let dist =
    task_dists ctx task ~weight:(fun b -> ctx.sizes.(b)) ~stop:(fun _ -> false)
  in
  let tsize = Iset.fold (fun b acc -> acc + ctx.sizes.(b)) task.Task.blocks 0 in
  let heights = Array.make Ir.Reg.count tsize in
  let sites = Array.make Ir.Reg.count None in
  for r = 1 to Ir.Reg.count - 1 do
    let best = ref None in
    Iset.iter
      (fun b ->
        let i = ctx.last_def.(b).(r) in
        (* an included call's mega-write follows every explicit def of its
           block, so no site there is ever the task's last write *)
        if
          i >= 0
          && (not ctx.included_calls.(b))
          && (not (Rset.mem r maw.(b)))
          && dist.(b) < max_int
        then
          let h = dist.(b) + i + 1 in
          match !best with
          | Some (h', b', i') when (h', b', i') <= (h, b, i) -> ()
          | _ -> best := Some (h, b, i))
      task.Task.blocks;
    match !best with
    | Some (h, b, i) ->
      heights.(r) <- h;
      sites.(r) <- Some (b, i)
    | None -> ()
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
  let heights, sites = producer_heights ctx t in
  {
    depths = consumer_depths ctx t;
    heights;
    sites;
    twrites =
      Iset.fold (fun b acc -> Rset.union acc ctx.writes.(b)) t.Task.blocks
        Rset.empty;
    exports =
      (if t.Task.has_ret || t.Task.calls_out <> [] then all_regs
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

type memo = { ctx : fctx; sums : tsum Tkey.t }

let memo f ~included_calls =
  { ctx = make_fctx f ~included_calls; sums = Tkey.create 64 }

let task_summary m t =
  match Tkey.find_opt m.sums t with
  | Some s -> s
  | None ->
    let s = summarize m.ctx t in
    Tkey.add m.sums t s;
    s

type func_edges = {
  f_regs : reg_edge list;
  f_exposed : (int * Ir.Reg.t * int) list;
}

let func_edges m fname (part : Task.partition) =
  if part.Task.included_calls <> m.ctx.included_calls then
    invalid_arg
      "Depend.func_edges: partition's included calls differ from the memo's";
  let sums = Array.map (task_summary m) part.Task.tasks in
  let exposed = ref [] in
  for ti = Array.length sums - 1 downto 0 do
    let depths = sums.(ti).depths in
    for r = Ir.Reg.count - 1 downto 1 do
      if depths.(r) >= 0 then exposed := (ti, r, depths.(r)) :: !exposed
    done
  done;
  let edges = ref [] in
  Array.iteri
    (fun p (pt : Task.t) ->
      let ps = sums.(p) in
      List.iter
        (fun tgt ->
          let c = part.Task.task_of_entry.(tgt) in
          if c >= 0 then
            for r = 1 to Ir.Reg.count - 1 do
              if
                Rset.mem r ps.twrites
                && Rset.mem r ps.exports
                && sums.(c).depths.(r) >= 0
              then
                edges :=
                  {
                    re_fn = fname;
                    re_src = p;
                    re_dst = c;
                    re_reg = r;
                    re_height = ps.heights.(r);
                    re_depth = sums.(c).depths.(r);
                    re_site = ps.sites.(r);
                  }
                  :: !edges
            done)
        pt.Task.targets)
    part.Task.tasks;
  {
    f_regs =
      List.sort
        (fun a b ->
          compare (a.re_src, a.re_dst, a.re_reg) (b.re_src, b.re_dst, b.re_reg))
        !edges;
    f_exposed = !exposed;
  }

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

let analyze ?(fi = false) ?summary (plan : Partition.plan) =
  let prog = plan.Partition.prog in
  let summary =
    match summary with
    | Some s -> s
    | None -> Analysis.Memdep.analyze ~sp:Interp.Run.initial_sp prog
  in
  let site_fn = if fi then Analysis.Memdep.fi_sites else Analysis.Memdep.sites in
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
        (site_fn summary fname);
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
  let stores_tbl = Hashtbl.create 64 and loads_tbl = Hashtbl.create 64 in
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
          Hashtbl.replace stores_tbl (fname, i) st;
          Hashtbl.replace loads_tbl (fname, i) ld;
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
  (* register edges per function *)
  let regs =
    Smap.fold
      (fun fname (part : Task.partition) acc ->
        let m =
          memo (Ir.Prog.find prog fname)
            ~included_calls:part.Task.included_calls
        in
        acc @ (func_edges m fname part).f_regs)
      plan.Partition.parts []
  in
  {
    summary;
    regs;
    mems = List.sort compare (List.rev !mems);
    mem_set;
    ntasks = !ntasks;
    nloads = !nloads;
    nstores = !nstores;
    stores_tbl;
    loads_tbl;
  }

let summary t = t.summary
let reg_edges t = t.regs
let mem_edges t = t.mems

let predicts_mem t ~src ~dst =
  Hashtbl.mem t.mem_set (src.fn, src.task, dst.fn, dst.task)

let num_tasks t = t.ntasks
let num_load_sites t = t.nloads
let num_store_sites t = t.nstores

let task_regions tbl id =
  match Hashtbl.find_opt tbl (id.fn, id.task) with Some l -> l | None -> []

let task_stores t id = task_regions t.stores_tbl id
let task_loads t id = task_regions t.loads_tbl id
