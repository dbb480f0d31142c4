module Iset = Task.Iset

type dep_edge = {
  producer : Ir.Block.label;
  consumer : Ir.Block.label;
  reg : Ir.Reg.t;
  freq : int;
}

type ctx = {
  f : Ir.Func.t;
  params : Heuristics.params;
  dfs : Analysis.Dfs.t;
  preds : Ir.Func.table;  (* what codependent sets walk back through *)
  loops : Analysis.Loops.t;
  included_calls : bool array;
  marks : Task.marks;  (* the stamps every [fits] count reads *)
}

let make_ctx params f ~included_calls =
  let dfs = Analysis.Dfs.compute f in
  let preds = Ir.Func.pred_table f in
  {
    f;
    params;
    dfs;
    preds;
    loops = Analysis.Loops.compute f (Analysis.Dom.compute dfs preds) preds;
    included_calls;
    marks = Task.marks f ~included_calls;
  }

(* paper: is_a_terminal_node — non-included calls and returns stop
   exploration at the block *)
let terminal_node ctx b =
  match (Ir.Func.block ctx.f b).Ir.Block.term with
  | Ir.Block.Call (_, _) -> not ctx.included_calls.(b)
  | Ir.Block.Ret | Ir.Block.Halt -> true
  | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ -> false

(* paper: is_a_terminal_edge — loop back edges, and edges entering or
   leaving a loop *)
let terminal_edge ctx ~src ~dst =
  Analysis.Dfs.is_retreating ctx.dfs ~src ~dst
  || Analysis.Loops.crosses_boundary ctx.loops ~src ~dst

let cf_admissible ctx ~entry included ~src ~dst =
  dst <> entry
  && (not (Iset.mem dst included))
  && not (terminal_edge ctx ~src ~dst)

(* Greedy growth (paper's dependence_task structure).  [steer] decides
   whether an included child is pushed onto the exploration queue; the
   control-flow heuristic always explores, the data-dependence heuristic
   explores only codependent children. *)
let grow_task ?(cut = fun _ -> false) ctx ~entry ~steer =
  let included = ref (Iset.singleton entry) in
  let feasible = ref (Iset.singleton entry) in
  let q = Queue.create () in
  Queue.add entry q;
  let fits set =
    Task.count_hw_targets ctx.marks ~entry set
    <= ctx.params.Heuristics.max_targets
  in
  while not (Queue.is_empty q) do
    let b = Queue.pop q in
    if
      (not (terminal_node ctx b))
      && Iset.cardinal !included < ctx.params.Heuristics.max_task_blocks
    then
      Ir.Block.iter_succs
        (fun ch ->
          if
            (not (cut ch))
            && cf_admissible ctx ~entry !included ~src:b ~dst:ch
          then begin
            included := Iset.add ch !included;
            if fits !included then feasible := !included;
            if steer !included ch then Queue.add ch q
          end)
        (Ir.Func.block ctx.f b)
  done;
  !feasible

(* Drive task growth from a worklist of exposed entries until closure. *)
let close_partition ctx ~grow =
  let n = Ir.Func.num_blocks ctx.f in
  let task_of_entry = Array.make n (-1) in
  let tasks = ref [] in
  let count = ref 0 in
  let wl = Queue.create () in
  Queue.add Ir.Func.entry wl;
  while not (Queue.is_empty wl) do
    let e = Queue.pop wl in
    if task_of_entry.(e) = -1 then begin
      let blocks = grow e in
      let t = Task.of_blocks ctx.f ~included_calls:ctx.included_calls ~entry:e blocks in
      task_of_entry.(e) <- !count;
      incr count;
      tasks := t :: !tasks;
      List.iter (fun tgt -> if tgt <> e then Queue.add tgt wl) t.Task.targets;
      List.iter (fun cont -> Queue.add cont wl)
        (Task.forced_entries ctx.f ~included_calls:ctx.included_calls
           t.Task.blocks)
    end
  done;
  {
    Task.fname = ctx.f.Ir.Func.name;
    tasks = Array.of_list (List.rev !tasks);
    task_of_entry;
    included_calls = ctx.included_calls;
  }

let basic_block f =
  let n = Ir.Func.num_blocks f in
  let included_calls = Array.make n false in
  let tasks =
    Array.init n (fun e ->
        Task.of_blocks f ~included_calls ~entry:e (Iset.singleton e))
  in
  {
    Task.fname = f.Ir.Func.name;
    tasks;
    task_of_entry = Array.init n (fun i -> i);
    included_calls;
  }

let control_flow params f ~included_calls =
  let ctx = make_ctx params f ~included_calls in
  close_partition ctx ~grow:(fun entry ->
      grow_task ctx ~entry ~steer:(fun _ _ -> true))

(* Control-flow growth under forced boundaries: blocks in [cuts] are never
   absorbed into another task, so each reachable cut heads its own task
   (closure discovers it as a target of whatever task contains one of its
   predecessors).  This is the mechanism the cost-directed [fb] search
   uses to move task heads along dominator edges.  Staged: the context
   (DFS numbering, predecessor table, loop forest, target-count marks)
   does not depend on the cuts, so a search applies the first three
   arguments once and scores every candidate with the result. *)
let with_cuts params f ~included_calls =
  let ctx = make_ctx params f ~included_calls in
  fun ~cuts ->
    close_partition ctx ~grow:(fun entry ->
        grow_task ctx ~entry
          ~cut:(fun b -> Iset.mem b cuts)
          ~steer:(fun _ _ -> true))

let data_dependence params f ~included_calls ~deps =
  let ctx = make_ctx params f ~included_calls in
  (* codependent sets are cached per (producer, consumer) pair, one byte
     per block *)
  let n = Ir.Func.num_blocks f in
  let codep_cache = Hashtbl.create 32 in
  let codep d =
    let key = (d.producer * n) + d.consumer in
    match Hashtbl.find codep_cache key with
    | s -> s
    | exception Not_found ->
      let s =
        Analysis.Reach.codependent ctx.f ctx.preds ~producer:d.producer
          ~consumer:d.consumer
      in
      Hashtbl.replace codep_cache key s;
      s
  in
  let in_codep d b = Bytes.get (codep d) b <> '\000' in
  (* Per the paper's task_selection(): dependences are processed in
     decreasing frequency order, each expansion steering the traversal along
     the codependent set of exactly one dependence edge.  Exploration stops
     once no prioritised dependence rooted in the task remains open, which is
     what makes data-dependence tasks terminate earlier (and run smaller)
     than control-flow tasks.  A seed touching no dependence at all falls
     back to plain control-flow growth. *)
  let grow entry =
    let touches_any_dep =
      List.exists (fun d -> d.producer = entry || in_codep d entry) deps
    in
    if not touches_any_dep then
      grow_task ctx ~entry ~steer:(fun _ _ -> true)
    else begin
      (* the dependence currently being chased, in priority order *)
      let current = ref None in
      let pick included =
        current :=
          List.find_opt
            (fun d ->
              Iset.mem d.producer included
              && (not (Iset.mem d.consumer included))
              && d.consumer <> entry)
            deps
      in
      let steer included ch =
        (match !current with
        | Some d
          when (not (Iset.mem d.producer included))
               || Iset.mem d.consumer included ->
          pick included
        | Some _ -> ()
        | None -> pick included);
        match !current with
        | None -> false (* all rooted dependences captured: stop *)
        | Some d -> in_codep d ch
      in
      grow_task ctx ~entry ~steer
    end
  in
  close_partition ctx ~grow
