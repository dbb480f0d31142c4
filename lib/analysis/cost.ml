type model = {
  trip : float;
  exit_bias : float;
  fwd_base : float;
  slack_cap : float;
  expose_rate : float;
  expose_horizon : float;
  mem_penalty : float;
  mis_rate : float;
  per_task_overhead : float;
}

let default_model =
  {
    trip = 8.0;
    exit_bias = 0.25;
    fwd_base = 4.0;
    slack_cap = 12.0;
    expose_rate = 6.0;
    expose_horizon = 24.0;
    mem_penalty = 4.0;
    mis_rate = 0.05;
    per_task_overhead = 2.0;
  }

let block_freqs (f : Ir.Func.t) =
  let model = default_model in
  let n = Ir.Func.num_blocks f in
  let dfs = Dfs.compute f in
  let loops = Loops.compute f in
  let dom = Dom.compute f in
  (* loop-nest depth: how many natural loops contain each block *)
  let depth = Array.make n 0 in
  List.iter
    (fun (l : Loops.loop) ->
      List.iter (fun b -> depth.(b) <- depth.(b) + 1) l.Loops.blocks)
    loops.Loops.loops;
  let freq = Array.make n 0.0 in
  if n > 0 then freq.(Ir.Func.entry) <- 1.0;
  (* reverse postorder puts every forward-edge source before its target, so
     one pass suffices: by the time a block is processed its forward-in
     mass is complete *)
  Array.iter
    (fun b ->
      if loops.Loops.is_header.(b) then freq.(b) <- freq.(b) *. model.trip;
      let succs = Ir.Func.successors f b in
      let weight s =
        if Dfs.is_retreating dfs ~src:b ~dst:s then model.trip -. 1.0
        else if depth.(s) < depth.(b) then model.exit_bias
        else 1.0
      in
      let total = List.fold_left (fun acc s -> acc +. weight s) 0.0 succs in
      if total > 0.0 then
        List.iter
          (fun s ->
            if not (Dfs.is_retreating dfs ~src:b ~dst:s) then
              freq.(s) <- freq.(s) +. (freq.(b) *. weight s /. total))
          succs)
    dfs.Dfs.rpo;
  (* a reachable block fed only by retreating edges (irreducible shapes)
     got no mass; inherit the immediate dominator's, which appears earlier
     in reverse postorder and is therefore already final *)
  Array.iter
    (fun b ->
      if freq.(b) <= 0.0 then begin
        let d = dom.Dom.idom.(b) in
        if d >= 0 && d <> b then freq.(b) <- freq.(d)
      end)
    dfs.Dfs.rpo;
  freq

(* Recomputing from the bases every round makes the iteration a bounded
   unrolling of the call-graph recurrence: exact for call DAGs deeper than
   no workload's, merely finite (and capped) for recursion. *)
let weight_rounds = 12
let weight_cap = 1e9

let func_weights (prog : Ir.Prog.t) ~freqs =
  let base name = if name = prog.Ir.Prog.main then 1.0 else 0.0 in
  let calls =
    Ir.Prog.Smap.mapi
      (fun name (f : Ir.Func.t) ->
        let fr = freqs name in
        let acc = ref [] in
        Array.iteri
          (fun b (blk : Ir.Block.t) ->
            match blk.Ir.Block.term with
            | Ir.Block.Call (callee, _) -> acc := (callee, fr.(b)) :: !acc
            | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _
            | Ir.Block.Ret | Ir.Block.Halt -> ())
          f.Ir.Func.blocks;
        List.rev !acc)
      prog.Ir.Prog.funcs
  in
  let w = ref (Ir.Prog.Smap.mapi (fun name _ -> base name) prog.Ir.Prog.funcs) in
  for _ = 1 to weight_rounds do
    let next =
      ref (Ir.Prog.Smap.mapi (fun name _ -> base name) prog.Ir.Prog.funcs)
    in
    Ir.Prog.Smap.iter
      (fun name cs ->
        let wf = Ir.Prog.Smap.find name !w in
        if wf > 0.0 then
          List.iter
            (fun (callee, cf) ->
              match Ir.Prog.Smap.find_opt callee !next with
              | Some cur ->
                next :=
                  Ir.Prog.Smap.add callee
                    (Float.min weight_cap (cur +. (wf *. cf)))
                    !next
              | None -> ())
            cs)
      calls;
    w := !next
  done;
  !w

type task_obs = {
  o_weight : float;
  o_size : float;
  o_targets : int;
}

type edge_obs = {
  e_weight : float;
  e_lat : float;
}

type t = {
  c_useful : float;
  c_data_wait : float;
  c_ctrl_squash : float;
  c_mem_squash : float;
  c_load_imbalance : float;
  c_overhead : float;
}

let zero =
  {
    c_useful = 0.0;
    c_data_wait = 0.0;
    c_ctrl_squash = 0.0;
    c_mem_squash = 0.0;
    c_load_imbalance = 0.0;
    c_overhead = 0.0;
  }

let add a b =
  {
    c_useful = a.c_useful +. b.c_useful;
    c_data_wait = a.c_data_wait +. b.c_data_wait;
    c_ctrl_squash = a.c_ctrl_squash +. b.c_ctrl_squash;
    c_mem_squash = a.c_mem_squash +. b.c_mem_squash;
    c_load_imbalance = a.c_load_imbalance +. b.c_load_imbalance;
    c_overhead = a.c_overhead +. b.c_overhead;
  }

let penalties c =
  c.c_data_wait +. c.c_ctrl_squash +. c.c_mem_squash +. c.c_load_imbalance
  +. c.c_overhead

let scalar ~useful_base c = penalties c /. Float.max 1.0 useful_base

let evaluate ~tasks ~reg_edges ~mem_edges () =
  let model = default_model in
  let useful =
    List.fold_left (fun a t -> a +. (t.o_weight *. t.o_size)) 0.0 tasks
  in
  let wsum = List.fold_left (fun a t -> a +. t.o_weight) 0.0 tasks in
  let fold_edges = List.fold_left (fun a e -> a +. (e.e_weight *. e.e_lat)) 0.0 in
  let ctrl =
    List.fold_left
      (fun a t ->
        let extra = float_of_int (max 0 (t.o_targets - 1)) in
        a +. (t.o_weight *. model.mis_rate *. extra *. t.o_size))
      0.0 tasks
  in
  let imb =
    if wsum <= 0.0 then 0.0
    else begin
      let mean = useful /. wsum in
      List.fold_left
        (fun a t -> a +. (t.o_weight *. Float.abs (t.o_size -. mean)))
        0.0 tasks
    end
  in
  {
    c_useful = useful;
    c_data_wait = fold_edges reg_edges;
    c_ctrl_squash = ctrl;
    c_mem_squash = fold_edges mem_edges;
    c_load_imbalance = imb;
    c_overhead = model.per_task_overhead *. wsum;
  }

type shares = {
  s_useful : float;
  s_data_wait : float;
  s_ctrl_squash : float;
  s_mem_squash : float;
  s_load_imbalance : float;
  s_overhead : float;
}

let shares c =
  let total = c.c_useful +. penalties c in
  if not (Float.is_finite total) || total <= 0.0 then
    {
      s_useful = 1.0;
      s_data_wait = 0.0;
      s_ctrl_squash = 0.0;
      s_mem_squash = 0.0;
      s_load_imbalance = 0.0;
      s_overhead = 0.0;
    }
  else
    {
      s_useful = c.c_useful /. total;
      s_data_wait = c.c_data_wait /. total;
      s_ctrl_squash = c.c_ctrl_squash /. total;
      s_mem_squash = c.c_mem_squash /. total;
      s_load_imbalance = c.c_load_imbalance /. total;
      s_overhead = c.c_overhead /. total;
    }

let shares_well_formed s =
  let comps =
    [
      s.s_useful; s.s_data_wait; s.s_ctrl_squash; s.s_mem_squash;
      s.s_load_imbalance; s.s_overhead;
    ]
  in
  List.for_all (fun x -> Float.is_finite x && x >= 0.0 && x <= 1.0) comps
  && Float.abs (List.fold_left ( +. ) 0.0 comps -. 1.0) <= 1e-6
