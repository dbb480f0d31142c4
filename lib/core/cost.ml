module Smap = Ir.Prog.Smap
module Iset = Task.Iset

let add_region r rs =
  if List.exists (Analysis.Memdep.equal r) rs then rs else r :: rs

(* Predicted raw scores of one function's partition.  Task sizes count own
   blocks only (an included callee's work is already counted under the
   callee function's weight), so summing useful over tasks of every
   function reproduces the partition-independent base up to task overlap
   and unreachable blocks. *)
let func_cost (facts : Partition.facts) memo fname (f : Ir.Func.t)
    (part : Task.partition) =
  let model = Analysis.Cost.default_model in
  let fw = Smap.find fname facts.Partition.weights in
  if fw <= 0.0 then Analysis.Cost.zero
  else begin
    let fr = Hashtbl.find facts.Partition.freqs fname in
    let nt = Array.length part.Task.tasks in
    let weight_of = Array.make nt 0.0 in
    let tasks =
      Array.to_list
        (Array.mapi
           (fun i (t : Task.t) ->
             let fe = fr.(t.Task.entry) in
             let w = fw *. fe in
             weight_of.(i) <- w;
             let size =
               Iset.fold
                 (fun b acc ->
                   acc
                   +. fr.(b)
                      *. float_of_int (Ir.Block.size (Ir.Func.block f b)))
                 t.Task.blocks 0.0
             in
             let o_size = if fe > 0.0 then size /. fe else 0.0 in
             {
               Analysis.Cost.o_weight = w;
               o_size;
               o_targets = Task.num_hw_targets t;
             })
           part.Task.tasks)
    in
    let edges = Depend.func_edges memo fname part in
    let reg_edges =
      List.map
        (fun (e : Depend.reg_edge) ->
          let w =
            if e.Depend.re_dst >= 0 && e.Depend.re_dst < nt then
              weight_of.(e.Depend.re_dst)
            else 0.0
          in
          let slack = float_of_int (e.Depend.re_height - e.Depend.re_depth) in
          {
            Analysis.Cost.e_weight = w;
            e_lat =
              model.Analysis.Cost.fwd_base
              +. Float.min model.Analysis.Cost.slack_cap
                   (Float.max 0.0 slack);
          })
        edges.Depend.f_regs
    in
    (* every upward-exposed read waits on the ring regardless of producer
       distance; pairwise edges above vanish when a boundary move pushes
       the producer beyond the immediate successor, this term does not *)
    let expose_edges =
      List.filter_map
        (fun (ti, _r, depth) ->
          let d = float_of_int depth in
          if d >= model.Analysis.Cost.expose_horizon then None
          else
            Some
              {
                Analysis.Cost.e_weight = weight_of.(ti);
                e_lat =
                  model.Analysis.Cost.expose_rate
                  *. (1.0 -. (d /. model.Analysis.Cost.expose_horizon));
              })
        edges.Depend.f_exposed
    in
    let reg_edges = reg_edges @ expose_edges in
    (* within-function memory may-pairs, own blocks only: cross-function
       and included-call effects are partition-independent noise for the
       purpose of ranking one function's boundary placements *)
    let stores = Array.make nt [] and loads = Array.make nt [] in
    List.iter
      (fun (s : Analysis.Memdep.site) ->
        Array.iteri
          (fun i (t : Task.t) ->
            if Iset.mem s.Analysis.Memdep.blk t.Task.blocks then
              if s.Analysis.Memdep.store then
                stores.(i) <- add_region s.Analysis.Memdep.region stores.(i)
              else loads.(i) <- add_region s.Analysis.Memdep.region loads.(i))
          part.Task.tasks)
      (Analysis.Memdep.sites facts.Partition.mem fname);
    let mem_edges = ref [] in
    for i = 0 to nt - 1 do
      for j = 0 to nt - 1 do
        if
          stores.(i) <> [] && loads.(j) <> []
          && List.exists
               (fun s ->
                 List.exists (Analysis.Memdep.may_intersect s) loads.(j))
               stores.(i)
        then
          mem_edges :=
            {
              Analysis.Cost.e_weight = weight_of.(j);
              e_lat = model.Analysis.Cost.mem_penalty;
            }
            :: !mem_edges
      done
    done;
    Analysis.Cost.evaluate ~tasks ~reg_edges ~mem_edges:!mem_edges ()
  end

type result = {
  r_total : Analysis.Cost.t;
  r_scalar : float;
  r_shares : Analysis.Cost.shares;
  r_per_func : (string * Analysis.Cost.t) list;
}

let memo_for f (part : Task.partition) =
  Depend.memo f ~included_calls:part.Task.included_calls

let cost_with facts (plan : Partition.plan) =
  let per_func =
    List.rev
      (Smap.fold
         (fun name part acc ->
           let f = Ir.Prog.find plan.Partition.prog name in
           (name, func_cost facts (memo_for f part) name f part) :: acc)
         plan.Partition.parts [])
  in
  let total =
    List.fold_left
      (fun acc (_, c) -> Analysis.Cost.add acc c)
      Analysis.Cost.zero per_func
  in
  {
    r_total = total;
    r_scalar =
      Analysis.Cost.scalar ~useful_base:facts.Partition.useful_base total;
    r_shares = Analysis.Cost.shares total;
    r_per_func = per_func;
  }

let plan_cost plan = cost_with (Partition.facts plan) plan

(* --- feedback search ------------------------------------------------------ *)

let max_search_blocks = 256
let max_candidates = 24
let max_rounds = 6

(* A candidate must beat the incumbent by a decisive margin, not float
   dust: the model ranks coarsely, and empirically a predicted penalty
   reduction of less than ~40% is as likely to be a loss as a win on the
   simulated machine — most such "wins" come from a boundary move shifting
   dependence mass to a colder task entry rather than removing it. *)
let improve_factor = 0.6

let entries_of (part : Task.partition) =
  Array.fold_left
    (fun s (t : Task.t) -> Iset.add t.Task.entry s)
    Iset.empty part.Task.tasks

let refine (plan : Partition.plan) =
  (match Partition.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost.refine: seed plan rejected: " ^ msg));
  let facts = Partition.facts plan in
  let params = plan.Partition.params in
  let acc = ref plan.Partition.parts in
  Smap.iter
    (fun fname (part : Task.partition) ->
      let f = Ir.Prog.find plan.Partition.prog fname in
      let n = Ir.Func.num_blocks f in
      let fw = Smap.find fname facts.Partition.weights in
      if fw > 0.0 && n >= 3 && n <= max_search_blocks then begin
        let dom = Analysis.Dom.compute f in
        let dfs = Analysis.Dfs.compute f in
        (* every candidate shares the seed's included calls, so one memo
           serves the whole search of this function *)
        let memo = memo_for f part in
        let pen p =
          Analysis.Cost.penalties (func_cost facts memo fname f p)
        in
        let best = ref part in
        let best_pen = ref (pen part) in
        (* forced boundaries evolve move by move; the seed partition is not
           itself cut-derived, so [best] is tracked separately and only
           ever replaced by something strictly cheaper *)
        let cuts = ref (entries_of part) in
        let searching = ref true in
        let rounds = ref 0 in
        while !searching && !rounds < max_rounds do
          incr rounds;
          let heads = entries_of !best in
          let splits = ref [] in
          for b = n - 1 downto 0 do
            if
              (not (Iset.mem b heads))
              && (not (Iset.mem b !cuts))
              && dfs.Analysis.Dfs.pre.(b) >= 0
              && dom.Analysis.Dom.idom.(b) >= 0
              && Iset.mem dom.Analysis.Dom.idom.(b) heads
            then splits := Iset.add b !cuts :: !splits
          done;
          let merges =
            List.rev
              (Iset.fold
                 (fun e acc ->
                   if e <> Ir.Func.entry then Iset.remove e !cuts :: acc
                   else acc)
                 !cuts [])
          in
          let cands =
            List.filteri (fun i _ -> i < max_candidates) (!splits @ merges)
          in
          let scored =
            List.map
              (fun c ->
                let p =
                  Select.with_cuts params f
                    ~included_calls:part.Task.included_calls ~cuts:c
                in
                (pen p, p, c))
              cands
          in
          let better =
            List.fold_left
              (fun acc (p, part', c) ->
                match acc with
                | Some (pb, _, _) when pb <= p -> acc
                | _ when p < !best_pen *. improve_factor -> Some (p, part', c)
                | _ -> acc)
              None scored
          in
          match better with
          | None -> searching := false
          | Some (p, part', c) ->
            let plan' =
              Partition.with_parts plan (Smap.add fname part' !acc)
            in
            (match
               (Partition.validate plan', Partition.validate_deps plan')
             with
            | Ok (), Ok () ->
              best := part';
              best_pen := p;
              cuts := c;
              acc := plan'.Partition.parts
            | _ -> searching := false)
        done
      end)
    plan.Partition.parts;
  Partition.with_parts plan !acc

(* The Task_size seed is the paper's best level overall, but not per
   workload: where its unrolling/call-inclusion grows tasks past what the
   ring can forward, the Data_dependence plan (same selection, no growth
   transforms) is decisively better.  The scalar cost is normalised by
   each program's own useful-work base, so the two plans are comparable
   even though unrolling changes the instruction count; the Task_size seed
   only loses on a decisive predicted advantage, mirroring
   [improve_factor]. *)
let seed_factor = 0.8

let build ?params ?profile_input ?run prog =
  let seed_ts =
    Partition.build ?params ?profile_input ?run Heuristics.Feedback prog
  in
  let seed_dd =
    Partition.with_level
      (Partition.build ?params ?profile_input ?run Heuristics.Data_dependence
         prog)
      Heuristics.Feedback
  in
  (* each seed's facts are derived once, for its score and, for the
     winner, its search and every later reader of the refined plan *)
  let c_ts = (plan_cost seed_ts).r_scalar in
  let c_dd = (plan_cost seed_dd).r_scalar in
  if c_dd < c_ts *. seed_factor then refine seed_dd else refine seed_ts

let plan_for_level ?params ?profile_input ?run level prog =
  match level with
  | Heuristics.Feedback -> build ?params ?profile_input ?run prog
  | Heuristics.Basic_block | Heuristics.Control_flow
  | Heuristics.Data_dependence | Heuristics.Task_size ->
    Partition.build ?params ?profile_input ?run level prog
