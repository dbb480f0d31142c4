(* Generic worklist fixpoint over the interprocedural supergraph (see
   absint.mli for the client obligations and the narrowing soundness
   argument).  Nodes are (function, block) pairs flattened to a dense
   integer range; edges follow terminators, with Call feeding the callee's
   entry and every Ret block of a callee feeding the continuation of every
   one of its call sites (registers are architecturally global, so no
   calling context needs to be tracked). *)

module type STATE = sig
  type t

  val bot : t
  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  val leq : t -> t -> bool
end

module Make (S : STATE) = struct
  type result = {
    fnames : string array;
    findex : (string, int) Hashtbl.t;
    offset : int array; (* node id of (f, 0) *)
    states : S.t array; (* block-entry state per node *)
    updates : int;
    widenings : int;
    narrowed : int;
  }

  let no_refine _fname _blk _target st = st

  (* widen a block's entry state past this many updates; then this many
     guarded descending rounds *)
  let widen_after = 3
  let narrow_rounds = 2

  let solve ?(refine = no_refine) ~seed
      ~transfer (prog : Ir.Prog.t) =
    let fnames =
      Array.of_list (List.map fst (Ir.Prog.Smap.bindings prog.Ir.Prog.funcs))
    in
    let nf = Array.length fnames in
    let findex = Hashtbl.create (2 * nf) in
    Array.iteri (fun i name -> Hashtbl.replace findex name i) fnames;
    let funcs = Array.map (fun name -> Ir.Prog.find prog name) fnames in
    let offset = Array.make (nf + 1) 0 in
    for i = 0 to nf - 1 do
      offset.(i + 1) <- offset.(i) + Array.length funcs.(i).Ir.Func.blocks
    done;
    let nnodes = offset.(nf) in
    let node fi blk = offset.(fi) + blk in
    let func_of = Array.make nnodes 0 in
    let blk_of = Array.make nnodes 0 in
    for fi = 0 to nf - 1 do
      for b = 0 to Array.length funcs.(fi).Ir.Func.blocks - 1 do
        func_of.(node fi b) <- fi;
        blk_of.(node fi b) <- b
      done
    done;
    (* call sites per callee: continuation nodes that every Ret of the
       callee flows into *)
    let conts = Array.make nf [] in
    Array.iteri
      (fun fi (f : Ir.Func.t) ->
        Array.iter
          (fun (b : Ir.Block.t) ->
            match b.Ir.Block.term with
            | Ir.Block.Call (callee, cont) -> (
              match Hashtbl.find_opt findex callee with
              | Some gi -> conts.(gi) <- node fi cont :: conts.(gi)
              | None -> ())
            | _ -> ())
          f.Ir.Func.blocks)
      funcs;
    let succs = Array.make nnodes [] in
    Array.iteri
      (fun fi (f : Ir.Func.t) ->
        Array.iter
          (fun (b : Ir.Block.t) ->
            let n = node fi b.Ir.Block.label in
            succs.(n) <-
              (match b.Ir.Block.term with
              | Ir.Block.Jump l -> [ node fi l ]
              | Ir.Block.Br (_, t, e) ->
                if t = e then [ node fi t ] else [ node fi t; node fi e ]
              | Ir.Block.Switch (_, targets, default) ->
                let tbl = Hashtbl.create 8 in
                let add acc l =
                  if Hashtbl.mem tbl l then acc
                  else begin
                    Hashtbl.add tbl l ();
                    node fi l :: acc
                  end
                in
                Array.fold_left add (add [] default) targets
              | Ir.Block.Call (callee, cont) -> (
                match Hashtbl.find_opt findex callee with
                | Some gi -> [ node gi Ir.Func.entry ]
                | None -> [ node fi cont ])
              | Ir.Block.Ret -> conts.(fi)
              | Ir.Block.Halt -> []))
          f.Ir.Func.blocks)
      funcs;
    let preds = Array.make nnodes [] in
    Array.iteri
      (fun n ss -> List.iter (fun m -> preds.(m) <- n :: preds.(m)) ss)
      succs;
    let states = Array.make nnodes S.bot in
    let upd_count = Array.make nnodes 0 in
    let queued = Array.make nnodes false in
    let queue = Queue.create () in
    let push n =
      if not queued.(n) then begin
        queued.(n) <- true;
        Queue.add n queue
      end
    in
    let seed_of = Array.make nnodes None in
    Array.iteri
      (fun fi name ->
        match seed name with
        | Some s ->
          let n = node fi Ir.Func.entry in
          seed_of.(n) <- Some s;
          states.(n) <- S.join states.(n) s;
          push n
        | None -> ())
      fnames;
    let updates = ref 0 and widenings = ref 0 in
    (* ascending pass: propagate block outs along supergraph edges, widening
       any target whose entry state keeps moving *)
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      queued.(n) <- false;
      let fname = fnames.(func_of.(n)) in
      let blk = funcs.(func_of.(n)).Ir.Func.blocks.(blk_of.(n)) in
      let out = transfer fname blk states.(n) in
      List.iter
        (fun m ->
          let old = states.(m) in
          let cand = S.join old (refine fname blk blk_of.(m) out) in
          let cand =
            if upd_count.(m) >= widen_after then begin
              let w = S.widen old cand in
              if not (S.equal w cand) then incr widenings;
              w
            end
            else cand
          in
          if not (S.equal cand old) then begin
            states.(m) <- cand;
            upd_count.(m) <- upd_count.(m) + 1;
            incr updates;
            push m
          end)
        succs.(n)
    done;
    (* descending (narrowing) passes: recompute each entry state from its
       predecessors and accept only provable refinements *)
    let narrowed = ref 0 in
    let rec narrow rounds =
      if rounds > 0 then begin
        let changed = ref false in
        for n = 0 to nnodes - 1 do
          if not (S.equal states.(n) S.bot) then begin
            let base = match seed_of.(n) with Some s -> s | None -> S.bot in
            let cand =
              List.fold_left
                (fun acc p ->
                  if S.equal states.(p) S.bot then acc
                  else
                    let pname = fnames.(func_of.(p)) in
                    let pblk = funcs.(func_of.(p)).Ir.Func.blocks.(blk_of.(p)) in
                    S.join acc
                      (refine pname pblk blk_of.(n)
                         (transfer pname pblk states.(p))))
                base preds.(n)
            in
            if
              S.leq cand states.(n)
              && not (S.equal cand states.(n))
            then begin
              states.(n) <- cand;
              incr narrowed;
              changed := true
            end
          end
        done;
        if !changed then narrow (rounds - 1)
      end
    in
    narrow narrow_rounds;
    {
      fnames;
      findex;
      offset;
      states;
      updates = !updates;
      widenings = !widenings;
      narrowed = !narrowed;
    }

  let func_states r fname =
    match Hashtbl.find_opt r.findex fname with
    | None -> None
    | Some fi ->
      Some (Array.sub r.states r.offset.(fi) (r.offset.(fi + 1) - r.offset.(fi)))

  let entry_state r fname blk =
    match Hashtbl.find_opt r.findex fname with
    | None -> S.bot
    | Some fi ->
      let n = r.offset.(fi) + blk in
      if blk < 0 || n >= r.offset.(fi + 1) then S.bot else r.states.(n)

  let updates r = r.updates
  let widenings r = r.widenings
  let narrowed r = r.narrowed
end
