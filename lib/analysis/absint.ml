(* Generic worklist fixpoint over the interprocedural supergraph (see
   absint.mli for the client obligations and the narrowing soundness
   argument).  Nodes are (function, block) pairs flattened to a dense
   integer range; edges follow terminators, with Call feeding the callee's
   entry and every Ret block of a callee feeding the continuation of every
   one of its call sites (registers are architecturally global, so no
   calling context needs to be tracked).  States live in buffers the
   engine owns: one per node, plus scratch buffers for a block's
   out-state, an edge's refinement, and the join and widening candidates.
   The supergraph and the buffers are built once per [solve]; each round
   the client asks for runs over them, reset to bottom. *)

module type STATE = sig
  type t

  val create : unit -> t
  val is_bot : t -> bool
  val assign : t -> t -> unit
  val join_into : t -> t -> unit
  val widen_into : old:t -> t -> unit
  val equal : t -> t -> bool
  val leq : t -> t -> bool
end

module Make (S : STATE) = struct
  type result = {
    findex : (string, int) Hashtbl.t;
    offset : int array; (* node id of (f, 0) *)
    states : S.t array; (* block-entry state per node *)
    bot : S.t; (* never written: the answer for unknown blocks *)
    updates : int;
    widenings : int;
    narrowed : int;
  }

  (* widen a block's entry state past this many updates; then this many
     guarded descending rounds *)
  let widen_after = 3
  let narrow_rounds = 2

  let solve ?refine ?(again = fun _ -> false) ~seed ~transfer
      (prog : Ir.Prog.t) =
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
    let succs = Array.map Array.of_list succs
    and preds = Array.map Array.of_list preds in
    let states = Array.init nnodes (fun _ -> S.create ()) in
    let bot = S.create () in
    (* a block's out-state, its refinement along one edge, and the
       candidate entry state with its widened variant *)
    let out = S.create () and edge = S.create () in
    let cand = ref (S.create ()) and wide = ref (S.create ()) in
    let along fname blk target =
      match refine with
      | None -> out
      | Some refine ->
        refine fname blk target ~src:out ~dst:edge;
        edge
    in
    let upd_count = Array.make nnodes 0 in
    (* FIFO worklist; a node is queued at most once, so a ring of one slot
       per node never overflows.  A round ends with the ring empty and
       every flag cleared. *)
    let queued = Array.make nnodes false in
    let ring = Array.make (max 1 nnodes) 0 in
    let head = ref 0 and len = ref 0 in
    let push n =
      if not queued.(n) then begin
        queued.(n) <- true;
        ring.((!head + !len) mod Array.length ring) <- n;
        incr len
      end
    in
    let seed_of = Array.make nnodes None in
    (* one round: every state, update count and seed from scratch *)
    let rec round () =
      Array.iter (fun st -> S.assign st bot) states;
      Array.fill upd_count 0 nnodes 0;
      Array.fill seed_of 0 nnodes None;
      Array.iteri
        (fun fi name ->
          match seed name with
          | Some s ->
            let n = node fi Ir.Func.entry in
            seed_of.(n) <- Some s;
            S.join_into states.(n) s;
            push n
          | None -> ())
        fnames;
      let updates = ref 0 and widenings = ref 0 in
      (* ascending pass: propagate block outs along supergraph edges, widening
         any target whose entry state keeps moving *)
      while !len > 0 do
        let n = ring.(!head) in
        head := (!head + 1) mod Array.length ring;
        decr len;
        queued.(n) <- false;
        let fname = fnames.(func_of.(n)) in
        let blk = funcs.(func_of.(n)).Ir.Func.blocks.(blk_of.(n)) in
        transfer fname blk ~src:states.(n) ~dst:out;
        let ss = succs.(n) in
        for k = 0 to Array.length ss - 1 do
          let m = ss.(k) in
          let old = states.(m) in
          S.assign !cand old;
          S.join_into !cand (along fname blk blk_of.(m));
          if upd_count.(m) >= widen_after then begin
            S.assign !wide !cand;
            S.widen_into ~old !wide;
            if not (S.equal !wide !cand) then incr widenings;
            let c = !cand in
            cand := !wide;
            wide := c
          end;
          if not (S.equal !cand old) then begin
            S.assign old !cand;
            upd_count.(m) <- upd_count.(m) + 1;
            incr updates;
            push m
          end
        done
      done;
      (* descending (narrowing) passes: recompute each entry state from its
         predecessors and accept only provable refinements *)
      let narrowed = ref 0 in
      let rec narrow rounds =
        if rounds > 0 then begin
          let changed = ref false in
          let cand = !cand in
          for n = 0 to nnodes - 1 do
            if not (S.is_bot states.(n)) then begin
              S.assign cand (match seed_of.(n) with Some s -> s | None -> bot);
              let ps = preds.(n) in
              for k = 0 to Array.length ps - 1 do
                let p = ps.(k) in
                if not (S.is_bot states.(p)) then begin
                  let pname = fnames.(func_of.(p)) in
                  let pblk = funcs.(func_of.(p)).Ir.Func.blocks.(blk_of.(p)) in
                  transfer pname pblk ~src:states.(p) ~dst:out;
                  S.join_into cand (along pname pblk blk_of.(n))
                end
              done;
              let st = states.(n) in
              if S.leq cand st && not (S.equal cand st) then begin
                S.assign st cand;
                incr narrowed;
                changed := true
              end
            end
          done;
          if !changed then narrow (rounds - 1)
        end
      in
      narrow narrow_rounds;
      let r =
        {
          findex;
          offset;
          states;
          bot;
          updates = !updates;
          widenings = !widenings;
          narrowed = !narrowed;
        }
      in
      if again r then round () else r
    in
    round ()

  let func_states r fname =
    match Hashtbl.find_opt r.findex fname with
    | None -> None
    | Some fi ->
      Some (Array.sub r.states r.offset.(fi) (r.offset.(fi + 1) - r.offset.(fi)))

  let entry_state r fname blk =
    match Hashtbl.find_opt r.findex fname with
    | None -> r.bot
    | Some fi ->
      let n = r.offset.(fi) + blk in
      if blk < 0 || n >= r.offset.(fi + 1) then r.bot else r.states.(n)

  let updates r = r.updates
  let widenings r = r.widenings
  let narrowed r = r.narrowed
end
