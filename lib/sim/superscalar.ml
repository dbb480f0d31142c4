(* Reference superscalar machine on the flat-array core: one pass over the
   whole trace, so issue/commit bandwidth are plain cycle-indexed count
   arrays (no generations needed), store-to-load forwarding is an
   Occ.Intmap, and operand registers are extracted inline instead of
   allocating Ir.Insn.uses/defs lists per dynamic instruction.  Operand
   readiness is a plain max over register times here, so neither use order
   nor deduplication is observable — the schedule is identical to the
   pre-event core's. *)

type result = {
  stats : Stats.t;
  avg_window : float;
}

let config ~width ~rob =
  {
    (Config.default ~num_pus:1 ~in_order:false) with
    Config.issue_width = width;
    rob_size = rob;
    iq_size = max 8 (rob / 2);
    fu_int = width;
    fu_fp = max 1 (width / 2);
    fu_mem = max 1 (width / 2);
    fu_branch = max 1 (width / 2);
  }

let grow_int_array a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max (2 * len) n) 0 in
    Array.blit a 0 b 0 len;
    b
  end

let run (cfg : Config.t) (trace : Interp.Trace.t) =
  let n_events = Interp.Trace.num_events trace in
  let layout = Layout.create trace.Interp.Trace.funcs in
  let hier = Cache.Hierarchy.create cfg in
  let gshare = Predict.Gshare.create cfg in
  let switch_pred = Predict.Target.create cfg in
  let stats = Stats.create () in
  let units_int = Array.make cfg.Config.fu_int 0 in
  let units_fp = Array.make cfg.Config.fu_fp 0 in
  let units_mem = Array.make cfg.Config.fu_mem 0 in
  let units_branch = Array.make cfg.Config.fu_branch 0 in
  let issue_slots = ref (Array.make 65536 0) in
  let commit_slots = ref (Array.make 65536 0) in
  let slot_count a t = if t >= Array.length a then 0 else Array.unsafe_get a t in
  let take_slot slots t =
    if t >= Array.length !slots then slots := grow_int_array !slots (t + 1);
    let a = !slots in
    Array.unsafe_set a t (Array.unsafe_get a t + 1)
  in
  let issue_width = cfg.Config.issue_width in
  let find_issue cand (units : int array) ~init =
    let t = ref cand in
    let chosen = ref (-1) in
    let continue_ = ref true in
    while !continue_ do
      let best = ref 0 in
      for u = 1 to Array.length units - 1 do
        if units.(u) < units.(!best) then best := u
      done;
      if units.(!best) > !t then t := units.(!best)
      else if slot_count !issue_slots !t >= issue_width then incr t
      else begin
        chosen := !best;
        continue_ := false
      end
    done;
    take_slot issue_slots !t;
    units.(!chosen) <- !t + init;
    !t
  in
  let rob = Array.make cfg.Config.rob_size 0 in
  let iq = Array.make cfg.Config.iq_size 0 in
  let insn_counter = ref 0 in
  let fetch_time = ref 0 in
  let fetch_in_cycle = ref 0 in
  let next_fetch () =
    if !fetch_in_cycle >= issue_width then begin
      incr fetch_time;
      fetch_in_cycle := 0
    end;
    incr fetch_in_cycle;
    !fetch_time
  in
  let redirect t =
    if t + 1 > !fetch_time then begin
      fetch_time := t + 1;
      fetch_in_cycle := 0
    end
  in
  let reg_time = Array.make Ir.Reg.count 0 in
  let store_time = Occ.Intmap.create 1024 in
  let last_commit = ref 0 in
  let last_issue = ref 0 in
  (* window-occupancy accounting: sum over instructions of time in flight *)
  let occupancy = ref 0 in
  let in_order = cfg.Config.in_order in
  let front_depth = cfg.Config.front_depth in
  let rob_size = cfg.Config.rob_size in
  let iq_size = cfg.Config.iq_size in
  (* [u1..u3]: use registers (-1 = none); [def]: written register (-1 =
     none); [mem_kind]: 0 none, 1 load, 2 store *)
  let sched ~units ~latency ~init ~u1 ~u2 ~u3 ~def ~mem_addr ~mem_kind =
    let i = !insn_counter in
    incr insn_counter;
    let fetch_t = next_fetch () in
    let disp_t = ref (fetch_t + front_depth) in
    if i >= rob_size then disp_t := max !disp_t rob.(i mod rob_size);
    if i >= iq_size then disp_t := max !disp_t iq.(i mod iq_size);
    (* inlined use checks — a helper closure would heap-allocate [ready] *)
    let ready = ref 0 in
    if u1 >= 0 && u1 <> Ir.Reg.zero && reg_time.(u1) > !ready then
      ready := reg_time.(u1);
    if u2 >= 0 && u2 <> Ir.Reg.zero && reg_time.(u2) > !ready then
      ready := reg_time.(u2);
    if u3 >= 0 && u3 <> Ir.Reg.zero && reg_time.(u3) > !ready then
      ready := reg_time.(u3);
    if mem_kind = 1 then begin
      let t = Occ.Intmap.find store_time mem_addr in
      if t > !ready then ready := t
    end;
    let base = if in_order then max !disp_t !last_issue else !disp_t in
    let cand = max base !ready in
    let issue_t = find_issue cand units ~init in
    last_issue := max !last_issue issue_t;
    let lat =
      if mem_kind = 1 then Cache.Hierarchy.dload hier mem_addr else latency
    in
    let complete_t = issue_t + lat in
    if mem_kind = 2 then Occ.Intmap.set store_time mem_addr (issue_t + 1);
    let c = ref (max complete_t !last_commit) in
    while slot_count !commit_slots !c >= issue_width do incr c done;
    take_slot commit_slots !c;
    last_commit := !c;
    rob.(i mod rob_size) <- !c;
    iq.(i mod iq_size) <- issue_t;
    (* window residency: from ROB entry (dispatch) to commit *)
    occupancy := !occupancy + (!c - !disp_t);
    if def >= 0 && def <> Ir.Reg.zero then reg_time.(def) <- complete_t;
    complete_t
  in
  let lat_int = cfg.Config.lat_int in
  let lat_int_mul = cfg.Config.lat_int_mul in
  let lat_int_div = cfg.Config.lat_int_div in
  let lat_fp = cfg.Config.lat_fp in
  let lat_fp_div = cfg.Config.lat_fp_div in
  for j = 0 to n_events - 1 do
    let fid = Interp.Trace.get_fid trace j in
    let blkl = Interp.Trace.get_blk trace j in
    let blk = Interp.Trace.block_at trace j in
    let extra =
      Cache.Hierarchy.ifetch hier (Layout.block_addr layout ~fid ~blk:blkl)
    in
    if extra > 0 then begin
      fetch_time := !fetch_time + extra;
      fetch_in_cycle := 0
    end;
    let addr_base = Interp.Trace.addr_offset trace j in
    let next_addr = ref 0 in
    let insns = blk.Ir.Block.insns in
    for idx = 0 to Array.length insns - 1 do
      let insn = Array.unsafe_get insns idx in
      match insn with
      | Ir.Insn.Nop ->
        ignore
          (sched ~units:units_int ~latency:lat_int ~init:1 ~u1:(-1) ~u2:(-1)
             ~u3:(-1) ~def:(-1) ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Li (d, _) | Ir.Insn.Lf (d, _) ->
        ignore
          (sched ~units:units_int ~latency:lat_int ~init:1 ~u1:(-1) ~u2:(-1)
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Mov (d, s) ->
        ignore
          (sched ~units:units_int ~latency:lat_int ~init:1 ~u1:s ~u2:(-1)
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Bin (op, d, s, operand) ->
        let latency, init =
          match op with
          | Ir.Insn.Mul -> (lat_int_mul, 1)
          | Ir.Insn.Div | Ir.Insn.Rem -> (lat_int_div, lat_int_div)
          | _ -> (lat_int, 1)
        in
        let u2 = match operand with Ir.Insn.Reg s2 -> s2 | Ir.Insn.Imm _ -> -1 in
        ignore
          (sched ~units:units_int ~latency ~init ~u1:s ~u2 ~u3:(-1) ~def:d
             ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fbin (op, d, s1, s2) ->
        let latency, init =
          match op with
          | Ir.Insn.Fdiv -> (lat_fp_div, lat_fp_div)
          | _ -> (lat_fp, 1)
        in
        ignore
          (sched ~units:units_fp ~latency ~init ~u1:s1 ~u2:s2 ~u3:(-1) ~def:d
             ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fcmp (_, d, s1, s2) ->
        ignore
          (sched ~units:units_fp ~latency:lat_fp ~init:1 ~u1:s1 ~u2:s2
             ~u3:(-1) ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Fun (op, d, s) ->
        let latency, init =
          match op with
          | Ir.Insn.Fsqrt -> (lat_fp_div, lat_fp_div)
          | _ -> (lat_fp, 1)
        in
        ignore
          (sched ~units:units_fp ~latency ~init ~u1:s ~u2:(-1) ~u3:(-1)
             ~def:d ~mem_addr:0 ~mem_kind:0)
      | Ir.Insn.Load (d, base, _) ->
        let a = Interp.Trace.addr_at trace (addr_base + !next_addr) in
        incr next_addr;
        ignore
          (sched ~units:units_mem ~latency:1 ~init:1 ~u1:base ~u2:(-1)
             ~u3:(-1) ~def:d ~mem_addr:a ~mem_kind:1)
      | Ir.Insn.Store (src, base, _) ->
        let a = Interp.Trace.addr_at trace (addr_base + !next_addr) in
        incr next_addr;
        ignore
          (sched ~units:units_mem ~latency:1 ~init:1 ~u1:src ~u2:base
             ~u3:(-1) ~def:(-1) ~mem_addr:a ~mem_kind:2)
      | Ir.Insn.Cmov (d, c, s) ->
        ignore
          (sched ~units:units_int ~latency:lat_int ~init:1 ~u1:d ~u2:c ~u3:s
             ~def:d ~mem_addr:0 ~mem_kind:0)
    done;
    let cond =
      match blk.Ir.Block.term with
      | Ir.Block.Br (c, _, _) | Ir.Block.Switch (c, _, _) -> c
      | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> -1
    in
    let t_complete =
      sched ~units:units_branch ~latency:1 ~init:1 ~u1:cond ~u2:(-1) ~u3:(-1)
        ~def:(-1) ~mem_addr:0 ~mem_kind:0
    in
    (* branch prediction across the whole stream *)
    let pc = Layout.block_id layout ~fid ~blk:blkl in
    (if j + 1 < n_events then begin
       let next_fid = Interp.Trace.get_fid trace (j + 1) in
       let next_blk = Interp.Trace.get_blk trace (j + 1) in
       match blk.Ir.Block.term with
       | Ir.Block.Br (_, l1, _) when next_fid = fid ->
         stats.Stats.intra_branches <- stats.Stats.intra_branches + 1;
         let taken = next_blk = l1 in
         if not (Predict.Gshare.predict_and_update gshare ~pc ~taken) then begin
           stats.Stats.intra_branch_mispredicts <-
             stats.Stats.intra_branch_mispredicts + 1;
           redirect (t_complete + cfg.Config.branch_redirect - 1)
         end
       | Ir.Block.Switch (_, targets, _) when next_fid = fid ->
         stats.Stats.intra_branches <- stats.Stats.intra_branches + 1;
         let actual = ref (Array.length targets) in
         Array.iteri
           (fun k l ->
             if l = next_blk && !actual = Array.length targets
             then actual := k)
           targets;
         if
           not
             (Predict.Target.predict_and_update switch_pred ~pc ~actual:!actual)
         then begin
           stats.Stats.intra_branch_mispredicts <-
             stats.Stats.intra_branch_mispredicts + 1;
           redirect (t_complete + cfg.Config.branch_redirect - 1)
         end
       | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Jump _ | Ir.Block.Call _
       | Ir.Block.Ret | Ir.Block.Halt -> ()
     end);
    stats.Stats.dyn_insns <- stats.Stats.dyn_insns + Interp.Trace.size_at trace j
  done;
  stats.Stats.cycles <- !last_commit;
  (* cycle accounting: the reference machine has no task machinery, so its
     whole timeline is useful work on one PU *)
  Account.add stats.Stats.acct Account.Useful stats.Stats.cycles;
  Account.finalize stats.Stats.acct ~pus:1 ~cycles:stats.Stats.cycles;
  stats.Stats.l1d_accesses <- Cache.accesses (Cache.Hierarchy.l1d hier);
  stats.Stats.l1d_misses <- Cache.misses (Cache.Hierarchy.l1d hier);
  stats.Stats.l1i_accesses <- Cache.accesses (Cache.Hierarchy.l1i hier);
  stats.Stats.l1i_misses <- Cache.misses (Cache.Hierarchy.l1i hier);
  let avg_window =
    if stats.Stats.cycles = 0 then 0.0
    else float_of_int !occupancy /. float_of_int stats.Stats.cycles
  in
  { stats; avg_window }
