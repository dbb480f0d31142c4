(* The Multiscalar engine on the event-driven, structure-of-arrays core.

   A run allocates in proportion to what it touches of the machine, not to
   the simulated cycles or task instances (DESIGN.md §10).  The machine —
   caches, predictors, rings, maps, windows and one Timing.ctx — is a
   value made from a configuration alone and reset in place, table by
   table, at the start of every run on it, so a sweep that reuses it
   (Harness.Artifact's grids) pays its set-up once.  Cross-task
   state lives in rings over the last 2N task instances (N = PUs):
   assignment, resolve and retire times, generation-stamped ring-send
   register slots and per-flight store maps; the synchronization table is
   an open-addressing int map with packed keys, bounded by its configured
   size.  The shared ring / ARB-bank bandwidth is Occ.Slots windows whose
   floor rises to each task's first assignment cycle — a0 only increases
   from task to task and every probe of task k is at or after it — so the
   rows slide instead of spanning the run.  The machine's Timing.ctx is
   reused for every attempt of every dynamic task instance, the predictor
   and cache tables are byte and int pages allocated on first touch
   (Occ.Pages) and dropped by a reset, the per-task loop reads the
   instance's fields from a task walk (Dyntask.t, a cursor; the record
   view is built only for an observer), and every in-flight scan is a
   plain loop over those arrays, so the
   per-task loop allocates nothing in the steady state.  The schedule is
   cycle-for-cycle identical to the frozen pre-event core
   (Sim_ref.Engine_ref), pinned by the qcheck differential in
   test/test_event_core.ml and the byte-identical report goldens. *)

type result = {
  stats : Stats.t;
  instances : int;
}

type event = {
  e_index : int;
  e_instance : Dyntask.instance;
  e_pu : int;
  e_assign : int;
  e_complete : int;
  e_retire : int;
  e_mispredicted : bool;
  e_violations : int;
}

(* State shared by every machine configuration simulated against the
   same (plan, trace), sized by the program and read-only during
   simulation: compute it once and reuse it across the table's machine
   sweep.  Each run walks the task instances itself. *)
type prep = {
  p_parts : Core.Task.partition array;
  p_regcomms : Core.Regcomm.t array;
  p_tasks : Dyntask.program;
  p_layout : Layout.t;
}

let prepare (plan : Core.Partition.plan) (trace : Interp.Trace.t) =
  let parts =
    Array.map (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      trace.Interp.Trace.fnames
  in
  let regcomms =
    Array.mapi
      (fun fid part ->
        let name = trace.Interp.Trace.fnames.(fid) in
        Core.Regcomm.create trace.Interp.Trace.funcs.(fid)
          ~live_in:(Core.Partition.live_in plan name) part)
      parts
  in
  {
    p_parts = parts;
    p_regcomms = regcomms;
    p_tasks = Dyntask.program trace ~parts;
    p_layout = Layout.create trace.Interp.Trace.funcs;
  }

(* store-map values and sync-table keys pack a Layout.site_id into the low
   bits: value = time lsl site_bits | store_site, key = load_site lsl
   site_bits | store_site *)
let site_bits = 30
let site_mask = (1 lsl site_bits) - 1

let max_violation_retries = 8

(* the position of [l] / of function [name] in a task's successor lists,
   counting from [i]; -1 when absent *)
let rec target_index (l : Ir.Block.label) i = function
  | [] -> -1
  | x :: rest -> if x = l then i else target_index l (i + 1) rest

let rec callee_index name i = function
  | [] -> -1
  | x :: rest ->
    if String.equal x name then i else callee_index name (i + 1) rest

(* Ring-send time of register [r] written at [psite]/[t] by the instance
   of [task] in function [fid] that spans events [first]..[last]: at the
   write itself when the compiler can prove it final (forward bits), at the
   first executed block past the write from which no rewrite is reachable
   (per-path release annotation), and failing that at task completion.
   Top-level — called once per surviving register write; a per-task closure
   would re-box the task context on every instance. *)
let send_time_of trace (tctx : Timing.ctx) rc ~fid ~task ~first ~last
    task_blocks ~complete (r : Ir.Reg.t) t psite =
  if
    Timing.site_fid psite <> fid
    || not (Core.Task.Iset.mem (Timing.site_blk psite) task_blocks)
  then complete
  else if
    Core.Regcomm.forwardable rc ~task ~blk:(Timing.site_blk psite)
      ~idx:(Timing.site_idx psite) ~reg:r
  then t
  else begin
    (* find the event of the writing block, then the first later event
       whose block can no longer rewrite r *)
    let n_ev = last - first + 1 in
    let write_pos = ref (-1) in
    (let j = ref 0 in
     while !write_pos = -1 && !j < n_ev do
       let i = first + !j in
       if
         Interp.Trace.get_fid trace i = fid
         && Interp.Trace.get_blk trace i = Timing.site_blk psite
       then write_pos := !j;
       incr j
     done);
    if !write_pos = -1 then complete
    else begin
      let release = ref complete in
      (let j = ref (!write_pos + 1) in
       while !release = complete && !j < n_ev do
         let i = first + !j in
         let ev_blk = Interp.Trace.get_blk trace i in
         if
           Interp.Trace.get_fid trace i = fid
           && Core.Task.Iset.mem ev_blk task_blocks
           && not (Core.Regcomm.may_rewrite rc ~task ~blk:ev_blk ~reg:r)
         then release := max t tctx.Timing.event_entry.(!j);
         incr j
       done);
      !release
    end
  end

(* The machine's tables, made once from a configuration and reset in
   place at the start of every run on it, so a run allocates only what it
   touches of the caches and predictors, its statistics and its task
   walk.  The cross-task state is rings over the last 2N instances: only
   they can matter to a younger task's timing (every read names a task in
   [k - N + 1, k]).  Task j's assignment, resolve and retire times and
   size live at index j mod 2N.  A register send of task j lives at
   send_time.((j mod 2N) * Reg.count + r), valid iff the stamp is j; a
   slot is reclaimed by restamping, never cleared. *)
type machine = {
  cfg : Config.t;
  hier : Cache.Hierarchy.h;
  gshare : Predict.Gshare.t;
  switch_pred : Predict.Target.t;
  task_pred : Predict.Target.t;
  ras : Predict.Ras.t;
  pu_free : int array;
  assign : int array;
  retire : int array;
  resolve : int array;
  sizes : int array;
  send_time : int array;
  send_stamp : int array;
  store_maps : Occ.Intmap.t array;
  last_writer_task : int array;
  (* (load site, store site) pairs, packed; grows for the whole run *)
  sync_table : Occ.Intmap.t;
  (* per-PU ring injection bandwidth, per-cycle *)
  ring_slots : Occ.Slots.t;
  (* one access per D-cache/ARB bank per cycle, shared by all PUs *)
  bank_slots : Occ.Slots.t;
  tctx : Timing.ctx;
}

let machine (cfg : Config.t) =
  let hier = Cache.Hierarchy.create cfg in
  let gshare = Predict.Gshare.create cfg in
  let switch_pred = Predict.Target.create cfg in
  let task_pred =
    Predict.Target.create ~use_history:cfg.Config.task_path_history cfg
  in
  let ras = Predict.Ras.create 64 in
  let n = cfg.Config.num_pus in
  let two_n = 2 * n in
  let pu_free = Array.make n 0 in
  let assign = Array.make two_n 0 in
  let retire = Array.make two_n 0 in
  let resolve = Array.make two_n 0 in
  let sizes = Array.make two_n 0 in
  let send_time = Array.make (two_n * Ir.Reg.count) 0 in
  let send_stamp = Array.make (two_n * Ir.Reg.count) (-1) in
  let store_maps = Array.init two_n (fun _ -> Occ.Intmap.create 32) in
  let last_writer_task = Array.make Ir.Reg.count (-1) in
  let sync_table = Occ.Intmap.create 64 in
  let ring_slots = Occ.Slots.create ~rows:n ~hint:1024 in
  let bank_slots = Occ.Slots.create ~rows:cfg.Config.l1_banks ~hint:1024 in
  let tctx = Timing.create cfg in
  { cfg; hier; gshare; switch_pred; task_pred; ras; pu_free; assign; retire;
    resolve; sizes; send_time; send_stamp; store_maps; last_writer_task;
    sync_table; ring_slots; bank_slots; tctx }

let config m = m.cfg

(* back to the state [machine] made, one reset per table; [tctx] needs
   none, as [Timing.exec] resets it for every attempt *)
let reset m =
  Cache.Hierarchy.reset m.hier;
  Predict.Gshare.reset m.gshare;
  Predict.Target.reset m.switch_pred;
  Predict.Target.reset m.task_pred;
  Predict.Ras.reset m.ras;
  let refill a v = Array.fill a 0 (Array.length a) v in
  refill m.pu_free 0;
  refill m.assign 0;
  refill m.retire 0;
  refill m.resolve 0;
  refill m.sizes 0;
  refill m.send_time 0;
  refill m.send_stamp (-1);
  Array.iter Occ.Intmap.clear m.store_maps;
  refill m.last_writer_task (-1);
  Occ.Intmap.clear m.sync_table;
  Occ.Slots.reset m.ring_slots;
  Occ.Slots.reset m.bank_slots

let run_on ?observer (m : machine) (prep : prep) (trace : Interp.Trace.t) =
  reset m;
  let { cfg; hier; gshare; switch_pred; task_pred; ras; pu_free; assign;
        retire; resolve; sizes; send_time; send_stamp; store_maps;
        last_writer_task; sync_table; ring_slots; bank_slots; tctx } =
    m
  in
  let fnames = trace.Interp.Trace.fnames in
  let parts = prep.p_parts in
  let regcomms = prep.p_regcomms in
  let layout = prep.p_layout in
  let w = Dyntask.walk prep.p_tasks trace in
  let stats = Stats.create () in
  let n = cfg.Config.num_pus in
  let two_n = 2 * n in
  (* per-attempt inputs read by the once-per-run hook closures *)
  let cur_k = ref 0 in
  let cur_assign = ref 0 in
  let in_flight_low = ref 0 in
  let hooks =
    {
      Timing.h_reg_avail =
        (fun r ->
          let j = last_writer_task.(r) in
          if j < 0 || j < !in_flight_low then 0
          else if retire.(j mod two_n) <= !cur_assign then 0
          else begin
            let s = ((j mod two_n) * Ir.Reg.count) + r in
            if send_stamp.(s) = j then
              send_time.(s) + ((!cur_k - j - 1) * cfg.Config.ring_hop)
            else 0
          end);
      h_mem_dep =
        (fun ~addr ~load_site ->
          (* youngest older in-flight task writing [addr] — a plain
             downward scan over the flight window, newest first *)
          let res = ref (-1) in
          let j = ref (!cur_k - 1) in
          let continue_ = ref true in
          while !continue_ do
            if !j < !in_flight_low || !j < 0 then continue_ := false
            else if retire.(!j mod two_n) <= !cur_assign then decr j
            else begin
              let v = Occ.Intmap.find store_maps.(!j mod two_n) addr in
              if v >= 0 then begin
                let t = v lsr site_bits in
                let ssite = v land site_mask in
                let synced =
                  Occ.Intmap.mem sync_table
                    ((load_site lsl site_bits) lor ssite)
                in
                res :=
                  ((t + cfg.Config.arb_hit) lsl 1)
                  lor (if synced then 1 else 0);
                continue_ := false
              end
              else decr j
            end
          done;
          !res);
      h_load_lat = (fun ~addr -> Cache.Hierarchy.dload hier addr);
      h_mem_slot =
        (fun ~addr ~at ->
          let bank =
            Cache.slot ~block_words:cfg.Config.l1_block_words
              ~slots:cfg.Config.l1_banks addr
          in
          Occ.Slots.reserve bank_slots ~row:bank ~cap:1 ~from:at);
      h_ifetch_extra =
        (fun ~fid ~blk ->
          Cache.Hierarchy.ifetch hier (Layout.block_addr layout ~fid ~blk));
      h_cond_pred =
        (fun ~pc ~taken -> Predict.Gshare.predict_and_update gshare ~pc ~taken);
      h_switch_pred =
        (fun ~pc ~actual ->
          Predict.Target.predict_and_update switch_pred ~pc ~actual);
    }
  in
  let entry_uid ~fid ~task =
    Layout.block_id layout ~fid
      ~blk:parts.(fid).Core.Task.tasks.(task).Core.Task.entry
  in
  (* predict the transition from the previous instance into instance
     [fid]/[task]; returns correct? *)
  let predict_transition ~pfid ~ptask ~psucc ~parg ~plast ~fid ~task =
    let pt = parts.(pfid).Core.Task.tasks.(ptask) in
    let pc = entry_uid ~fid:pfid ~task:ptask in
    match psucc with
    | Dyntask.To_end -> true
    | Dyntask.To_caller ->
      (* block uids are non-negative, so -1 marks underflow *)
      let uid = Predict.Ras.pop_or ras (-1) in
      uid >= 0 && uid = entry_uid ~fid ~task
    | Dyntask.To_block ->
      let actual = target_index parg 0 pt.Core.Task.targets in
      if actual < 0 then false
      else Predict.Target.predict_and_update task_pred ~pc ~actual
    | Dyntask.To_callee ->
      (* push the continuation of the call block for the matching return *)
      (match (Interp.Trace.block_at trace plast).Ir.Block.term with
      | Ir.Block.Call (_, cont) ->
        Predict.Ras.push ras (Layout.block_id layout ~fid:pfid ~blk:cont)
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
      | Ir.Block.Halt -> ());
      let actual =
        List.length pt.Core.Task.targets
        + callee_index fnames.(parg) 0 pt.Core.Task.calls_out
      in
      Predict.Target.predict_and_update task_pred ~pc ~actual
  in
  (* the previous instance's fields, saved at the end of each iteration *)
  let pfid = ref 0 and ptask = ref 0 and psucc = ref Dyntask.To_end in
  let parg = ref 0 and plast = ref 0 in
  while Dyntask.next w do
    let k = Dyntask.index w in
    let fid = Dyntask.fid w in
    let task = Dyntask.task w in
    let first = Dyntask.first w in
    let last = Dyntask.last w in
    let size = Dyntask.size w in
    let pu = k mod n in
    cur_k := k;
    in_flight_low := max 0 (k - n + 1);
    (* cycle accounting: remember when this PU last released a task, before
       any state for task k is updated *)
    let prev_free = pu_free.(pu) in
    let correct =
      k = 0 || cfg.Config.perfect_task_pred
      || predict_transition ~pfid:!pfid ~ptask:!ptask ~psucc:!psucc
           ~parg:!parg ~plast:!plast ~fid ~task
    in
    if k > 0 then begin
      stats.Stats.task_predictions <- stats.Stats.task_predictions + 1;
      if not correct then
        stats.Stats.task_mispredicts <- stats.Stats.task_mispredicts + 1
    end;
    let base_assign =
      if k = 0 then 0 else max pu_free.(pu) (assign.((k - 1) mod two_n) + 1)
    in
    let a0 =
      if k > 0 && not correct then begin
        let restart = resolve.((k - 1) mod two_n) + 1 in
        stats.Stats.cf_penalty <-
          stats.Stats.cf_penalty + max 0 (restart - base_assign);
        max base_assign restart
      end
      else base_assign
    in
    (* no later probe of the shared ring and bank windows lands before a0 *)
    Occ.Slots.raise_floor ring_slots a0;
    Occ.Slots.raise_floor bank_slots a0;
    (* violation / ARB-overflow loop; each attempt leaves its schedule in
       [tctx] *)
    let assign_t = ref a0 in
    cur_assign := !assign_t;
    Timing.exec tctx ~trace ~layout ~first ~last
      ~start_fetch:(!assign_t + cfg.Config.task_start_overhead)
      ~mem_hold:0 hooks;
    (* ARB overflow: speculative footprint exceeds the task's ARB share;
       serialise memory operations behind the predecessor's retirement *)
    if tctx.Timing.distinct_addrs > cfg.Config.arb_entries_per_pu && k > 0
    then begin
      stats.Stats.arb_overflows <- stats.Stats.arb_overflows + 1;
      cur_assign := !assign_t;
      Timing.exec tctx ~trace ~layout ~first ~last
        ~start_fetch:(!assign_t + cfg.Config.task_start_overhead)
        ~mem_hold:retire.((k - 1) mod two_n) hooks
    end;
    let retries = ref 0 in
    let violations_here = ref 0 in
    let stable = ref false in
    while not !stable do
      stable := true;
      if !retries < max_violation_retries then begin
        (* detect memory-dependence violations against older in-flight
           stores *)
        let v_best = ref (-1) in
        for li = 0 to tctx.Timing.n_loads - 1 do
          let m_addr = tctx.Timing.l_addr.(li) in
          let m_time = tctx.Timing.l_time.(li) in
          let psite = tctx.Timing.l_site.(li) in
          let lsite =
            Layout.site_id layout ~fid:(Timing.site_fid psite)
              ~blk:(Timing.site_blk psite) ~idx:(Timing.site_idx psite)
          in
          (* same newest-first scan as h_mem_dep, stopping at the youngest
             store to the address (or a task already retired by the load) *)
          let j = ref (k - 1) in
          let continue_ = ref true in
          while !continue_ do
            if !j < !in_flight_low || !j < 0 then continue_ := false
            else if retire.(!j mod two_n) <= m_time then continue_ := false
            else begin
              let v = Occ.Intmap.find store_maps.(!j mod two_n) m_addr in
              if v >= 0 then begin
                let t = v lsr site_bits in
                let store_site = v land site_mask in
                let key = (lsite lsl site_bits) lor store_site in
                if t > m_time && not (Occ.Intmap.mem sync_table key) then begin
                  let v_time = t + cfg.Config.arb_hit in
                  if
                    Occ.Intmap.cardinal sync_table
                    < cfg.Config.sync_table_size
                  then Occ.Intmap.set sync_table key 1;
                  if !v_best < 0 || v_time < !v_best then v_best := v_time
                end;
                continue_ := false
              end
              else decr j
            end
          done
        done;
        if !v_best >= 0 then begin
          let v_time = !v_best in
          incr violations_here;
          stats.Stats.violations <- stats.Stats.violations + 1;
          stats.Stats.mem_penalty <-
            stats.Stats.mem_penalty + max 0 (v_time - !assign_t);
          assign_t := max !assign_t v_time + 1;
          incr retries;
          cur_assign := !assign_t;
          Timing.exec tctx ~trace ~layout ~first ~last
            ~start_fetch:(!assign_t + cfg.Config.task_start_overhead)
            ~mem_hold:0 hooks;
          stable := false
        end
      end
    done;
    let slot = k mod two_n in
    assign.(slot) <- !assign_t;
    resolve.(slot) <- tctx.Timing.resolve;
    let complete = tctx.Timing.complete in
    let retire_k =
      if k = 0 then complete
      else max complete (retire.((k - 1) mod two_n) + 1)
    in
    retire.(slot) <- retire_k;
    pu_free.(pu) <- retire_k + cfg.Config.task_end_overhead;
    (* register the task's outgoing values on the ring, per-register in
       descending register order — the order of the old reg_writes list —
       because ring-slot contention makes registration order visible to
       send times *)
    let rc = regcomms.(fid) in
    let task_blocks = parts.(fid).Core.Task.tasks.(task).Core.Task.blocks in
    let slot_base = slot * Ir.Reg.count in
    for r = Ir.Reg.count - 1 downto 0 do
      let t = tctx.Timing.local_time.(r) in
      if t >= 0 then
        (* dead-register analysis: values no successor can read before
           rewriting are never put on the ring *)
        if Core.Regcomm.needed rc ~task ~reg:r then begin
          let desired =
            send_time_of trace tctx rc ~fid ~task ~first ~last task_blocks
              ~complete r t tctx.Timing.local_site.(r)
          in
          (* ring bandwidth: this PU can inject ring_bandwidth values/cycle *)
          let cycle =
            Occ.Slots.reserve ring_slots ~row:pu
              ~cap:cfg.Config.ring_bandwidth ~from:desired
          in
          send_time.(slot_base + r) <- cycle;
          send_stamp.(slot_base + r) <- k;
          stats.Stats.ring_sends <- stats.Stats.ring_sends + 1;
          last_writer_task.(r) <- k
        end
    done;
    let smap = store_maps.(slot) in
    Occ.Intmap.clear smap;
    for si = 0 to tctx.Timing.n_stores - 1 do
      let psite = tctx.Timing.s_site.(si) in
      let ssite =
        Layout.site_id layout ~fid:(Timing.site_fid psite)
          ~blk:(Timing.site_blk psite) ~idx:(Timing.site_idx psite)
      in
      Occ.Intmap.set smap tctx.Timing.s_addr.(si)
        ((tctx.Timing.s_time.(si) lsl site_bits) lor ssite)
    done;
    (* statistics *)
    stats.Stats.tasks <- stats.Stats.tasks + 1;
    stats.Stats.dyn_insns <- stats.Stats.dyn_insns + size;
    stats.Stats.ct_insns <- stats.Stats.ct_insns + Dyntask.ct w;
    stats.Stats.intra_branches <-
      stats.Stats.intra_branches + tctx.Timing.intra_branches;
    stats.Stats.intra_branch_mispredicts <-
      stats.Stats.intra_branch_mispredicts + tctx.Timing.intra_mispredicts;
    stats.Stats.start_overhead <-
      stats.Stats.start_overhead + cfg.Config.task_start_overhead;
    stats.Stats.end_overhead <-
      stats.Stats.end_overhead + cfg.Config.task_end_overhead;
    stats.Stats.inter_task_comm <-
      stats.Stats.inter_task_comm + tctx.Timing.inter_wait;
    stats.Stats.intra_task_dep <-
      stats.Stats.intra_task_dep + tctx.Timing.intra_wait;
    stats.Stats.load_imbalance <-
      stats.Stats.load_imbalance + max 0 (retire_k - complete);
    stats.Stats.syncs <- stats.Stats.syncs + tctx.Timing.sync_waits;
    (* cycle accounting: partition this PU's timeline from its previous
       release [prev_free] to this task's release [retire + end_overhead]
       into disjoint, non-negative segments.  Per PU the segments telescope,
       so after the drain top-up below the categories sum to exactly
       [num_pus * cycles] (checked by Account.finalize). *)
    let acct = stats.Stats.acct in
    Account.add acct Account.Idle (base_assign - prev_free);
    Account.add acct Account.Ctrl_squash (a0 - base_assign);
    Account.add acct Account.Mem_squash (!assign_t - a0);
    Account.add acct Account.Overhead
      (cfg.Config.task_start_overhead + cfg.Config.task_end_overhead);
    Timing.attribute_ctx tctx
      ~start_fetch:(!assign_t + cfg.Config.task_start_overhead) acct;
    Account.add acct Account.Load_imbalance (retire_k - complete);
    (match observer with
    | Some f ->
      f
        {
          e_index = k;
          e_instance = Dyntask.get w;
          e_pu = pu;
          e_assign = !assign_t;
          e_complete = complete;
          e_retire = retire_k;
          e_mispredicted = not correct;
          e_violations = !violations_here;
        }
    | None -> ());
    (* window-span sample: dynamic instructions in flight at assignment *)
    sizes.(slot) <- size;
    let span = ref size in
    for j = !in_flight_low to k - 1 do
      if retire.(j mod two_n) > !assign_t then
        span := !span + sizes.(j mod two_n)
    done;
    stats.Stats.window_span_total <- stats.Stats.window_span_total + !span;
    stats.Stats.window_span_samples <- stats.Stats.window_span_samples + 1;
    pfid := fid;
    ptask := task;
    psucc := Dyntask.succ w;
    parg := Dyntask.succ_arg w;
    plast := last
  done;
  let k_max = Dyntask.index w + 1 in
  (* Total time is the last task's retirement plus its end overhead.  Its
     retire slot is written from the *final* timing attempt, after the
     ARB-overflow re-attempt and the violation squash/re-execution loop
     have converged, and retirement times are strictly increasing in k — so
     a squash-replayed final task is fully counted.  The conservation check
     below would catch any re-introduced under-count: a cycles value taken
     from a pre-replay snapshot could not absorb the Mem_squash charge. *)
  if k_max > 0 then
    stats.Stats.cycles <-
      retire.((k_max - 1) mod two_n) + cfg.Config.task_end_overhead;
  (* cycle accounting: each PU drains idle from its last release to the end
     of execution, completing the per-PU telescopes *)
  for p = 0 to n - 1 do
    Account.add stats.Stats.acct Account.Idle (stats.Stats.cycles - pu_free.(p))
  done;
  Account.finalize stats.Stats.acct ~pus:n ~cycles:stats.Stats.cycles;
  stats.Stats.l1d_accesses <- Cache.accesses (Cache.Hierarchy.l1d hier);
  stats.Stats.l1d_misses <- Cache.misses (Cache.Hierarchy.l1d hier);
  stats.Stats.l1i_accesses <- Cache.accesses (Cache.Hierarchy.l1i hier);
  stats.Stats.l1i_misses <- Cache.misses (Cache.Hierarchy.l1i hier);
  stats.Stats.l2_accesses <- Cache.accesses (Cache.Hierarchy.l2 hier);
  stats.Stats.l2_misses <- Cache.misses (Cache.Hierarchy.l2 hier);
  { stats; instances = k_max }

let run_prepared ?observer cfg prep trace =
  run_on ?observer (machine cfg) prep trace

let run ?observer cfg plan =
  let trace = (Interp.Run.execute plan.Core.Partition.prog).Interp.Run.trace in
  run_prepared ?observer cfg (prepare plan trace) trace
