(* Frozen pre-event-core reference implementation of the Multiscalar engine.
   A verbatim copy of lib/sim/engine.ml as of PR 5, kept ONLY as the oracle
   for the cycle-exact differential of the event-driven core ([differential]
   at the end, which test/test_event_core.ml and the fuzzer run).  Do not
   optimise this file; its value is that it stays behaviourally identical
   to the goldens the new core must match. *)
open Sim
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

(* per-instance data kept while the instance can still be "in flight" with
   respect to younger tasks *)
type flight = {
  sends : (Ir.Reg.t, int) Hashtbl.t;        (* register -> ring send time *)
  store_map : (int, int * int) Hashtbl.t;   (* addr -> (time, store site id) *)
}

let empty_flight () = { sends = Hashtbl.create 1; store_map = Hashtbl.create 1 }

let max_violation_retries = 8

let run_with_trace ?observer (cfg : Config.t) (plan : Core.Partition.plan)
    trace =
  let fnames = trace.Interp.Trace.fnames in
  let funcs = trace.Interp.Trace.funcs in
  let parts =
    Array.map (fun name -> Ir.Prog.Smap.find name plan.Core.Partition.parts)
      fnames
  in
  let regcomms =
    Array.mapi (fun fid part -> Core.Regcomm.create funcs.(fid) part) parts
  in
  let instances =
    let chop = Dyntask.chop trace ~parts in
    Array.init (Dyntask.count chop) (Dyntask.get chop)
  in
  let k_max = Array.length instances in
  let layout = Layout.create funcs in
  let hier = Cache.Hierarchy.create cfg in
  let gshare = Predict.Gshare.create cfg in
  let switch_pred = Predict.Target.create cfg in
  let task_pred =
    Predict.Target.create ~use_history:cfg.Config.task_path_history cfg
  in
  let ras = Predict.Ras.create 64 in
  let stats = Stats.create () in
  let n = cfg.Config.num_pus in
  let pu_free = Array.make n 0 in
  let assign = Array.make (max 1 k_max) 0 in
  let retire = Array.make (max 1 k_max) 0 in
  let resolve = Array.make (max 1 k_max) 0 in
  (* circular buffer: only the last 2N instances can matter to a younger
     task's timing *)
  let flights = Array.init (2 * n) (fun _ -> empty_flight ()) in
  let last_writer_task = Array.make Ir.Reg.count (-1) in
  let sync_table : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let ring_slots : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* one access per D-cache/ARB bank per cycle, shared by all PUs *)
  let bank_slots : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let mem_slot ~addr ~at =
    let bank =
      Cache.slot ~block_words:cfg.Config.l1_block_words
        ~slots:cfg.Config.l1_banks addr
    in
    let t = ref at in
    while Hashtbl.mem bank_slots (bank, !t) do
      incr t
    done;
    Hashtbl.replace bank_slots (bank, !t) ();
    !t
  in
  let entry_uid k =
    let inst = instances.(k) in
    let part = parts.(inst.Dyntask.fid) in
    let entry = part.Core.Task.tasks.(inst.Dyntask.task).Core.Task.entry in
    Layout.block_id layout ~fid:inst.Dyntask.fid ~blk:entry
  in
  (* predict the transition prev -> k; returns correct? *)
  let predict_transition prev k =
    let pinst = instances.(prev) in
    let ppart = parts.(pinst.Dyntask.fid) in
    let ptask = ppart.Core.Task.tasks.(pinst.Dyntask.task) in
    let pc = entry_uid prev in
    match pinst.Dyntask.kind with
    | Dyntask.Program_end -> true
    | Dyntask.Returns ->
      (match Predict.Ras.pop ras with
      | Some uid -> uid = entry_uid k
      | None -> false)
    | Dyntask.Fallthrough l ->
      let rec index i = function
        | [] -> -1
        | x :: rest -> if x = l then i else index (i + 1) rest
      in
      let actual = index 0 ptask.Core.Task.targets in
      if actual < 0 then false
      else Predict.Target.predict_and_update task_pred ~pc ~actual
    | Dyntask.Calls callee_fid ->
      (* push the continuation of the call block for the matching return *)
      (match (Interp.Trace.block_at trace pinst.Dyntask.last).Ir.Block.term with
      | Ir.Block.Call (_, cont) ->
        Predict.Ras.push ras
          (Layout.block_id layout ~fid:pinst.Dyntask.fid ~blk:cont)
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
      | Ir.Block.Halt -> ());
      let rec index i = function
        | [] -> -1
        | x :: rest ->
          if String.equal x fnames.(callee_fid) then i else index (i + 1) rest
      in
      let actual =
        List.length ptask.Core.Task.targets
        + index 0 ptask.Core.Task.calls_out
      in
      Predict.Target.predict_and_update task_pred ~pc ~actual
  in
  let in_flight_range k = max 0 (k - n + 1) in
  for k = 0 to k_max - 1 do
    let inst = instances.(k) in
    let pu = k mod n in
    (* cycle accounting: remember when this PU last released a task, before
       any state for task k is updated *)
    let prev_free = pu_free.(pu) in
    let correct =
      k = 0 || cfg.Config.perfect_task_pred || predict_transition (k - 1) k
    in
    if k > 0 then begin
      stats.Stats.task_predictions <- stats.Stats.task_predictions + 1;
      if not correct then
        stats.Stats.task_mispredicts <- stats.Stats.task_mispredicts + 1
    end;
    let base_assign =
      if k = 0 then 0 else max pu_free.(pu) (assign.(k - 1) + 1)
    in
    let a0 =
      if k > 0 && not correct then begin
        let restart = resolve.(k - 1) + 1 in
        stats.Stats.cf_penalty <-
          stats.Stats.cf_penalty + max 0 (restart - base_assign);
        max base_assign restart
      end
      else base_assign
    in
    (* one simulation attempt from a given assignment time; returns the
       timing result *)
    let attempt assign_t ~mem_hold =
      let send_of j r =
        if j < in_flight_range k then None
        else Hashtbl.find_opt flights.(j mod (2 * n)).sends r
      in
      let reg_avail r =
        let j = last_writer_task.(r) in
        if j < 0 || j < in_flight_range k then 0
        else if retire.(j) <= assign_t then 0
        else
          match send_of j r with
          | Some s -> s + ((k - j - 1) * cfg.Config.ring_hop)
          | None -> 0
      in
      let mem_dep ~addr ~load_site =
        let rec scan j =
          if j < in_flight_range k || j < 0 then None
          else if retire.(j) <= assign_t then scan (j - 1)
          else
            match Hashtbl.find_opt flights.(j mod (2 * n)).store_map addr with
            | Some (t, store_site) ->
              Some (t + cfg.Config.arb_hit,
                    Hashtbl.mem sync_table (load_site, store_site))
            | None -> scan (j - 1)
        in
        scan (k - 1)
      in
      let env =
        {
          Timing_ref.start_fetch = assign_t + cfg.Config.task_start_overhead;
          reg_avail;
          mem_dep;
          load_lat = (fun ~addr -> Cache.Hierarchy.dload hier addr);
          mem_slot;
          ifetch_extra =
            (fun ~fid ~blk ->
              Cache.Hierarchy.ifetch hier (Layout.block_addr layout ~fid ~blk));
          cond_pred =
            (fun ~pc ~taken -> Predict.Gshare.predict_and_update gshare ~pc ~taken);
          switch_pred =
            (fun ~pc ~actual ->
              Predict.Target.predict_and_update switch_pred ~pc ~actual);
          mem_hold;
        }
      in
      Timing_ref.run cfg trace layout inst env
    in
    (* violation / ARB-overflow loop *)
    let assign_t = ref a0 in
    let res = ref (attempt !assign_t ~mem_hold:0) in
    (* ARB overflow: speculative footprint exceeds the task's ARB share;
       serialise memory operations behind the predecessor's retirement *)
    if !res.Timing_ref.distinct_addrs > cfg.Config.arb_entries_per_pu && k > 0 then begin
      stats.Stats.arb_overflows <- stats.Stats.arb_overflows + 1;
      res := attempt !assign_t ~mem_hold:retire.(k - 1)
    end;
    let retries = ref 0 in
    let violations_here = ref 0 in
    let stable = ref false in
    while not !stable do
      stable := true;
      if !retries < max_violation_retries then begin
        (* detect memory-dependence violations against older in-flight
           stores *)
        let violation = ref None in
        List.iter
          (fun (ld : Timing_ref.mem_op) ->
            let lsite =
              Layout.site_id layout ~fid:ld.Timing_ref.m_site.Timing_ref.s_fid
                ~blk:ld.Timing_ref.m_site.Timing_ref.s_blk ~idx:ld.Timing_ref.m_site.Timing_ref.s_idx
            in
            let rec scan j =
              if j < in_flight_range k || j < 0 then ()
              else if retire.(j) <= ld.Timing_ref.m_time then ()
              else
                match
                  Hashtbl.find_opt flights.(j mod (2 * n)).store_map
                    ld.Timing_ref.m_addr
                with
                | Some (t, store_site) ->
                  if
                    t > ld.Timing_ref.m_time
                    && not (Hashtbl.mem sync_table (lsite, store_site))
                  then begin
                    let v_time = t + cfg.Config.arb_hit in
                    if Hashtbl.length sync_table < cfg.Config.sync_table_size
                    then Hashtbl.replace sync_table (lsite, store_site) ();
                    match !violation with
                    | Some (best, _) when best <= v_time -> ()
                    | Some _ | None -> violation := Some (v_time, lsite)
                  end
                | None -> scan (j - 1)
            in
            scan (k - 1))
          !res.Timing_ref.loads;
        match !violation with
        | Some (v_time, _) ->
          incr violations_here;
          stats.Stats.violations <- stats.Stats.violations + 1;
          stats.Stats.mem_penalty <-
            stats.Stats.mem_penalty + max 0 (v_time - !assign_t);
          assign_t := max !assign_t v_time + 1;
          incr retries;
          res := attempt !assign_t ~mem_hold:0;
          stable := false
        | None -> ()
      end
    done;
    let res = !res in
    assign.(k) <- !assign_t;
    resolve.(k) <- res.Timing_ref.resolve;
    let complete = res.Timing_ref.complete in
    retire.(k) <-
      (if k = 0 then complete else max complete (retire.(k - 1) + 1));
    pu_free.(pu) <- retire.(k) + cfg.Config.task_end_overhead;
    (* register the task's outgoing values on the ring.  A value goes out
       when the compiler can prove it final: at the write itself when no
       later task block may rewrite it, otherwise at the first executed
       block past the write from which no rewrite is reachable (the per-path
       release annotation), and failing that at task completion. *)
    let flight = empty_flight () in
    let rc = regcomms.(inst.Dyntask.fid) in
    let task_blocks =
      parts.(inst.Dyntask.fid).Core.Task.tasks.(inst.Dyntask.task)
        .Core.Task.blocks
    in
    let send_time_of (r : Ir.Reg.t) t (site : Timing_ref.site) =
      if site.Timing_ref.s_fid <> inst.Dyntask.fid
         || not (Core.Task.Iset.mem site.Timing_ref.s_blk task_blocks)
      then complete
      else if
        Core.Regcomm.forwardable rc ~task:inst.Dyntask.task
          ~blk:site.Timing_ref.s_blk ~idx:site.Timing_ref.s_idx ~reg:r
      then t
      else begin
        (* find the event of the writing block, then the first later event
           whose block can no longer rewrite r *)
        let n_ev = inst.Dyntask.last - inst.Dyntask.first + 1 in
        let write_pos = ref (-1) in
        (let j = ref 0 in
         while !write_pos = -1 && !j < n_ev do
           let i = inst.Dyntask.first + !j in
           if
             Interp.Trace.get_fid trace i = inst.Dyntask.fid
             && Interp.Trace.get_blk trace i = site.Timing_ref.s_blk
           then write_pos := !j;
           incr j
         done);
        if !write_pos = -1 then complete
        else begin
          let release = ref complete in
          (let j = ref (!write_pos + 1) in
           while !release = complete && !j < n_ev do
             let i = inst.Dyntask.first + !j in
             let ev_blk = Interp.Trace.get_blk trace i in
             if
               Interp.Trace.get_fid trace i = inst.Dyntask.fid
               && Core.Task.Iset.mem ev_blk task_blocks
               && not
                    (Core.Regcomm.may_rewrite rc ~task:inst.Dyntask.task
                       ~blk:ev_blk ~reg:r)
             then release := max t res.Timing_ref.event_entry.(!j);
             incr j
           done);
          !release
        end
      end
    in
    List.iter
      (fun (r, t, (site : Timing_ref.site)) ->
        (* dead-register analysis: values no successor can read before
           rewriting are never put on the ring *)
        if Core.Regcomm.needed rc ~task:inst.Dyntask.task ~reg:r then begin
          let desired = send_time_of r t site in
          (* ring bandwidth: this PU can inject ring_bandwidth values/cycle *)
          let cycle = ref desired in
          let count c =
            match Hashtbl.find_opt ring_slots (pu, c) with
            | Some x -> x
            | None -> 0
          in
          while count !cycle >= cfg.Config.ring_bandwidth do
            incr cycle
          done;
          Hashtbl.replace ring_slots (pu, !cycle) (count !cycle + 1);
          Hashtbl.replace flight.sends r !cycle;
          stats.Stats.ring_sends <- stats.Stats.ring_sends + 1;
          last_writer_task.(r) <- k
        end)
      res.Timing_ref.reg_writes;
    List.iter
      (fun (st : Timing_ref.mem_op) ->
        let ssite =
          Layout.site_id layout ~fid:st.Timing_ref.m_site.Timing_ref.s_fid
            ~blk:st.Timing_ref.m_site.Timing_ref.s_blk ~idx:st.Timing_ref.m_site.Timing_ref.s_idx
        in
        Hashtbl.replace flight.store_map st.Timing_ref.m_addr
          (st.Timing_ref.m_time, ssite))
      res.Timing_ref.stores;
    flights.(k mod (2 * n)) <- flight;
    (* statistics *)
    stats.Stats.tasks <- stats.Stats.tasks + 1;
    stats.Stats.dyn_insns <- stats.Stats.dyn_insns + inst.Dyntask.size;
    stats.Stats.ct_insns <- stats.Stats.ct_insns + inst.Dyntask.ct;
    stats.Stats.intra_branches <-
      stats.Stats.intra_branches + res.Timing_ref.intra_branches;
    stats.Stats.intra_branch_mispredicts <-
      stats.Stats.intra_branch_mispredicts + res.Timing_ref.intra_mispredicts;
    stats.Stats.start_overhead <-
      stats.Stats.start_overhead + cfg.Config.task_start_overhead;
    stats.Stats.end_overhead <-
      stats.Stats.end_overhead + cfg.Config.task_end_overhead;
    stats.Stats.inter_task_comm <-
      stats.Stats.inter_task_comm + res.Timing_ref.inter_wait;
    stats.Stats.intra_task_dep <-
      stats.Stats.intra_task_dep + res.Timing_ref.intra_wait;
    stats.Stats.load_imbalance <-
      stats.Stats.load_imbalance + max 0 (retire.(k) - complete);
    stats.Stats.syncs <- stats.Stats.syncs + res.Timing_ref.sync_waits;
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
    Timing_ref.attribute res
      ~start_fetch:(!assign_t + cfg.Config.task_start_overhead) acct;
    Account.add acct Account.Load_imbalance (retire.(k) - complete);
    (match observer with
    | Some f ->
      f
        {
          e_index = k;
          e_instance = inst;
          e_pu = pu;
          e_assign = !assign_t;
          e_complete = complete;
          e_retire = retire.(k);
          e_mispredicted = not correct;
          e_violations = !violations_here;
        }
    | None -> ());
    (* window-span sample: dynamic instructions in flight at assignment *)
    let span = ref inst.Dyntask.size in
    for j = in_flight_range k to k - 1 do
      if retire.(j) > !assign_t then span := !span + instances.(j).Dyntask.size
    done;
    stats.Stats.window_span_total <- stats.Stats.window_span_total + !span;
    stats.Stats.window_span_samples <- stats.Stats.window_span_samples + 1
  done;
  (* Total time is the last task's retirement plus its end overhead.
     [retire.(k_max - 1)] is written from the *final* timing attempt, after
     the ARB-overflow re-attempt and the violation squash/re-execution loop
     have converged, and retirement times are strictly increasing in k — so
     a squash-replayed final task is fully counted.  The conservation check
     below would catch any re-introduced under-count: a cycles value taken
     from a pre-replay snapshot could not absorb the Mem_squash charge. *)
  if k_max > 0 then
    stats.Stats.cycles <- retire.(k_max - 1) + cfg.Config.task_end_overhead;
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

(* The one event-core differential: [Sim.Engine.run_prepared] on [prep]
   against this frozen core on [plan] and [trace] ([prep] must have been
   prepared from them).  [None] when the instance counts, every task's
   schedule (index, PU, assign, complete, retire, misprediction,
   violations) and the stats agree; otherwise the first divergence, in
   that order.  [Stats.t] is ints all the way down, so structural equality
   compares every field and cycle-account category. *)
let differential cfg prep plan trace =
  let log = ref [] and log_ref = ref [] in
  let r =
    Engine.run_prepared cfg prep trace ~observer:(fun e ->
        log :=
          Engine.(e.e_index, e.e_pu, e.e_assign, e.e_complete, e.e_retire,
                  e.e_mispredicted, e.e_violations)
          :: !log)
  in
  let r_ref =
    run_with_trace cfg plan trace ~observer:(fun e ->
        log_ref :=
          (e.e_index, e.e_pu, e.e_assign, e.e_complete, e.e_retire,
           e.e_mispredicted, e.e_violations)
          :: !log_ref)
  in
  if r.Engine.instances <> r_ref.instances then
    Some
      (Printf.sprintf "instances diverge: event core %d, sim_ref %d"
         r.Engine.instances r_ref.instances)
  else if !log <> !log_ref then Some "per-task schedules diverge from sim_ref"
  else if r.Engine.stats <> r_ref.stats then
    Some
      (Printf.sprintf "stats diverge: event core %d cycles, sim_ref %d"
         r.Engine.stats.Stats.cycles r_ref.stats.Stats.cycles)
  else None
