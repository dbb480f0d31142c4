(* Reference superscalar machine: the whole trace as one instance on
   Timing's pipeline, the one every simulation runs on.  The hooks are the
   engine's intra-PU ones (D-cache latency, I-fetch, gshare, switch
   predictor) and null inter-task ones: no operand arrives from an older
   task, no store of one forwards, and the D-cache banks are private.  The
   machine has no ARB, so a load takes its D-cache latency ([arb_hit] is
   zeroed), and the window occupancy is Timing's commit-minus-dispatch
   sum. *)

type result = {
  stats : Stats.t;
  avg_window : float;
}

let max_rob = 65_536

let config ~width ~rob =
  if width < 1 || width > Timing.max_issue_width then
    invalid_arg
      (Printf.sprintf "Sim.Superscalar.config: width %d (need 1 to %d)" width
         Timing.max_issue_width);
  if rob < 1 || rob > max_rob then
    invalid_arg
      (Printf.sprintf "Sim.Superscalar.config: ROB %d (need 1 to %d)" rob
         max_rob);
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

let run (cfg : Config.t) (trace : Interp.Trace.t) =
  let cfg = { cfg with Config.arb_hit = 0 } in
  let layout = Layout.create trace.Interp.Trace.funcs in
  let hier = Cache.Hierarchy.create cfg in
  let gshare = Predict.Gshare.create cfg in
  let switch_pred = Predict.Target.create cfg in
  let hooks =
    {
      Timing.h_reg_avail = (fun _ -> 0);
      h_mem_dep = (fun ~addr:_ ~load_site:_ -> -1);
      h_load_lat = (fun ~addr -> Cache.Hierarchy.dload hier addr);
      h_mem_slot = (fun ~addr:_ ~at -> at);
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
  let ctx = Timing.create cfg in
  Timing.exec ctx ~trace ~layout ~first:0
    ~last:(Interp.Trace.num_events trace - 1)
    ~start_fetch:0 ~mem_hold:0 hooks;
  let stats = Stats.create () in
  stats.Stats.cycles <- ctx.Timing.complete;
  stats.Stats.dyn_insns <- ctx.Timing.dyn_insns;
  stats.Stats.intra_branches <- ctx.Timing.intra_branches;
  stats.Stats.intra_branch_mispredicts <- ctx.Timing.intra_mispredicts;
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
    else float_of_int ctx.Timing.occupancy /. float_of_int stats.Stats.cycles
  in
  { stats; avg_window }
