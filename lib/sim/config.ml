type t = {
  num_pus : int;
  in_order : bool;
  issue_width : int;
  rob_size : int;
  iq_size : int;
  fu_int : int;
  fu_fp : int;
  fu_mem : int;
  fu_branch : int;
  front_depth : int;
  task_start_overhead : int;
  task_end_overhead : int;
  branch_redirect : int;
  ring_bandwidth : int;
  ring_hop : int;
  lat_int : int;
  lat_int_mul : int;
  lat_int_div : int;
  lat_fp : int;
  lat_fp_div : int;
  l1_sets : int;
  l1_ways : int;
  l1_block_words : int;
  l1_latency : int;
  l1_banks : int;
  l2_sets : int;
  l2_ways : int;
  l2_latency : int;
  mem_latency : int;
  arb_hit : int;
  arb_entries_per_pu : int;
  sync_table_size : int;
  predictor_bits : int;
  predictor_entries : int;
  task_path_history : bool;
  perfect_task_pred : bool;
}

let max_pus = 256

let default ~num_pus ~in_order =
  if num_pus < 1 || num_pus > max_pus then
    invalid_arg
      (Printf.sprintf "Sim.Config.default: %d PUs (need 1 to %d)" num_pus
         max_pus);
  let l1_bytes = if num_pus <= 4 then 64 * 1024 else 128 * 1024 in
  let block_bytes = 32 in
  let l1_ways = 2 in
  {
    num_pus;
    in_order;
    issue_width = 2;
    rob_size = 16;
    iq_size = 8;
    fu_int = 2;
    fu_fp = 1;
    fu_mem = 1;
    fu_branch = 1;
    front_depth = 2;
    task_start_overhead = 2;
    task_end_overhead = 2;
    branch_redirect = 3;
    ring_bandwidth = 2;
    ring_hop = 1;
    lat_int = 1;
    lat_int_mul = 3;
    lat_int_div = 12;
    lat_fp = 3;
    lat_fp_div = 12;
    l1_sets = l1_bytes / (block_bytes * l1_ways);
    l1_ways;
    l1_block_words = block_bytes / 4;
    l1_latency = 1;
    l1_banks = num_pus;
    l2_sets = 4 * 1024 * 1024 / (block_bytes * 2);
    l2_ways = 2;
    l2_latency = 12;
    mem_latency = 58;
    arb_hit = 2;
    arb_entries_per_pu = 32;
    sync_table_size = 256;
    predictor_bits = 16;
    predictor_entries = 64 * 1024;
    task_path_history = true;
    perfect_task_pred = false;
  }
