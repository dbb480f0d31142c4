(** Machine configuration, defaulting to the paper's §4.2 parameters. *)

type t = {
  num_pus : int;
  in_order : bool;            (** in-order vs out-of-order issue within a PU *)
  issue_width : int;          (** 2-way issue *)
  rob_size : int;             (** 16-entry reorder buffer *)
  iq_size : int;              (** 8-entry issue list *)
  fu_int : int;               (** 2 integer units *)
  fu_fp : int;                (** 1 floating-point unit *)
  fu_mem : int;               (** 1 memory port *)
  fu_branch : int;            (** 1 branch unit *)
  front_depth : int;          (** fetch-to-dispatch pipeline depth *)
  task_start_overhead : int;  (** cycles to set up a task on a PU *)
  task_end_overhead : int;    (** cycles to commit task state at retire *)
  branch_redirect : int;      (** intra-task misprediction fetch redirect *)
  ring_bandwidth : int;       (** register values sent per cycle per PU *)
  ring_hop : int;             (** cycles per ring hop beyond the first *)
  (* latencies *)
  lat_int : int;
  lat_int_mul : int;
  lat_int_div : int;
  lat_fp : int;
  lat_fp_div : int;
  (* memory hierarchy *)
  l1_sets : int;
  l1_ways : int;
  l1_block_words : int;       (** 32-byte blocks = 8 4-byte words *)
  l1_latency : int;
  l1_banks : int;
      (** D-cache/ARB interleave banks ("as many banks as the number of
          PUs"); one access per bank per cycle *)
  l2_sets : int;
  l2_ways : int;
  l2_latency : int;
  mem_latency : int;
  arb_hit : int;              (** ARB access / forward latency *)
  arb_entries_per_pu : int;   (** speculative addresses a task may buffer *)
  sync_table_size : int;      (** memory-dependence synchronization table *)
  (* predictors *)
  predictor_bits : int;       (** history length (16) *)
  predictor_entries : int;    (** 64K *)
  task_path_history : bool;
      (** false degrades the inter-task predictor to bimodal (ablation) *)
  perfect_task_pred : bool;
      (** oracle next-task prediction: no control squashes ever (used to
          isolate the other cycle sinks in accounting experiments) *)
}

val max_pus : int
(** The largest machine (256 PUs) that [msc] options and [mscd] requests
    may ask for.  A simulation keeps about 7.5 KB per PU (ring and bank
    windows, 2N store maps, 2N register-send rows) on top of its caches
    and predictors, which cost what the run touches of them: 42 KB of
    page indexes, 1.2 KB per page of 64 cache sets touched and 80 bytes
    per page of 64 predictor entries, 1.6 MB at most.  Each task scans up
    to N in-flight tasks, so the bound caps one request's memory and
    time. *)

val default : num_pus:int -> in_order:bool -> t
(** The paper's configuration: L1 caches are 64 KB for 4 PUs and 128 KB for
    8 PUs (2-way, 32-byte blocks, 1-cycle hit); L2 is 4 MB, 2-way, 12-cycle;
    memory 58 cycles; ARB 32 entries/PU with 2-cycle hit; gshare and
    path-based predictors with 16-bit histories and 64K entries.  Raises
    [Invalid_argument] unless [1 <= num_pus <= max_pus]. *)
