(** Static cost model: predicted cycle-account shares of a task partition.

    The paper evaluates task-selection heuristics by simulating them and
    attributing every PU-cycle to one of the five performance issues of §2.
    This module supplies the purely static counterpart: per-block execution
    frequencies estimated from loop structure ({!Loops}/{!Dom}) and simple
    branch heuristics, per-function weights from the call graph, and a small
    arithmetic model that folds per-task observations (activation weight,
    expected dynamic size, hardware targets) and per-edge observations
    (consumer activations × exposed latency) into raw category scores whose
    normalisation mirrors {!Sim.Account}'s share vector.

    The module is deliberately neutral: it knows nothing about tasks or
    partitions — [Core.Cost] extracts the observations from a
    {!Core.Partition.plan} and its {!Core.Depend} criticality pairs, then
    evaluates them here.  Everything is deterministic: all sums are over
    caller-supplied lists (built in sorted order) and arrays. *)

(** {1 Model constants} *)

type model = {
  trip : float;
      (** assumed iterations of a loop per entry (static heuristic) *)
  exit_bias : float;
      (** relative branch weight of a loop-exit edge vs. staying inside *)
  fwd_base : float;
      (** base forwarding latency charged per register edge, cycles *)
  slack_cap : float;
      (** ceiling on the produce-late/consume-early slack charged per
          edge — out-of-order PUs hide most of a long stall, and an
          uncapped term would reward splitting long dependence chains
          into many edges whose real serialisation is conserved *)
  expose_rate : float;
      (** cycles charged per upward-exposed register read at depth 0 — a
          read the task issues immediately always waits on the ring,
          whoever the producer is.  Exposed reads, unlike the pairwise
          edges, cannot be shrunk by moving a boundary: splitting a task
          turns internal def-use pairs into new exposed reads, so this is
          the term that keeps boundary search honest about communication *)
  expose_horizon : float;
      (** instruction depth beyond which an exposed read is considered
          hidden (the producer has forwarded by then); the charge decays
          linearly from [expose_rate] at depth 0 to zero here *)
  mem_penalty : float;
      (** cycles charged per predicted cross-task memory dependence *)
  mis_rate : float;
      (** task-misprediction probability per hardware target beyond one *)
  per_task_overhead : float;
      (** fixed per-activation cycles (head start-up, ring handoff) *)
}

val default_model : model

(** {1 Flow estimation} *)

val block_freqs : Ir.Func.t -> float array
(** Relative per-block execution frequency, entry = 1.0.  Propagated in
    reverse postorder: a loop header multiplies its incoming forward mass
    by [trip]; a retreating out-edge carries relative weight [trip - 1]
    (the recirculating share, dropped from propagation — the header already
    accounted for it); a forward loop-exit edge is down-weighted by
    [exit_bias]; remaining out-edges split uniformly.  Reachable blocks
    that end with zero mass (targets of retreating edges only, on
    irreducible shapes) inherit their immediate dominator's frequency.
    Unreachable blocks stay at 0. *)

val func_weights :
  Ir.Prog.t -> freqs:(string -> float array) ->
  float Ir.Prog.Smap.t
(** Expected invocations per function: [main] = 1.0, plus, iteratively,
    each caller's weight × the frequency of each of its call blocks
    ([freqs] maps a function name to its {!block_freqs}).  A fixed number
    of rounds bounds recursion; weights are capped to stay finite. *)

(** {1 Observations} *)

type task_obs = {
  o_weight : float;  (** expected activations: func weight × entry freq *)
  o_size : float;    (** expected dynamic instructions per activation *)
  o_targets : int;   (** hardware successor targets *)
}

type edge_obs = {
  e_weight : float;  (** expected activations of the consumer task *)
  e_lat : float;     (** exposed latency charged per activation, cycles *)
}

(** {1 Raw category scores} *)

type t = {
  c_useful : float;
  c_data_wait : float;
  c_ctrl_squash : float;
  c_mem_squash : float;
  c_load_imbalance : float;
  c_overhead : float;
}

val zero : t
val add : t -> t -> t

val penalties : t -> float
(** Sum of every category except [c_useful] — what the feedback search
    minimises per function. *)

val scalar : useful_base:float -> t -> float
(** Scalar plan cost: {!penalties} divided by a partition-independent
    useful-work base (so per-function penalty reductions translate
    monotonically into scalar reductions). *)

val evaluate :
  tasks:task_obs list -> reg_edges:edge_obs list ->
  mem_edges:edge_obs list -> unit -> t
(** Fold observations into raw scores:
    - [c_useful] = Σ weight × size;
    - [c_data_wait] = Σ reg-edge weight × latency;
    - [c_mem_squash] = Σ mem-edge weight × latency;
    - [c_ctrl_squash] = Σ weight × [mis_rate] × (targets − 1) × size
      (a misprediction squashes about a task's worth of work);
    - [c_load_imbalance] = frequency-weighted mean absolute deviation of
      task sizes (Σ weight × |size − weighted mean|);
    - [c_overhead] = [per_task_overhead] × Σ weight. *)

(** {1 Shares} *)

type shares = {
  s_useful : float;
  s_data_wait : float;
  s_ctrl_squash : float;
  s_mem_squash : float;
  s_load_imbalance : float;
  s_overhead : float;
}

val shares : t -> shares
(** Normalise the raw scores into a distribution (each ≥ 0, summing to 1).
    A degenerate total collapses to all-useful. *)

val shares_well_formed : shares -> bool
(** Every component finite and in [0, 1], components summing to 1 within
    1e-6 — the [cost/conserve] lint invariant. *)
