(** A conventional superscalar processor model, used as the paper's §4.3.4
    reference point: "the amount of parallelism that is exposed through
    branch prediction (which is used by most modern superscalar processors)
    is significantly less than that exposed by task-level speculation".

    One centralised window executes the same dynamic trace on the
    Multiscalar PU's own pipeline: the whole trace is one {!Timing.exec},
    with gshare-predicted branches, a fetch redirect on each misprediction
    and the same cache hierarchy as the Multiscalar model.  No tasks, no
    ring, no ARB; the comparison with the Multiscalar window span therefore
    isolates task-level speculation. *)

type result = {
  stats : Stats.t;
      (** [dyn_insns], [cycles], intra-branch counters and cache counters
          are populated; task-level fields stay zero *)
  avg_window : float;
      (** average occupancy of the instruction window — the superscalar
          analogue of the Multiscalar window span *)
}

val max_rob : int
(** The largest reorder buffer {!config} accepts: 65,536 entries. *)

val config : width:int -> rob:int -> Config.t
(** The one-PU out-of-order {!Config.default} machine widened to [width]
    issue slots and a [rob]-entry reorder buffer: an issue queue of half
    the ROB (at least 8), [width] integer units and half as many (at
    least one) floating-point, memory and branch units.
    [Invalid_argument] unless [width] is 1 to {!Timing.max_issue_width}
    and [rob] 1 to {!max_rob}. *)

val run : Config.t -> Interp.Trace.t -> result
(** [Config.issue_width], [rob_size], [iq_size], functional-unit counts and
    memory parameters are used directly ({!config} sets them).
    [Config.arb_hit] is ignored: with no ARB, a load takes its D-cache
    latency. *)
