(** A conventional superscalar processor model, used as the paper's §4.3.4
    reference point: "the amount of parallelism that is exposed through
    branch prediction (which is used by most modern superscalar processors)
    is significantly less than that exposed by task-level speculation".

    One centralised window executes the same dynamic trace: wide fetch, a
    single ROB/issue queue, gshare-predicted branches with full-window
    squash on mispredictions, a return-address stack, and the same cache
    hierarchy as the Multiscalar model.  No tasks, no ring, no ARB. *)

type result = {
  stats : Stats.t;
      (** [dyn_insns], [cycles], intra-branch counters and cache counters
          are populated; task-level fields stay zero *)
  avg_window : float;
      (** average occupancy of the instruction window — the superscalar
          analogue of the Multiscalar window span *)
}

val config : width:int -> rob:int -> Config.t
(** The one-PU out-of-order {!Config.default} machine widened to [width]
    issue slots and a [rob]-entry reorder buffer: an issue queue of half
    the ROB (at least 8), [width] integer units and half as many (at
    least one) floating-point, memory and branch units. *)

val run : Config.t -> Interp.Trace.t -> result
(** [Config.issue_width], [rob_size], [iq_size], functional-unit counts and
    memory parameters are used directly ({!config} sets them). *)
