(** The Multiscalar processor simulator.

    Trace-driven: the interpreter's dynamic trace is walked as dynamic
    task instances ({!Dyntask}), which are timed in program order.  Timing
    information only flows from older to younger tasks (operand arrival via
    the register ring, store forwarding via the ARB), so a single in-order
    pass computes the same schedule an event-driven simulator would.

    Speculation is modelled by running the real predictors over the true
    task sequence: a wrong prediction charges the paper's §2.3.2 penalty
    (the correct successor cannot dispatch before the mispredicting task
    resolves its exit control flow), and memory-dependence violations squash
    and re-execute the offending task, inserting the (load, store) pair into
    the synchronization table as in Moshovos et al. *)

type result = {
  stats : Stats.t;
  instances : int;       (** dynamic task instances executed *)
}

type event = {
  e_index : int;          (** dynamic task number *)
  e_instance : Dyntask.instance;
      (** the instance's fields ({!Dyntask.get}), built only when an
          observer is installed *)
  e_pu : int;
  e_assign : int;         (** cycle the sequencer assigned the task *)
  e_complete : int;       (** last commit inside the PU *)
  e_retire : int;         (** in-order retirement *)
  e_mispredicted : bool;  (** the transition INTO this task was mispredicted *)
  e_violations : int;     (** memory-dependence squash/restarts *)
}

val run :
  ?observer:(event -> unit) -> Config.t -> Core.Partition.plan -> result
(** Interprets [plan.prog], then {!run_prepared} on a fresh {!prepare} of
    its trace.  [observer] is called once per dynamic task instance, in
    program order, with its final schedule. *)

(** {2 Shared trace preparation}

    The per-function register communication analyses, the task walk's
    callee table ({!Dyntask.program}) and the code layout depend only on
    the (plan, trace) pair, not on the machine configuration.  When
    sweeping configurations against one trace (table 1, figure 5),
    [prepare] once and pass the result to each [run_prepared] call.  A
    prep is sized by the program, whatever the trace's length: each run
    walks the trace's task instances itself ({!Dyntask.t}) and keeps none
    of them. *)

type prep

val prepare : Core.Partition.plan -> Interp.Trace.t -> prep
(** Configuration-independent simulation state; read-only afterwards, so a
    prep may be shared freely across domains. *)

(** {2 Machines}

    A machine is the simulated hardware of one configuration: the cache
    hierarchy, the three predictors and the return-address stack, the
    2N-slot flight rings (N = PUs), the ring-send slots and stamps, the
    store maps, the last-writer and synchronization tables, the ring and
    bank windows and one {!Timing.ctx}.  A run resets it in place first,
    so one machine serves any number of runs, one at a time; a sweep that
    reuses it pays its set-up once. *)

type machine

val machine : Config.t -> machine
(** A machine of the given configuration, its tables as a run starts. *)

val config : machine -> Config.t

val run_on :
  ?observer:(event -> unit) -> machine -> prep -> Interp.Trace.t -> result
(** Resets the machine in place to the state {!machine} gives it, then
    simulates [trace] on it; [trace] must be the trace [prep] was built
    from.  The result equals {!run_prepared}'s on the machine's
    configuration, whatever ran on the machine before, including a run an
    exception stopped (an [observer]'s, or [Dyntask.Not_closed]).
    Allocates what the run touches of the machine, whatever the trace's
    length: the cache and predictor pages it names (a reset drops them),
    its statistics and the task walk's cursor.
    @raise Dyntask.Not_closed when the plan's partitions do not tile the
    trace into task instances. *)

val run_prepared :
  ?observer:(event -> unit) -> Config.t -> prep -> Interp.Trace.t -> result
(** [run_on] on a fresh {!machine}: beside the run's own words, the
    machine's page indexes, rings, maps and windows.  In a Figure 5 grid
    over the 18 workloads that is 21,482 words per simulation, where a
    machine lent across the grid's cells (Harness.Artifact's grids)
    leaves 6,285. *)
