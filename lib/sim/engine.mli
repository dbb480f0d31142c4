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

val run_prepared :
  ?observer:(event -> unit) -> Config.t -> prep -> Interp.Trace.t -> result
(** Simulates [trace] on the configured machine; [trace] must be the trace
    [prep] was built from.  Allocates what the run touches of the
    machine, whatever the trace's length: the cache and predictor page
    indexes, the pages it names, the per-PU rings and windows and the task
    walk's cursor — 29 k words per run on average over the paper grid.
    @raise Dyntask.Not_closed when the plan's partitions do not tile the
    trace into task instances. *)
