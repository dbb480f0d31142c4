(** The IR interpreter.

    Executes a program deterministically, producing the dynamic trace the
    Multiscalar timing model replays and the profile the task-selection
    heuristics consume.  This plays the role of the paper's profiling runs
    and of the functional front half of their simulator. *)

exception Runtime_error of string

type outcome = {
  trace : Trace.t;
  profile : Profile.t;
  steps : int;           (** dynamic instructions executed *)
  result : Ir.Value.t;   (** contents of [Reg.rv] at termination *)
}

val execute :
  ?on_event:(fid:int -> blk:Ir.Block.label -> addrs:int array -> unit) ->
  ?max_steps:int ->
  Ir.Prog.t ->
  outcome
(** Run [prog] from its [main].  [max_steps] (default 30 million) bounds the
    dynamic instruction count; exceeding it raises {!Runtime_error}, as do
    division or remainder by zero, a call to an undefined function (when
    the call executes) and executing a block the trace cannot name: one of
    a function past the first {!Trace.max_funcs}, or past the first
    {!Trace.max_blocks} of its function.  A switch condition outside the
    target table, negative ones included, takes the default target.

    Loads from never-written memory read integer 0.  Addresses are any
    [int], negative ones included, and a loaded value keeps the kind it
    was stored with.

    Each block is decoded once per run, and registers and memory are held
    unboxed (memory in fixed-size pages, the data runs copied in at
    start), so past its set-up a run allocates only for the first store to
    each page, first-seen dependence pairs, call-stack growth and the
    packed trace's chunks: at most 0.50 words per dynamic instruction over
    the workload suite, a budget [test/test_interp.ml] enforces.

    [on_event], if given, observes each completed dynamic block instance as
    it happens — the boxed view of the stream the packed trace encodes.  It
    exists for differential testing of the trace representation; the [addrs]
    array is freshly decoded per event, so leaving it unset keeps the
    per-block overhead allocation-free. *)

val initial_sp : int
(** Initial stack-pointer value given to [main]. *)
