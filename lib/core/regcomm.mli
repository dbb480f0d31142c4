(** Register-communication (forwarding) analysis.

    A Multiscalar PU forwards a register value to successor tasks as soon as
    the *last* write to that register inside the task has executed; writes
    that may be overwritten later on some path inside the task can only be
    released when the task ends (paper §2.1, [3]).  This module decides,
    per static write site inside a task, whether the value may be sent
    immediately ("forwardable") or only at task exit.

    Call blocks marked for inclusion are treated as writing every register
    (the callee's effects are unknown at this level), so they kill
    forwardability of earlier writes on the same path and are themselves
    never forwardable. *)

type t

val create :
  Ir.Func.t -> live_in:Analysis.Dataflow.Regset.t array -> Task.partition -> t
(** The tables of one function's partition.  [live_in] is the function's
    {!Analysis.Dataflow.sound_live_in}, which {!needed} reads at the
    tasks' targets; a caller holding a plan passes
    [Partition.live_in plan fname].
    @raise Invalid_argument when [live_in] does not have one set per block
    of the function. *)

val forwardable :
  t -> task:int -> blk:Ir.Block.label -> idx:int -> reg:Ir.Reg.t -> bool
(** Is the write to [reg] by instruction [idx] of block [blk] (inside task
    number [task]) provably the last write to [reg] in the task?  Unknown
    sites (e.g. writes inside an included callee) answer [false]. *)

val needed : t -> task:int -> reg:Ir.Reg.t -> bool
(** Dead-register analysis (paper §4.2 lists "dead register analysis for
    register communication" among the Multiscalar-specific optimisations):
    must this task's final value of [reg] be sent on the ring at all?
    [false] only when every successor provably redefines the register
    before reading it.  Tasks that exit through calls or returns answer
    [true] for every register (the callee/caller may read anything —
    registers are architecturally global). *)

val may_rewrite : t -> task:int -> blk:Ir.Block.label -> reg:Ir.Reg.t -> bool
(** Can [reg] still be written by [blk] or any task block reachable from it?
    When this turns false along the executed path, the compiler's *release*
    annotation lets the PU send the register's current value (the per-path
    release bits of the Multiscalar register file).  Unknown blocks answer
    [true] (conservative). *)
