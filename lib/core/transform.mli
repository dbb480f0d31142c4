(** CFG transformations of the paper's compiler (§3.2).

    - {!unroll_short_loops}: loops whose static body is below LOOP_THRESH are
      unrolled until they expand to at least LOOP_THRESH instructions, so that
      a loop-body task covers several iterations.
    - {!mark_included_calls}: call sites whose callee averages fewer than
      CALL_THRESH *dynamic* instructions per invocation (profiled) are marked
      for inclusion — the callee executes inside the caller's task instead of
      terminating it.  The paper includes rather than inlines to avoid code
      bloat; we do the same (the mark lives in {!Task.partition}).
    - {!hoist_induction}: move induction-variable increments to the top of
      loop bodies so a loop-body task forwards the induction value to the
      next iteration's task immediately (§3.2, last paragraph).  Semantics
      are preserved by renaming body uses to a fresh copy of the
      pre-increment value. *)

val unroll_short_loops : Heuristics.params -> Ir.Func.t -> Ir.Func.t
(** Unrolls innermost loops smaller than [loop_thresh].  Loops in canonical
    counted form are unrolled with *induction coalescing*: all derived
    induction values are computed at the top of the group and the carried
    register is written exactly once, so the next group's task receives it
    immediately; early exits go through fixup blocks that restore the
    architectural induction value.  Other loops are unrolled by plain code
    replication (each copy keeps the loop's tests), which is correct for any
    iteration count.  Copy registers come from this function's unused set —
    for whole programs use {!unroll_program}. *)

val unroll_program : Heuristics.params -> Ir.Prog.t -> Ir.Prog.t
(** {!unroll_short_loops} over every function, drawing coalescing registers
    from the program-wide unused pool. *)

val mark_included_calls :
  call_thresh:int -> callee_size:(string -> float) -> Ir.Func.t -> bool array
(** Per-block flags: block ends in a call whose callee's average dynamic
    invocation size is below [call_thresh]. *)

val hoist_induction : Ir.Func.t -> Ir.Func.t
(** Applies to loops in canonical counted form: single latch holding the
    increment as its last instruction, all loop exits leaving from the
    header.  Loops not in this form are left alone.  Copy registers are
    drawn from the registers unused in this function — only safe for
    single-function programs; whole programs must use {!hoist_program}. *)

val hoist_program : Ir.Prog.t -> Ir.Prog.t
(** {!hoist_induction} over every function, drawing copy registers from the
    pool unused across the *whole program* (registers are architecturally
    global, so a register free in one function can be live across a call in
    another). *)

val if_convert_program : ?max_arm:int -> Ir.Prog.t -> Ir.Prog.t
(** Optional predication extension (the paper mentions predication as a
    possible improvement but does not explore it).  Convertible diamonds —
    both arms single blocks with the converting block as only predecessor,
    at most [max_arm] (default 6) pure register instructions each, joining
    at the same block — are flattened into straight-line code with renamed
    destinations and conditional moves.  Removes the corresponding intra-task
    branches (and their mispredictions) at the cost of executing both arms. *)
