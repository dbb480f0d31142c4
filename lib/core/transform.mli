(** CFG transformations of the paper's compiler (§3.2).

    - {!unroll_program}: loops whose static body is below LOOP_THRESH are
      unrolled until they expand to at least LOOP_THRESH instructions, so that
      a loop-body task covers several iterations.
    - {!mark_included_calls}: call sites whose callee averages fewer than
      CALL_THRESH *dynamic* instructions per invocation (profiled) are marked
      for inclusion — the callee executes inside the caller's task instead of
      terminating it.  The paper includes rather than inlines to avoid code
      bloat; we do the same (the mark lives in {!Task.partition}).
    - {!hoist_program}: move induction-variable increments to the top of
      loop bodies so a loop-body task forwards the induction value to the
      next iteration's task immediately (§3.2, last paragraph).  Semantics
      are preserved by renaming body uses to a fresh copy of the
      pre-increment value.

    Hoisting and counted unrolling are one induction rewrite of the loop
    body, at factor 1 and at the unroll factor k: copy [i] of the body
    reads its own induction value — in its instructions and in its branch
    and switch conditions — for the carried register, which is written
    once, at the top of the first copy.  Only the latch's terminator,
    which runs after the original increment, reads the carried register
    itself.

    Every transform that needs scratch registers draws them from the pool
    unused across the {e whole program}: registers are architecturally
    global, so a register free in one function can be live across a call
    in another. *)

val unroll_program : Heuristics.params -> Ir.Prog.t -> Ir.Prog.t
(** Unrolls every function's innermost loops smaller than [loop_thresh].
    Loops in canonical counted form are unrolled with *induction
    coalescing*, the induction rewrite at factor k: all derived induction
    values are computed at the top of the group and the carried register
    is written exactly once, so the next group's task receives it
    immediately; each further copy is entered through a copy of the
    header testing that copy's value, and early exits go through fixup
    blocks that restore the architectural induction value.  Other loops
    are unrolled by plain code replication (each copy keeps the loop's
    tests), which is correct for any iteration count. *)

val mark_included_calls :
  call_thresh:int -> callee_size:(string -> float) -> Ir.Func.t -> bool array
(** Per-block flags: block ends in a call whose callee's average dynamic
    invocation size is below [call_thresh]. *)

val hoist_program : Ir.Prog.t -> Ir.Prog.t
(** Hoists the increment of every loop in canonical counted form: single
    latch holding the increment as its last instruction, all loop exits
    leaving from the header.  This is the induction rewrite at factor 1:
    no block is copied or added.  Loops not in this form are left
    alone. *)

val if_convert_program : Ir.Prog.t -> Ir.Prog.t
(** Optional predication extension (the paper mentions predication as a
    possible improvement but does not explore it).  Convertible diamonds —
    both arms single blocks with the converting block as only predecessor,
    at most 6 pure register instructions each, joining
    at the same block — are flattened into straight-line code with renamed
    destinations and conditional moves.  Removes the corresponding intra-task
    branches (and their mispredictions) at the cost of executing both arms. *)
