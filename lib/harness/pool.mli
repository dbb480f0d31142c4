(** Parallel fan-out facade over the resident {!Sched} scheduler.

    [map] keeps its deterministic contract — results in input order, so
    parallel and serial runs are indistinguishable to the caller — but
    the execution engine is a long-lived scheduler: one scheduler per
    requested width is created on first use and reused for every
    subsequent call, so repeated experiment batches stop paying per-call
    domain spawns.  Calls made from {e inside} a pool task are routed to
    the caller's own scheduler ({!Sched.current}; its subtasks run
    newest first, on whichever worker is free), so a nested fan-out,
    such as a daemon handler's grid, uses the full width without
    oversubscribing.

    Width selection honours [HARNESS_JOBS] and is always clamped by
    [Domain.recommended_domain_count ()]: spawning more domains than the
    runtime recommends costs ~2x wall time in minor-GC synchronisation.
    [HARNESS_JOBS=1] is the serial path (no scheduler is touched and
    [map] degenerates to [List.map]). *)

val parse_jobs : string -> (int, string) result
(** A worker count as [--jobs] or [HARNESS_JOBS] spells it: a positive
    integer (blanks around it allowed), clamped to
    [Domain.recommended_domain_count ()].  The error says what is wrong
    with the text. *)

val env_jobs : unit -> (int option, string) result
(** [HARNESS_JOBS] through {!parse_jobs}: [None] when the variable is
    unset or blank (the [HARNESS_JOBS= cmd] idiom), an error naming the
    variable when it is malformed. *)

val default_jobs : unit -> int
(** {!env_jobs}, or the recommended count when it is [None].  Raises
    [Failure] with {!env_jobs}'s message when [HARNESS_JOBS] is set but
    non-numeric or < 1 — a malformed width request must not silently run
    at a different width. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element of [xs] across [jobs]
    (default {!default_jobs}) scheduler workers and returns the results
    in input order.  With [jobs <= 1] or fewer than two elements this is
    [List.map f xs] on the calling domain.  All elements are applied
    even if some raise; the lowest-index exception is then re-raised. *)

val scheduler : jobs:int -> Sched.t
(** The resident scheduler for width [jobs] (>= 1), creating it on first
    request.  Shared with {!map}; exposed so long-running services can
    submit directly and read {!Sched.stats}. *)
