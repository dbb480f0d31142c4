(** Parallel fan-out facade over the resident {!Sched} work-stealing
    scheduler.

    [map] keeps its deterministic contract — results in input order, so
    parallel and serial runs are indistinguishable to the caller — but
    the execution engine is now a long-lived work-stealing scheduler:
    one scheduler per requested width is created on first use and reused
    for every subsequent call, so repeated experiment batches stop
    paying per-call domain spawns.  Calls made from {e inside} a pool
    task are routed to the caller's own scheduler (depth-first on the
    worker's deque, stealable by its siblings), so a nested fan-out, such
    as a daemon handler's grid, uses the full width without
    oversubscribing.

    Width selection honours [HARNESS_JOBS] and is always clamped by
    [Domain.recommended_domain_count ()]: spawning more domains than the
    runtime recommends costs ~2x wall time in minor-GC synchronisation.
    [HARNESS_JOBS=1] is the serial path (no scheduler is touched and
    [map] degenerates to [List.map]). *)

val default_jobs : unit -> int
(** [HARNESS_JOBS] when set to a positive integer, clamped to
    [Domain.recommended_domain_count ()]; the recommended count when the
    variable is unset or blank (the [HARNESS_JOBS= cmd] idiom).  Raises
    [Failure] with a descriptive message when [HARNESS_JOBS] is set but
    non-numeric or < 1 — a malformed width request must not silently run
    at a different width. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element of [xs] across [jobs]
    (default {!default_jobs}) scheduler workers and returns the results
    in input order.  With [jobs <= 1] or fewer than two elements this is
    [List.map f xs] on the calling domain.  All elements are applied
    even if some raise; the lowest-index exception is then re-raised. *)

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit
(** [iter f xs] is [map f xs] with unit results. *)

val scheduler : jobs:int -> Sched.t
(** The resident scheduler for width [jobs] (>= 2), creating it on first
    request.  Shared with {!map}; exposed so long-running services can
    submit directly and read {!Sched.stats}. *)
