(** The [mscd] daemon: a resident simulation service over a Unix domain
    socket.

    One {!t} owns a listening socket, a shared {!Harness.Artifact} store,
    a request-level dedup cache and (at [jobs >= 2]) the resident
    {!Sched} scheduler from {!Harness.Pool}.  Each accepted
    connection gets a systhread speaking the newline-delimited
    {!Protocol}; handler work is submitted to the scheduler, so
    concurrent clients share cores, artifacts and in-flight requests —
    two clients asking for the same (workload, level, machine) while the
    first computation is still running both get the one result, and the
    second response is flagged [dedup].  The dedup cache is a
    {!Harness.Memo}: a failed request is answered with its error to
    everyone waiting on it and is not cached, so the next request for
    the key computes it again.  A request line longer than 64 KiB is
    answered with an error, and its connection closed.

    Draining: {!request_stop} (wired to SIGTERM and to the [shutdown]
    op by the CLI) makes {!serve} stop accepting, unblock idle
    connections, finish in-flight requests, join every connection
    thread and return.  In-flight responses are always written before
    their connection closes. *)

type t

val create : ?jobs:int -> socket:string -> unit -> t
(** Bind and listen on [socket] (an existing stale socket file is
    replaced).  [jobs] defaults to {!Harness.Pool.default_jobs} and is
    clamped the same way; [jobs = 1] runs handlers in the connection
    threads with no scheduler.  Raises [Unix.Unix_error] on bind
    failures (e.g. a live daemon already owns the path). *)

val serve : t -> unit
(** Blocking accept loop; returns only after a full drain (see above).
    The socket file is unlinked on the way out. *)

val request_stop : t -> unit
(** Begin draining.  Safe from signal handlers and any thread;
    idempotent. *)

val stats_json : t -> Harness.Json.t
(** The same metrics object the [stats] op returns: request counts,
    dedup hits, error count, the latency histogram
    ({!Harness.Stat.Histogram.to_json}), queue depth and scheduler
    counters. *)
