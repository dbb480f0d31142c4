(** Multicore task scheduler for OCaml 5 domains: one lock, one queue
    pair.

    A scheduler owns [domains] worker domains that share one mutex, one
    condition variable and two queues: a FIFO of tasks submitted from
    outside the pool and a LIFO of tasks submitted by its workers.  A
    worker takes the newest worker-submitted task first, then the oldest
    injected one, so joins go depth-first and top-level tasks start in
    submission order.  A worker with nothing to take waits on the
    condition variable until a task is submitted.

    The tasks this engine schedules are coarse (a grid cell, a daemon
    request), so one lock is enough for them.

    {!map} and {!run} wait for the tasks they submit.  From an external
    thread they wait until the tasks resolve; from a worker of the same
    scheduler they {e help} — they run queued tasks while a task is
    unresolved and wait only when there are none, so nested fan-outs
    ([map] inside a task) never deadlock and never idle a core that
    still has runnable work.  A task submitted from a worker of the
    scheduler joins the workers' LIFO; one from anywhere else joins the
    FIFO of injected tasks.

    The scheduler is long-lived by design: create it once, feed it
    heterogeneous tasks forever, [shutdown] joins the domains.  Queued
    but unstarted tasks are dropped at shutdown — drain by letting your
    [map] and [run] calls return first. *)

type t

type stats = {
  tasks : int;     (** tasks taken to run, counted before they run *)
  steals : int;    (** worker-submitted tasks run by a different worker *)
  injected : int;  (** submissions from outside the pool *)
  local : int;     (** submissions from a worker of the pool *)
  parks : int;     (** waits of a worker that had nothing to run *)
}

val create : domains:int -> unit -> t
(** Spawn [domains] (>= 1) worker domains, all initially waiting. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Structured fan-out: one task per element, results in input order.
    All tasks run to completion even if some fail; the lowest-index
    exception is then re-raised.  Callable from external threads and
    from inside tasks alike. *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] as one task and wait for its result, re-raising its
    exception. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Queued unstarted tasks
    are dropped; in-flight tasks finish first.  Idempotent. *)

val stats : t -> stats

val queue_depth : t -> int
(** Snapshot of queued-but-unstarted tasks (both queues). *)

val current : unit -> t option
(** The scheduler whose worker the calling domain is, if any.  (Used by
    facades to route nested fan-outs back into the same scheduler.) *)
