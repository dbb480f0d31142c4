(** Exactly-once, domain-safe memo table.

    The first requester of a key computes its value; every requester that
    arrives while that computation is in flight blocks on the key's own
    condition variable (never on a table-wide one) until the value lands,
    and later requesters get the landed value.  So concurrent requests
    never duplicate work, and a landing wakes only the waiters of its own
    key.

    Failures are not memoized: when a computation raises, every requester
    that joined it gets the same exception, the key's entry is dropped,
    and the next request computes the value again.  A non-deterministic
    failure ([Out_of_memory], a dropped connection) therefore costs one
    round of requests, not the key forever.

    Deadlock-freedom is the caller's: a computation may request other
    keys (of this or another table) only along an acyclic order.  A key
    is in flight only while some domain is actively inside its
    computation, so a waiter never waits on work that is queued but
    unowned. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** An empty table; the argument is the initial size hint. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_compute t key compute] is the value of [key], running
    [compute] on the calling domain if no value has landed and none is in
    flight.  The flag is [true] when the caller joined someone else's
    computation (a landed value or an in-flight one) and [false] when it
    ran [compute] itself.  Raises what [compute] raised, to the computing
    caller and to every joined one. *)

val bindings : ('k, 'v) t -> ('k * 'v) list
(** Snapshot of every landed binding, in no particular order; in-flight
    keys are left out. *)
