(** Span recorder for the benchmark's traced pass.

    A span is one call into a layer, recorded from the benchmark's side of
    the call: its name ([layer.operation]), monotonic start and end, the
    words its domain allocated meanwhile, and its parent — the span that
    was open on the same domain when it began.  Under work stealing a
    worker that waits on a future runs other tasks inside its own open
    span, so "parent" is the enclosing span on the domain, which is also
    exactly the interval that must be subtracted for self time.

    Spans go to a domain-local buffer (no locking on the hot path) and are
    gathered once, after the work, by {!collect}.  Until {!enable} is
    called {!record} is a plain call. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  domain : int;
  start_ns : int;
  stop_ns : int;
  words : float;  (** allocated by this domain while open, children included *)
}

val enable : unit -> unit

val record : string -> (unit -> 'a) -> 'a
(** [record name f] runs [f] inside a span (when enabled); the span is
    closed even if [f] raises. *)

val collect : unit -> t list
(** Every closed span of every domain, by start time. *)

val now_ns : unit -> int
(** The monotonic clock the spans use. *)

type row = {
  r_name : string;
  calls : int;
  total_ns : int;
  self_ns : int;  (** duration minus the time covered by child spans *)
  self_words : float;  (** allocation minus the children's *)
}

val table : t list -> row list
(** One row per span name, largest self time first.  Children are found
    by [parent] among the given spans. *)

val chrome_json : t list -> Harness.Json.t
(** Chrome Trace Event format (complete ["X"] events, one thread per
    domain, microseconds from the first span), loadable in Perfetto or
    [chrome://tracing]. *)
