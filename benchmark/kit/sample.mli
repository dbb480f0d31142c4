(** Order statistics for every number the benchmark reports.

    Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
    default "exclusive" method), so a spread printed here is the spread a
    Python script recomputes from the same values. *)

val median : float list -> float
(** Middle value, or the mean of the two middle values.
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)]; [q2] equals {!median}.  One sample gives that sample
    three times.  @raise Invalid_argument on an empty list. *)

val spread : float list -> float
(** [(q3 - q1) / |median|], the run-to-run noise band as a share of the
    median; [0.0] when the median is zero. *)

val tail : float list -> (int * float) option
(** The highest whole percentile [p] that still has at least ten samples
    above its nearest-rank value, with that value: p99 of 1000 samples,
    p90 of 110, p86 of 72.  [None] with ten samples or fewer. *)

val zipf_counts : n:int -> s:float -> total:int -> int array
(** How many of [total] requests go to each of [n] ranks when rank [r]
    (0-based) has Zipf weight [1 / (r + 1) ^ s]: the expected counts,
    rounded by largest remainder so they sum to exactly [total].
    @raise Invalid_argument unless [n >= 1] and [total >= 0]. *)

val permutation : Random.State.t -> int -> int array
(** Fisher-Yates shuffle of [[0, n)]; deterministic in the state. *)

val dealt : Random.State.t -> groups:int -> size:int -> int array
(** A shuffle of [[0, groups * size)], where index [i] is in group
    [i / size], dealt in [size] rounds: positions [[k * groups, (k + 1) *
    groups)] hold one index of every group, the groups in a shuffled
    order, each group's indices taken in a shuffled order.  Deterministic
    in the state. *)
