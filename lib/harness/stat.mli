(** Small aggregate statistics shared by the report layer (the Figure 5
    gains, the cost and deps correlations), the daemon and the benchmark. *)

val geomean : float list -> float
(** Geometric mean; values are clamped below at [1e-9] (IPC ratios are
    positive, the clamp only guards degenerate zero rows) and the empty
    list yields [0.0]. *)

val pearson_opt : (float * float) list -> float option
(** Pearson correlation coefficient of [(x, y)] samples, computed in
    centered two-pass form (immune to the cancellation that makes the
    one-pass expansion return garbage on near-constant series) and clamped
    to [[-1, 1]].  [None] when no linear relationship can be estimated:
    fewer than two points, or zero variance on either axis. *)

val pearson : (float * float) list -> float
(** {!pearson_opt} with the undefined case collapsed to [0.0]. *)

(** Fixed logarithmic latency histogram (8 buckets per octave, 64
    octaves above 1.0, one underflow bucket).  Quantiles are read from
    geometric bucket midpoints, so the relative error of any percentile
    is bounded by the bucket width [2^(1/8)] (~9%) regardless of sample
    count, and [merge] of two histograms is exact (bucket-wise sum).

    Not synchronised — callers that share a histogram across domains or
    threads must hold their own lock around [add]/[merge]/readers. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one sample.  Values [<= 1.0] land in the underflow bucket;
    values beyond the 64-octave range clamp into the last bucket. *)

  val merge : t -> t -> t
  (** Exact bucket-wise sum; inputs are unchanged. *)

  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [[0, 100]] (clamped): the geometric
    midpoint of the bucket holding the rank-[ceil (p/100 * count)]
    sample, clamped to the observed min/max.  [0.0] when empty. *)

  val to_json : t -> Json.t
  (** [{"count", "min", "max", "mean", "p50", "p90", "p99", "buckets"}]
    where [buckets] lists the non-empty buckets as [{"le", "count"}]. *)
end
