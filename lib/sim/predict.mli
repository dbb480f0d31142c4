(** Control-flow prediction hardware (paper §4.2).

    - {!Gshare}: intra-task conditional branch prediction — 16-bit global
      history XORed into a 64K-entry table of 2-bit counters.
    - {!Target}: the inter-task path-based scheme of Jacobson et al. [9] —
      16-bit path history over task identifiers, 64K entries of a 2-bit
      saturating counter plus a 2-bit target number, predicting *which of
      the task's ≤ 4 successors* comes next.  Also reused for intra-task
      indexed jumps.
    - {!Ras}: return address stack for call/return task sequencing.

    The predictor tables take one byte per entry, the width the paper's
    counters need, and are allocated 64 entries at a time when a
    prediction first indexes a page of them ({!Occ.Pages}). *)

module Gshare : sig
  type t

  val create : Config.t -> t

  val predict_and_update : t -> pc:int -> taken:bool -> bool
  (** Returns whether the prediction was correct, then trains. *)

  val reset : t -> unit
  (** Back to the state {!create} made: an empty history and every
      counter weakly taken, the touched pages dropped. *)
end

module Target : sig
  type t

  val create : ?use_history:bool -> Config.t -> t
  (** [use_history:false] degrades the scheme to a per-task bimodal
      predictor (no path correlation) — the ablation contrasting the
      paper's path-based choice (Jacobson et al.) with a simpler table. *)

  val predict_and_update : t -> pc:int -> actual:int -> bool
  (** Predict a target number for the task at [pc] given the current path
      history, compare against [actual], train, and fold [actual] into the
      path history.  Returns whether the prediction was correct. *)

  val reset : t -> unit
  (** Back to the state {!create} made: an empty path history and every
      entry zero, the touched pages dropped. *)
end

module Ras : sig
  type t

  val create : int -> t
  (** A ring of the given capacity (at least 1). *)

  val push : t -> int -> unit
  (** When full, the new entry overwrites the oldest. *)

  val pop : t -> int option
  (** [None] on underflow (prediction necessarily wrong). *)

  val pop_or : t -> int -> int
  (** [pop] without the option: the popped entry, or the given default on
      underflow. *)

  val depth : t -> int

  val reset : t -> unit
  (** Back to the state {!create} made: empty, every slot zero. *)
end
