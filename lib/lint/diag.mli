(** Structured diagnostics for the static plan & IR verifier.

    Every finding of the linter is a {!t}: a stable rule identifier (the
    catalog lives in DESIGN.md, "Static verification"), a severity, a
    location that narrows from function to task to block to instruction as
    far as the rule can pinpoint it, and a human-readable message.
    Diagnostics serialise to JSON through {!Harness.Json} so lint results
    can be diffed across commits ([bench/lint.json]). *)

type severity = Error | Warning | Info

type loc = {
  func : string;  (** enclosing function; [""] for program-level findings *)
  task : int option;  (** task index within the function's partition *)
  block : Ir.Block.label option;
  insn : int option;  (** instruction index within [block] *)
}

type t = {
  rule : string;  (** stable identifier, e.g. ["part/stale-targets"] *)
  severity : severity;
  loc : loc;
  message : string;
}

val program_loc : loc
(** Location for whole-program findings (no function). *)

val in_func : ?task:int -> ?block:Ir.Block.label -> ?insn:int -> string -> loc

val error : rule:string -> loc -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning :
  rule:string -> loc -> ('a, Format.formatter, unit, t) format4 -> 'a
val info : rule:string -> loc -> ('a, Format.formatter, unit, t) format4 -> 'a

val errors : t list -> t list
val count : severity -> t list -> int

val compare : t -> t -> int
(** Orders by severity (errors first), then location, then rule — the
    stable presentation order of every lint report. *)

val pp : Format.formatter -> t -> unit
(** e.g. [error part/stale-targets at compress/task 3/L7: ...]. *)

val list_to_json : t list -> Harness.Json.t

(** {1 Rule registry}

    Every checker registers its rule ids once at link time (the lint
    library is built with [-linkall], so loading it populates the catalog).
    The registry makes [bench/lint.json] diffs stable — zero-count entries
    are emitted for every known rule — and lets tests assert id
    uniqueness. *)

val register_rule : string -> string -> unit
(** [register_rule id description].
    @raise Invalid_argument on duplicate or empty ids. *)

val registered_rules : unit -> (string * string) list
(** All registered [(id, description)] pairs, sorted by id. *)
