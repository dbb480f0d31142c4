(** Shared helpers for the synthetic SPEC95-like workloads. *)

(** Deterministic pseudo-random data generator (host-side, used to fill data
    segments so each workload is reproducible). *)
module Lcg : sig
  type t

  val create : int -> t

  val next : t -> int
  (** 30-bit non-negative. *)

  val below : t -> int -> int
  (** Uniform in [0, n). *)

  val float01 : t -> float
end

val ints : seed:int -> n:int -> bound:int -> int list
val floats : seed:int -> n:int -> float list

(** Frequently used temporaries, named for readability in workload code. *)
val t0 : Ir.Reg.t
val t1 : Ir.Reg.t
val t2 : Ir.Reg.t
val t3 : Ir.Reg.t
val t4 : Ir.Reg.t
val t5 : Ir.Reg.t
val t6 : Ir.Reg.t
val t7 : Ir.Reg.t
val t8 : Ir.Reg.t
val t9 : Ir.Reg.t
val t10 : Ir.Reg.t
val t11 : Ir.Reg.t
val t12 : Ir.Reg.t
val t13 : Ir.Reg.t
val t14 : Ir.Reg.t

val imm : int -> Ir.Insn.operand
val reg : Ir.Reg.t -> Ir.Insn.operand

val push : Ir.Builder.b -> Ir.Reg.t -> unit
(** Spill a register to the runtime stack (for recursive functions). *)

val pop : Ir.Builder.b -> Ir.Reg.t -> unit

val load_at : Ir.Builder.b -> dst:Ir.Reg.t -> base:int -> index:Ir.Reg.t ->
  scratch:Ir.Reg.t -> unit
(** [dst <- mem[base + index]] using [scratch] for address arithmetic. *)

val store_at : Ir.Builder.b -> src:Ir.Reg.t -> base:int -> index:Ir.Reg.t ->
  scratch:Ir.Reg.t -> unit
