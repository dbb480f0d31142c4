(** Instructions of the RISC-like IR.

    All instructions are register-to-register; memory is accessed only through
    [Load] and [Store] with a base register plus constant displacement,
    mirroring the MIPS-style ISA the paper's compiler targets. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Eq | Ne | Gt | Ge

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type fcmp = Flt | Fle | Feq | Fne

type funop = Fneg | Fabs | Fsqrt | Itof | Ftoi

type operand =
  | Reg of Reg.t
  | Imm of int

type t =
  | Nop
  | Li of Reg.t * int              (** load integer immediate *)
  | Lf of Reg.t * float            (** load float immediate *)
  | Mov of Reg.t * Reg.t
  | Bin of binop * Reg.t * Reg.t * operand
      (** [Bin (op, dst, src, operand)] *)
  | Fbin of fbinop * Reg.t * Reg.t * Reg.t
  | Fcmp of fcmp * Reg.t * Reg.t * Reg.t
      (** float comparison producing integer 0/1 *)
  | Fun of funop * Reg.t * Reg.t
  | Load of Reg.t * Reg.t * int    (** [Load (dst, base, disp)] *)
  | Store of Reg.t * Reg.t * int   (** [Store (src, base, disp)] *)
  | Cmov of Reg.t * Reg.t * Reg.t
      (** [Cmov (dst, cond, src)]: if [cond] is non-zero, [dst := src];
          otherwise [dst] keeps its value (so [dst] is also a use) —
          the predication primitive for if-conversion *)

(** Functional-unit class, used by the timing model for structural hazards
    and latencies. *)
type fu_class =
  | Fu_int       (** simple integer ALU op, 1 cycle *)
  | Fu_int_mul   (** integer multiply *)
  | Fu_int_div   (** integer divide / remainder *)
  | Fu_fp        (** pipelined FP add/mul class *)
  | Fu_fp_div    (** FP divide / sqrt *)
  | Fu_load
  | Fu_store

val fu_class : t -> fu_class

val def : t -> Reg.t
(** The register written, or -1 when the instruction writes none (an
    instruction writes at most one).  A write to [Reg.zero] is reported
    (the machine discards it; analyses may still see the def). *)

val defs : t -> Reg.t list
(** {!def} as a list: empty or one register. *)

val iter_uses : (Reg.t -> unit) -> t -> unit
(** [iter_uses f insn] calls [f] once on each distinct register [insn]
    reads, in ascending order, and allocates nothing: the one definition
    of what an instruction reads.  A [Cmov] reads its destination too.
    The order is a contract: {!uses} and the reference simulator's
    dependence attribution rely on it. *)

val uses : t -> Reg.t list
(** {!iter_uses} as a list: the registers read, ascending, without
    duplicates. *)

val iter_regs : (Reg.t -> unit) -> t -> unit
(** [iter_regs f insn] calls [f] on the destination register when [insn]
    has one, whatever its value (so a destination of -1 is seen, where
    {!def} could not tell it from "writes nothing"), then {!iter_uses}.
    What a well-formedness check walks: a register both written and read
    is visited twice. *)

val map_regs : use:(Reg.t -> Reg.t) -> def:(Reg.t -> Reg.t) -> t -> t
(** [map_regs ~use ~def insn] is [insn] with every register it reads
    replaced by [use r] and the one it writes by [def d]: the one
    definition of rewriting an instruction's registers.  A [Cmov]'s
    destination, which it also reads, goes through [def] alone.  Neither
    function should have effects: the order they are applied in is
    unspecified. *)

val is_mem : t -> bool

val binop_of_name : string -> binop option
val fbinop_of_name : string -> fbinop option
val fcmp_of_name : string -> fcmp option
val funop_of_name : string -> funop option
(** The operator {!pp} prints under this mnemonic, if any: each family's
    table is derived from its printer, so the two spellings cannot drift.
    A lookup allocates nothing. *)

val pp : Format.formatter -> t -> unit
(** Prints an [Lf] immediate as the shortest decimal (or [nan]/[inf]) that
    {!float_of_string} maps back to the identical float, so the textual IR
    round-trips exactly. *)

val to_string : t -> string
