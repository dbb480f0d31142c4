(** Structured construction of IR programs.

    The builder plays the role the paper's source language + gcc front end
    play: it turns structured control flow (if/while/for/switch/call) into a
    CFG of basic blocks.  Workloads are written against this API.

    A function body is built by a callback receiving a function builder [b];
    instructions are emitted into a current block, and control-flow
    combinators seal blocks and allocate successors.  Unreachable blocks
    (e.g. after a [ret] in both branches of an [if_]) are pruned when the
    function is finished. *)

type pb
(** Program under construction. *)

type b
(** Function under construction. *)

(** {1 Programs} *)

val program : unit -> pb

val func : pb -> string -> (b -> unit) -> unit
(** Define a function.  If the body leaves the last block open it is sealed
    with [Ret].  @raise Invalid_argument on duplicate definition. *)

val alloc : pb -> int -> int
(** [alloc pb n] reserves [n] cells of the data segment, returning the base
    address. *)

val data_ints : pb -> int list -> int
(** Allocate and initialise consecutive integer cells; returns base.  The
    cells become one unboxed run of the data segment. *)

val data_floats : pb -> float list -> int

val init_cell : pb -> int -> Value.t -> unit
(** Initialise one cell at any address, after (and over) the cells
    initialised before it. *)

val finish : pb -> main:string -> Prog.t
(** Close the program, merging the data calls in order into maximal runs
    ({!Prog.runs}).  @raise Invalid_argument if validation fails. *)

(** {1 Straight-line emission} *)

val emit : b -> Insn.t -> unit
val li : b -> Reg.t -> int -> unit
val lf : b -> Reg.t -> float -> unit
val mov : b -> Reg.t -> Reg.t -> unit
val bin : b -> Insn.binop -> Reg.t -> Reg.t -> Insn.operand -> unit
val addi : b -> Reg.t -> Reg.t -> int -> unit
val fbin : b -> Insn.fbinop -> Reg.t -> Reg.t -> Reg.t -> unit
val fcmp : b -> Insn.fcmp -> Reg.t -> Reg.t -> Reg.t -> unit
val funop : b -> Insn.funop -> Reg.t -> Reg.t -> unit
val load : b -> Reg.t -> Reg.t -> int -> unit
val store : b -> Reg.t -> Reg.t -> int -> unit
val nop : b -> unit

(** {1 Control flow} *)

val new_block : b -> unit
(** Force a basic-block boundary in straight-line code. *)

val if_ : b -> Reg.t -> (b -> unit) -> (b -> unit) -> unit
(** [if_ b cond then_ else_]. *)

val when_ : b -> Reg.t -> (b -> unit) -> unit
(** [if_] with an empty else branch. *)

val while_ : b -> cond:(b -> Reg.t) -> (b -> unit) -> unit
(** Top-test loop.  [cond] emits the test computation into the loop header
    and returns the register whose non-zero value continues the loop. *)

val do_while : b -> (b -> Reg.t) -> unit
(** Bottom-test loop; the body returns the continue condition. *)

val for_ : b -> Reg.t -> from:Insn.operand -> below:Insn.operand -> step:int
  -> (b -> unit) -> unit
(** Canonical counted loop over register [r] in [\[from, below)] by [step].
    Uses register 3 as comparison scratch in the loop header. *)

val switch_ : b -> Reg.t -> (b -> unit) array -> default:(b -> unit) -> unit
(** Indexed multiway branch. *)

val call : b -> string -> unit
val ret : b -> unit
val halt : b -> unit
