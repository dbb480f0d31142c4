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
  | Li of Reg.t * int
  | Lf of Reg.t * float
  | Mov of Reg.t * Reg.t
  | Bin of binop * Reg.t * Reg.t * operand
  | Fbin of fbinop * Reg.t * Reg.t * Reg.t
  | Fcmp of fcmp * Reg.t * Reg.t * Reg.t
  | Fun of funop * Reg.t * Reg.t
  | Load of Reg.t * Reg.t * int
  | Store of Reg.t * Reg.t * int
  | Cmov of Reg.t * Reg.t * Reg.t

type fu_class =
  | Fu_int
  | Fu_int_mul
  | Fu_int_div
  | Fu_fp
  | Fu_fp_div
  | Fu_load
  | Fu_store

let fu_class = function
  | Nop | Li _ | Lf _ | Mov _ | Cmov _ -> Fu_int
  | Bin (Mul, _, _, _) -> Fu_int_mul
  | Bin ((Div | Rem), _, _, _) -> Fu_int_div
  | Bin (_, _, _, _) -> Fu_int
  | Fbin (Fdiv, _, _, _) -> Fu_fp_div
  | Fbin (_, _, _, _) | Fcmp (_, _, _, _) -> Fu_fp
  | Fun (Fsqrt, _, _) -> Fu_fp_div
  | Fun (_, _, _) -> Fu_fp
  | Load (_, _, _) -> Fu_load
  | Store (_, _, _) -> Fu_store

let def = function
  | Nop | Store (_, _, _) -> -1
  | Li (d, _) | Lf (d, _) | Mov (d, _)
  | Bin (_, d, _, _) | Fbin (_, d, _, _) | Fcmp (_, d, _, _)
  | Fun (_, d, _) | Load (d, _, _) | Cmov (d, _, _) -> d

let defs insn = match def insn with -1 -> [] | d -> [ d ]

(* [f] on [a] and [b], ascending, once when they are equal *)
let iter2 f a b =
  if a < b then begin
    f a;
    f b
  end
  else begin
    f b;
    if a <> b then f a
  end

(* [f] on the distinct values of [a], [b] and [c], ascending *)
let iter3 f a b c =
  let lo = Int.min a (Int.min b c) and hi = Int.max a (Int.max b c) in
  let mid = a + b + c - lo - hi in
  f lo;
  if mid <> lo then f mid;
  if hi <> mid then f hi

let iter_uses f = function
  | Nop | Li (_, _) | Lf (_, _) -> ()
  | Mov (_, s) | Fun (_, _, s) | Bin (_, _, s, Imm _) | Load (_, s, _) -> f s
  | Bin (_, _, s1, Reg s2) | Fbin (_, _, s1, s2) | Fcmp (_, _, s1, s2)
  | Store (s1, s2, _) -> iter2 f s1 s2
  | Cmov (d, c, s) -> iter3 f d c s

let uses insn =
  let rs = ref [] in
  iter_uses (fun r -> rs := r :: !rs) insn;
  List.rev !rs

let iter_regs f insn =
  (match insn with
  | Nop | Store (_, _, _) -> ()
  | Li (d, _) | Lf (d, _) | Mov (d, _)
  | Bin (_, d, _, _) | Fbin (_, d, _, _) | Fcmp (_, d, _, _)
  | Fun (_, d, _) | Load (d, _, _) | Cmov (d, _, _) -> f d);
  iter_uses f insn

let map_regs ~use ~def = function
  | Nop -> Nop
  | Li (d, n) -> Li (def d, n)
  | Lf (d, x) -> Lf (def d, x)
  | Mov (d, s) -> Mov (def d, use s)
  | Bin (op, d, s, Reg s2) -> Bin (op, def d, use s, Reg (use s2))
  | Bin (op, d, s, (Imm _ as o)) -> Bin (op, def d, use s, o)
  | Fbin (op, d, s1, s2) -> Fbin (op, def d, use s1, use s2)
  | Fcmp (op, d, s1, s2) -> Fcmp (op, def d, use s1, use s2)
  | Fun (op, d, s) -> Fun (op, def d, use s)
  | Load (d, b, off) -> Load (def d, use b, off)
  | Store (s, b, off) -> Store (use s, use b, off)
  | Cmov (d, c, s) -> Cmov (def d, use c, use s)

let is_mem = function
  | Load (_, _, _) | Store (_, _, _) -> true
  | Nop | Li _ | Lf _ | Mov _ | Bin _ | Fbin _ | Fcmp _ | Fun _ | Cmov _ ->
    false

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Lt -> "slt" | Le -> "sle" | Eq -> "seq" | Ne -> "sne" | Gt -> "sgt"
  | Ge -> "sge"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax"

let fcmp_name = function
  | Flt -> "flt" | Fle -> "fle" | Feq -> "feq" | Fne -> "fne"

let funop_name = function
  | Fneg -> "fneg" | Fabs -> "fabs" | Fsqrt -> "fsqrt" | Itof -> "itof"
  | Ftoi -> "ftoi"

(* The parser's lookups: each family's constructors as [Some op] constants,
   matched by the name the family's printer gives them.  The lists are
   static data, so neither they nor a lookup allocate. *)
let rec find_name name s = function
  | [] -> None
  | op :: rest -> (
    match op with
    | Some o when String.equal (name o) s -> op
    | Some _ | None -> find_name name s rest)

let binop_of_name s =
  find_name binop_name s
    [
      Some Add; Some Sub; Some Mul; Some Div; Some Rem; Some And; Some Or;
      Some Xor; Some Shl; Some Shr; Some Lt; Some Le; Some Eq; Some Ne;
      Some Gt; Some Ge;
    ]

let fbinop_of_name s =
  find_name fbinop_name s
    [ Some Fadd; Some Fsub; Some Fmul; Some Fdiv; Some Fmin; Some Fmax ]

let fcmp_of_name s =
  find_name fcmp_name s [ Some Flt; Some Fle; Some Feq; Some Fne ]

let funop_of_name s =
  find_name funop_name s
    [ Some Fneg; Some Fabs; Some Fsqrt; Some Itof; Some Ftoi ]

(* shortest decimal that parses back to the identical float, so [lf]
   instructions survive the textual round-trip bit-for-bit *)
let float_repr x =
  if x <> x then "nan"
  else if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else if Float.is_integer x && Float.abs x < 1e16 then Printf.sprintf "%.1f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s
    else
      let s = Printf.sprintf "%.16g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

let pp_operand ppf = function
  | Reg r -> Format.pp_print_string ppf (Reg.name r)
  | Imm n -> Format.fprintf ppf "#%d" n

let pp ppf insn =
  let r = Reg.name in
  match insn with
  | Nop -> Format.pp_print_string ppf "nop"
  | Li (d, n) -> Format.fprintf ppf "li %s, %d" (r d) n
  | Lf (d, f) -> Format.fprintf ppf "lf %s, %s" (r d) (float_repr f)
  | Mov (d, s) -> Format.fprintf ppf "mov %s, %s" (r d) (r s)
  | Bin (op, d, s, o) ->
    Format.fprintf ppf "%s %s, %s, %a" (binop_name op) (r d) (r s) pp_operand o
  | Fbin (op, d, s1, s2) ->
    Format.fprintf ppf "%s %s, %s, %s" (fbinop_name op) (r d) (r s1) (r s2)
  | Fcmp (op, d, s1, s2) ->
    Format.fprintf ppf "%s %s, %s, %s" (fcmp_name op) (r d) (r s1) (r s2)
  | Fun (op, d, s) -> Format.fprintf ppf "%s %s, %s" (funop_name op) (r d) (r s)
  | Load (d, b, off) -> Format.fprintf ppf "ld %s, %d(%s)" (r d) off (r b)
  | Store (s, b, off) -> Format.fprintf ppf "st %s, %d(%s)" (r s) off (r b)
  | Cmov (d, c, s) ->
    Format.fprintf ppf "cmov %s, %s, %s" (r d) (r c) (r s)

let to_string insn = Format.asprintf "%a" pp insn
