type binding =
  | Const of int
  | CFlt of float
  | Copy of Ir.Reg.t
  | Unknown

let shift_clamp b = min 62 (max 0 b)

(* total integer fold; [None] when the operation must be left in place *)
let fold_binop op a b =
  let open Ir.Insn in
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Shl -> Some (a lsl shift_clamp b)
  | Shr -> Some (a asr shift_clamp b)
  | Lt -> Some (if a < b then 1 else 0)
  | Le -> Some (if a <= b then 1 else 0)
  | Eq -> Some (if a = b then 1 else 0)
  | Ne -> Some (if a <> b then 1 else 0)
  | Gt -> Some (if a > b then 1 else 0)
  | Ge -> Some (if a >= b then 1 else 0)

let fold_fbinop op a b =
  let open Ir.Insn in
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

let fold_fcmp op a b =
  let open Ir.Insn in
  match op with
  | Flt -> a < b
  | Fle -> a <= b
  | Feq -> Float.equal a b
  | Fne -> not (Float.equal a b)

let run_block (b : Ir.Block.t) =
  let env = Array.make Ir.Reg.count Unknown in
  env.(Ir.Reg.zero) <- Const 0;
  (* resolve a register to its root binding (copies are one level deep by
     construction: we always record roots) *)
  let binding r = env.(r) in
  let root r =
    match env.(r) with
    | Copy r' -> r'
    | Const _ | CFlt _ | Unknown -> r
  in
  let int_of r =
    match binding r with Const n -> Some n | CFlt _ | Copy _ | Unknown -> None
  in
  let flt_of r =
    match binding r with CFlt x -> Some x | Const _ | Copy _ | Unknown -> None
  in
  let set r v =
    if r <> Ir.Reg.zero then begin
      env.(r) <- v;
      (* kill copies that pointed at the old value of r *)
      Array.iteri
        (fun i bnd -> match bnd with Copy r' when r' = r && i <> r -> env.(i) <- Unknown | _ -> ())
        env
    end
  in
  let out = ref [] in
  let emit i = out := i :: !out in
  (* operands rewritten to their roots *)
  let subst insn = Ir.Insn.map_regs ~use:root ~def:Fun.id insn in
  Array.iter
    (fun insn ->
      match insn with
      | Ir.Insn.Nop -> ()
      | Ir.Insn.Li (d, n) ->
        emit insn;
        set d (Const n)
      | Ir.Insn.Lf (d, x) ->
        emit insn;
        set d (CFlt x)
      | Ir.Insn.Mov (d, s) ->
        (match binding s with
        | Const n ->
          emit (Ir.Insn.Li (d, n));
          set d (Const n)
        | CFlt x ->
          emit (Ir.Insn.Lf (d, x));
          set d (CFlt x)
        | Copy _ | Unknown ->
          let s' = root s in
          if s' = d then () (* self-move: drop *)
          else begin
            emit (Ir.Insn.Mov (d, s'));
            set d (Copy s')
          end)
      | Ir.Insn.Bin (op, d, s, o) ->
        let sv = int_of s in
        let ov =
          match o with
          | Ir.Insn.Imm n -> Some n
          | Ir.Insn.Reg r -> int_of r
        in
        (match (sv, ov) with
        | Some a, Some bv when fold_binop op a bv <> None ->
          (match fold_binop op a bv with
          | Some n ->
            emit (Ir.Insn.Li (d, n));
            set d (Const n)
          | None -> assert false)
        | _, _ ->
          (* rewrite operands to roots / immediates *)
          let s' = match sv with Some _ -> s (* keep: folded above only when both known *) | None -> root s in
          let o' =
            match o with
            | Ir.Insn.Imm _ -> o
            | Ir.Insn.Reg r ->
              (match int_of r with
              | Some n -> Ir.Insn.Imm n
              | None -> Ir.Insn.Reg (root r))
          in
          emit (Ir.Insn.Bin (op, d, s', o'));
          set d Unknown)
      | Ir.Insn.Fbin (op, d, s1, s2) ->
        (match (flt_of s1, flt_of s2) with
        | Some a, Some bv ->
          let x = fold_fbinop op a bv in
          emit (Ir.Insn.Lf (d, x));
          set d (CFlt x)
        | _, _ ->
          emit (subst insn);
          set d Unknown)
      | Ir.Insn.Fcmp (op, d, s1, s2) ->
        (match (flt_of s1, flt_of s2) with
        | Some a, Some bv ->
          let n = if fold_fcmp op a bv then 1 else 0 in
          emit (Ir.Insn.Li (d, n));
          set d (Const n)
        | _, _ ->
          emit (subst insn);
          set d Unknown)
      | Ir.Insn.Fun (op, d, s) ->
        let folded =
          match (op, binding s) with
          | Ir.Insn.Fneg, CFlt x -> Some (Ir.Insn.Lf (d, -.x))
          | Ir.Insn.Fabs, CFlt x -> Some (Ir.Insn.Lf (d, Float.abs x))
          | Ir.Insn.Fsqrt, CFlt x -> Some (Ir.Insn.Lf (d, sqrt x))
          | Ir.Insn.Itof, Const n -> Some (Ir.Insn.Lf (d, float_of_int n))
          | Ir.Insn.Ftoi, CFlt x -> Some (Ir.Insn.Li (d, int_of_float x))
          | _, _ -> None
        in
        (match folded with
        | Some i ->
          emit i;
          set d
            (match i with
            | Ir.Insn.Lf (_, x) -> CFlt x
            | Ir.Insn.Li (_, n) -> Const n
            | _ -> Unknown)
        | None ->
          emit (subst insn);
          set d Unknown)
      | Ir.Insn.Load (d, _, _) ->
        emit (subst insn);
        set d Unknown
      | Ir.Insn.Store _ -> emit (subst insn)
      | Ir.Insn.Cmov (d, c, s) ->
        (match int_of c with
        | Some 0 -> () (* never moves: drop *)
        | Some _ ->
          (* always moves: a plain move *)
          (match binding s with
          | Const n ->
            emit (Ir.Insn.Li (d, n));
            set d (Const n)
          | CFlt x ->
            emit (Ir.Insn.Lf (d, x));
            set d (CFlt x)
          | Copy _ | Unknown ->
            let s' = root s in
            if s' <> d then begin
              emit (Ir.Insn.Mov (d, s'));
              set d (Copy s')
            end)
        | None ->
          emit (subst insn);
          set d Unknown))
    b.Ir.Block.insns;
  (* fold terminators with known conditions *)
  let known =
    match b.Ir.Block.term with
    | Ir.Block.Br (c, l1, l2) ->
      Option.map (fun v -> if v = 0 then l2 else l1) (int_of c)
    | Ir.Block.Switch (c, targets, d) ->
      Option.map
        (fun v -> if v >= 0 && v < Array.length targets then targets.(v) else d)
        (int_of c)
    | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> None
  in
  let term =
    match known with
    | Some l -> Ir.Block.Jump l
    | None -> Ir.Block.map_term ~label:Fun.id ~cond:root b.Ir.Block.term
  in
  { b with Ir.Block.insns = Array.of_list (List.rev !out); term }

let run_func f =
  Ir.Func.drop_unreachable
    { f with Ir.Func.blocks = Array.map run_block f.Ir.Func.blocks }

let run p = Ir.Prog.map_funcs run_func p
