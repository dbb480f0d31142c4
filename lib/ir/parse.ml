let ( let* ) = Result.bind

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let reg s =
  let s = String.trim s in
  if String.equal s "r0" then Ok Reg.zero
  else if String.equal s "sp" then Ok Reg.sp
  else if String.equal s "rv" then Ok Reg.rv
  else if String.equal s "r3" then Ok 3
  else if String.length s >= 2 && s.[0] = 'a' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 0 && i < Reg.max_args -> Ok (Reg.arg i)
    | Some _ | None -> fail "bad argument register %S" s
  else if String.length s >= 2 && s.[0] = 't' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 0 && Reg.is_valid (Reg.tmp 0 + i) -> Ok (Reg.tmp i)
    | Some _ | None -> fail "bad temporary register %S" s
  else fail "unknown register %S" s

let operand s =
  let s = String.trim s in
  if String.length s > 1 && s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n -> Ok (Insn.Imm n)
    | None -> fail "bad immediate %S" s
  else
    let* r = reg s in
    Ok (Insn.Reg r)

let label s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = 'L' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some l when l >= 0 -> Ok l
    | Some _ | None -> fail "bad label %S" s
  else fail "expected label, got %S" s

let split_operands s =
  List.map String.trim (String.split_on_char ',' s)

(* "4(sp)" -> (sp, 4) *)
let mem_operand s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
    let off = String.sub s 0 i in
    let base = String.sub s (i + 1) (String.length s - i - 2) in
    let* off =
      match int_of_string_opt off with
      | Some n -> Ok n
      | None -> fail "bad displacement %S" s
    in
    let* base = reg base in
    Ok (base, off)
  | Some _ | None -> fail "bad memory operand %S" s

let regs3 mk d s1 s2 =
  let* d = reg d in
  let* s1 = reg s1 in
  let* s2 = reg s2 in
  Ok (mk d s1 s2)

let insn line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> if String.equal line "nop" then Ok Insn.Nop else fail "bad instruction %S" line
  | Some sp ->
    let mnem = String.sub line 0 sp in
    let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
    let ops = split_operands rest in
    (match (mnem, ops) with
    | "li", [ d; n ] ->
      let* d = reg d in
      (match int_of_string_opt n with
      | Some n -> Ok (Insn.Li (d, n))
      | None -> fail "bad integer %S" n)
    | "lf", [ d; x ] ->
      let* d = reg d in
      (match float_of_string_opt x with
      | Some x -> Ok (Insn.Lf (d, x))
      | None -> fail "bad float %S" x)
    | "mov", [ d; s ] ->
      let* d = reg d in
      let* s = reg s in
      Ok (Insn.Mov (d, s))
    | "cmov", [ d; c; s ] -> regs3 (fun d c s -> Insn.Cmov (d, c, s)) d c s
    | "ld", [ d; m ] ->
      let* d = reg d in
      let* base, off = mem_operand m in
      Ok (Insn.Load (d, base, off))
    | "st", [ s; m ] ->
      let* s = reg s in
      let* base, off = mem_operand m in
      Ok (Insn.Store (s, base, off))
    | op, [ d; s; x ] -> (
      (* one lookup per family: the integer one reads an operand third,
         the two float ones a register *)
      match Insn.binop_of_name op with
      | Some op ->
        let* d = reg d in
        let* s = reg s in
        let* o = operand x in
        Ok (Insn.Bin (op, d, s, o))
      | None -> (
        match Insn.fbinop_of_name op with
        | Some op -> regs3 (fun d s1 s2 -> Insn.Fbin (op, d, s1, s2)) d s x
        | None -> (
          match Insn.fcmp_of_name op with
          | Some op -> regs3 (fun d s1 s2 -> Insn.Fcmp (op, d, s1, s2)) d s x
          | None -> fail "bad instruction %S" line)))
    | op, [ d; s ] -> (
      match Insn.funop_of_name op with
      | Some op ->
        let* d = reg d in
        let* s = reg s in
        Ok (Insn.Fun (op, d, s))
      | None -> fail "bad instruction %S" line)
    | _, _ -> fail "bad instruction %S" line)

let terminator line =
  let line = String.trim line in
  if String.equal line "ret" then Ok (Some Block.Ret)
  else if String.equal line "halt" then Ok (Some Block.Halt)
  else
    match String.index_opt line ' ' with
    | None -> Ok None
    | Some sp ->
      let mnem = String.sub line 0 sp in
      let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
      (match mnem with
      | "jump" ->
        let* l = label rest in
        Ok (Some (Block.Jump l))
      | "br" ->
        (match split_operands rest with
        | [ c; l1; l2 ] ->
          let* c = reg c in
          let* l1 = label l1 in
          let* l2 = label l2 in
          Ok (Some (Block.Br (c, l1, l2)))
        | _ -> fail "bad br %S" line)
      | "switch" ->
        (* switch t0, [L1; L2], L3 *)
        (match (String.index_opt rest '[', String.index_opt rest ']') with
        | Some i, Some j when j > i ->
          let c = String.sub rest 0 i in
          let c = String.trim (String.concat "" (String.split_on_char ',' c)) in
          let* c = reg c in
          let body = String.sub rest (i + 1) (j - i - 1) in
          let* targets =
            List.fold_left
              (fun acc part ->
                let* acc = acc in
                let part = String.trim part in
                if String.equal part "" then Ok acc
                else
                  let* l = label part in
                  Ok (l :: acc))
              (Ok [])
              (String.split_on_char ';' body)
          in
          let after = String.sub rest (j + 1) (String.length rest - j - 1) in
          let after = String.trim after in
          let after =
            if String.length after > 0 && after.[0] = ',' then
              String.trim (String.sub after 1 (String.length after - 1))
            else after
          in
          let* d = label after in
          Ok (Some (Block.Switch (c, Array.of_list (List.rev targets), d)))
        | _, _ -> fail "bad switch %S" line)
      | "call" ->
        (* call f -> L2 *)
        (match String.split_on_char '>' rest with
        | [ before; after ] ->
          let callee = String.trim before in
          let callee =
            if String.length callee > 0 && callee.[String.length callee - 1] = '-'
            then String.trim (String.sub callee 0 (String.length callee - 1))
            else callee
          in
          let* cont = label after in
          Ok (Some (Block.Call (callee, cont)))
        | _ -> fail "bad call %S" line)
      | _ -> Ok None)

(* one data line's values, read straight into an array *)
let data_cells parse what zero values =
  let a = Array.make (Array.length values) zero in
  let rec fill i =
    if i = Array.length values then Ok a
    else
      match parse values.(i) with
      | Some x ->
        a.(i) <- x;
        fill (i + 1)
      | None -> fail "bad %s datum %S" what values.(i)
  in
  fill 0

type fstate = {
  mutable cur_label : int;
  mutable cur_insns : Insn.t list;
  mutable cur_term : Block.terminator option;
  mutable done_blocks : Block.t list;
}

let finish_block st =
  match st.cur_term with
  | None ->
    if st.cur_label >= 0 then fail "block L%d has no terminator" st.cur_label
    else Ok ()
  | Some term ->
    st.done_blocks <-
      {
        Block.label = st.cur_label;
        insns = Array.of_list (List.rev st.cur_insns);
        term;
      }
      :: st.done_blocks;
    st.cur_label <- -1;
    st.cur_insns <- [];
    st.cur_term <- None;
    Ok ()

let program text =
  let lines = String.split_on_char '\n' text in
  let funcs = ref [] in
  let data = ref [] in
  let next_addr = ref 0x1000 in
  let main = ref "main" in
  let in_func = ref None in
  let st = { cur_label = -1; cur_insns = []; cur_term = None; done_blocks = [] } in
  let step line =
    let line = String.trim line in
    (* '#' introduces a comment only at the start of a line: it is also the
       immediate-operand marker *)
    if String.equal line "" || line.[0] = '#' then Ok ()
    else
      match !in_func with
      | None ->
        if String.length line > 5 && String.equal (String.sub line 0 5) "func " then begin
          let rest = String.trim (String.sub line 5 (String.length line - 5)) in
          match String.split_on_char '{' rest with
          | [ name; "" ] ->
            in_func := Some (String.trim name);
            st.done_blocks <- [];
            Ok ()
          | _ -> fail "bad func header %S" line
        end
        else if String.length line > 5 && String.equal (String.sub line 0 5) "data " then begin
          match String.split_on_char ' ' line with
          | "data" :: addr :: kind :: values ->
            let* addr =
              match int_of_string_opt addr with
              | Some a -> Ok a
              | None -> fail "bad data address %S" addr
            in
            let values =
              Array.of_list (List.filter (fun v -> not (String.equal v "")) values)
            in
            let* cells =
              match kind with
              | "int" ->
                let* a = data_cells int_of_string_opt "int" 0 values in
                Ok (Prog.Ints a)
              | "flt" ->
                let* a = data_cells float_of_string_opt "float" 0.0 values in
                Ok (Prog.Flts a)
              | _ -> fail "bad data kind %S" kind
            in
            data := (addr, cells) :: !data;
            next_addr := max !next_addr (addr + Array.length values);
            Ok ()
          | _ -> fail "bad data line %S" line
        end
        else if String.length line > 7 && String.equal (String.sub line 0 7) "memtop " then begin
          match int_of_string_opt (String.trim (String.sub line 7 (String.length line - 7))) with
          | Some n when n >= 0 ->
            next_addr := max !next_addr n;
            Ok ()
          | Some _ | None -> fail "bad memtop line %S" line
        end
        else if String.length line > 5 && String.equal (String.sub line 0 5) "main " then begin
          main := String.trim (String.sub line 5 (String.length line - 5));
          Ok ()
        end
        else fail "unexpected top-level line %S" line
      | Some fname ->
        if String.equal line "}" then begin
          let* () = if st.cur_label >= 0 then finish_block st else Ok () in
          let blocks =
            List.sort
              (fun (a : Block.t) b -> compare a.Block.label b.Block.label)
              st.done_blocks
          in
          funcs := (fname, { Func.name = fname; blocks = Array.of_list blocks }) :: !funcs;
          in_func := None;
          Ok ()
        end
        else if String.length line >= 3 && line.[0] = 'L'
                && line.[String.length line - 1] = ':' then begin
          let* () = if st.cur_label >= 0 then finish_block st else Ok () in
          let* l = label (String.sub line 0 (String.length line - 1)) in
          st.cur_label <- l;
          Ok ()
        end
        else if st.cur_label < 0 then fail "instruction outside block: %S" line
        else begin
          let* term = terminator line in
          match term with
          | Some t ->
            st.cur_term <- Some t;
            finish_block st
          | None ->
            let* i = insn line in
            st.cur_insns <- i :: st.cur_insns;
            Ok ()
        end
  in
  let rec go i = function
    | [] -> Ok ()
    | l :: rest ->
      (match step l with
      | Ok () -> go (i + 1) rest
      | Error e -> fail "line %d: %s" i e)
  in
  let* () = go 1 lines in
  let* () =
    match !in_func with
    | Some f -> fail "unterminated function %s" f
    | None -> Ok ()
  in
  let prog_funcs =
    List.fold_left
      (fun acc (name, f) -> Prog.Smap.add name f acc)
      Prog.Smap.empty !funcs
  in
  let p =
    {
      Prog.funcs = prog_funcs;
      main = !main;
      mem_init = Prog.runs (List.rev !data);
      mem_top = !next_addr;
    }
  in
  match Prog.validate p with
  | Ok () -> Ok p
  | Error e -> Error e
