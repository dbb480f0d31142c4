let term_text = function
  | Block.Jump l -> Printf.sprintf "jump L%d" l
  | Block.Br (c, l1, l2) -> Printf.sprintf "br %s, L%d, L%d" (Reg.name c) l1 l2
  | Block.Switch (c, ts, d) ->
    Printf.sprintf "switch %s, [%s], L%d" (Reg.name c)
      (String.concat "; "
         (Array.to_list (Array.map (fun l -> "L" ^ string_of_int l) ts)))
      d
  | Block.Call (f, cont) -> Printf.sprintf "call %s -> L%d" f cont
  | Block.Ret -> "ret"
  | Block.Halt -> "halt"

let func_text f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "func %s {\n" f.Func.name);
  Array.iter
    (fun (b : Block.t) ->
      Buffer.add_string buf (Printf.sprintf "L%d:\n" b.Block.label);
      Array.iter
        (fun i -> Buffer.add_string buf ("  " ^ Insn.to_string i ^ "\n"))
        b.Block.insns;
      Buffer.add_string buf ("  " ^ term_text b.Block.term ^ "\n"))
    f.Func.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program_text p =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (base, cells) ->
      (match cells with
      | Prog.Ints a ->
        Printf.bprintf buf "data %d int" base;
        Array.iter (Printf.bprintf buf " %d") a
      | Prog.Flts a ->
        Printf.bprintf buf "data %d flt" base;
        Array.iter (Printf.bprintf buf " %h") a);
      Buffer.add_char buf '\n')
    p.Prog.mem_init;
  (* builder programs reserve scratch memory beyond the initialised cells
     (alloc without data); the analyses read [mem_top], so the bound must
     survive the round-trip explicitly *)
  Buffer.add_string buf (Printf.sprintf "memtop %d\n" p.Prog.mem_top);
  Prog.Smap.iter (fun _ f -> Buffer.add_string buf (func_text f)) p.Prog.funcs;
  Buffer.add_string buf (Printf.sprintf "main %s\n" p.Prog.main);
  Buffer.contents buf

let dot_of_func ?partition f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  node [shape=box];\n" f.Func.name);
  let colors =
    [| "lightblue"; "lightyellow"; "lightgreen"; "mistyrose"; "lavender";
       "wheat"; "palegreen"; "lightcyan" |]
  in
  Array.iter
    (fun (b : Block.t) ->
      let style =
        match partition with
        | Some part ->
          Printf.sprintf ", style=filled, fillcolor=%S"
            colors.(part b.Block.label mod Array.length colors)
        | None -> ""
      in
      let body =
        String.concat "\\l"
          (Array.to_list (Array.map Insn.to_string b.Block.insns))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"L%d\\n%s\\l%s\"%s];\n" b.Block.label
           b.Block.label body (term_text b.Block.term) style);
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" b.Block.label s))
        (Block.successors b))
    f.Func.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
