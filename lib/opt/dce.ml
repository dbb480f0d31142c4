let pure insn =
  match insn with
  | Ir.Insn.Store (_, _, _) -> false
  | Ir.Insn.Nop | Ir.Insn.Li _ | Ir.Insn.Lf _ | Ir.Insn.Mov _ | Ir.Insn.Bin _
  | Ir.Insn.Fbin _ | Ir.Insn.Fcmp _ | Ir.Insn.Fun _ | Ir.Insn.Load _
  | Ir.Insn.Cmov _ -> true

(* Rem/Div by a constant zero would fault at run time: removing it would
   change behaviour, so it is not dead-eliminable. *)
let may_fault insn =
  match insn with
  | Ir.Insn.Bin ((Ir.Insn.Div | Ir.Insn.Rem), _, _, Ir.Insn.Imm 0) -> true
  | Ir.Insn.Bin ((Ir.Insn.Div | Ir.Insn.Rem), _, _, Ir.Insn.Reg _) -> true
  | _ -> false

let run_func f =
  let lv =
    Analysis.Dataflow.liveness ~call_uses:Analysis.Dataflow.Regset.all f
  in
  let blocks =
    Array.map
      (fun (b : Ir.Block.t) ->
        (* backward scan from live_out *)
        let live = ref lv.Analysis.Dataflow.live_out.(b.Ir.Block.label) in
        (* the terminator reads its condition *)
        List.iter
          (fun r -> live := Analysis.Dataflow.Regset.add r !live)
          (match b.Ir.Block.term with
          | Ir.Block.Call (_, _) -> Analysis.Dataflow.Regset.(elements all)
          | t -> Analysis.Dataflow.term_uses t);
        let kept = ref [] in
        for i = Array.length b.Ir.Block.insns - 1 downto 0 do
          let insn = b.Ir.Block.insns.(i) in
          let defs = Ir.Insn.defs insn in
          let needed =
            (not (pure insn))
            || may_fault insn
            || defs = []
            || List.exists
                 (fun d -> Analysis.Dataflow.Regset.mem d !live)
                 defs
          in
          if needed then begin
            kept := insn :: !kept;
            List.iter
              (fun d -> live := Analysis.Dataflow.Regset.remove d !live)
              defs;
            List.iter
              (fun u -> live := Analysis.Dataflow.Regset.add u !live)
              (Ir.Insn.uses insn)
          end
        done;
        { b with Ir.Block.insns = Array.of_list !kept })
      f.Ir.Func.blocks
  in
  { f with Ir.Func.blocks = blocks }

let run p = Ir.Prog.map_funcs run_func p
