module Iset = Set.Make (Int)

(* --- loop unrolling ------------------------------------------------------ *)

let max_unroll = 16

let retarget map term =
  let m l = match Hashtbl.find_opt map l with Some l' -> l' | None -> l in
  match term with
  | Ir.Block.Jump l -> Ir.Block.Jump (m l)
  | Ir.Block.Br (c, l1, l2) -> Ir.Block.Br (c, m l1, m l2)
  | Ir.Block.Switch (c, ts, d) -> Ir.Block.Switch (c, Array.map m ts, m d)
  | Ir.Block.Call (f, cont) -> Ir.Block.Call (f, m cont)
  | Ir.Block.Ret -> Ir.Block.Ret
  | Ir.Block.Halt -> Ir.Block.Halt

(* Unroll one loop by factor [k]: append k-1 copies of the loop body; back
   edges of copy i lead to the header of copy i+1, and those of the last copy
   lead back to the original header.  Exits of every copy keep their original
   (outside) targets. *)
let unroll_loop f (lo : Analysis.Loops.loop) k =
  let blocks = ref (Array.to_list f.Ir.Func.blocks) in
  let next_label = ref (Ir.Func.num_blocks f) in
  let in_loop = Iset.of_list lo.Analysis.Loops.blocks in
  let header = lo.Analysis.Loops.header in
  (* label of block [l] in copy [i]; copy 0 is the original *)
  let copy_label = Hashtbl.create 16 in
  Hashtbl.replace copy_label (0, header) header;
  Iset.iter (fun l -> Hashtbl.replace copy_label (0, l) l) in_loop;
  for i = 1 to k - 1 do
    Iset.iter
      (fun l ->
        Hashtbl.replace copy_label (i, l) !next_label;
        incr next_label)
      in_loop
  done;
  let header_of_copy i = Hashtbl.find copy_label (i mod k, header) in
  let rewrite_term i (b : Ir.Block.t) =
    let map = Hashtbl.create 8 in
    Ir.Block.iter_succs
      (fun s ->
        if s = header then
          (* back edge: next copy (or wrap to the original header) *)
          Hashtbl.replace map s (header_of_copy (i + 1))
        else if Iset.mem s in_loop then
          Hashtbl.replace map s (Hashtbl.find copy_label (i, s)))
      b;
    retarget map b.Ir.Block.term
  in
  (* rewrite original loop blocks (copy 0) *)
  blocks :=
    List.map
      (fun (b : Ir.Block.t) ->
        if Iset.mem b.Ir.Block.label in_loop then
          { b with Ir.Block.term = rewrite_term 0 b }
        else b)
      !blocks;
  (* append copies 1..k-1 *)
  let copies = ref [] in
  for i = 1 to k - 1 do
    Iset.iter
      (fun l ->
        let b = Ir.Func.block f l in
        let b' =
          {
            Ir.Block.label = Hashtbl.find copy_label (i, l);
            insns = Array.copy b.Ir.Block.insns;
            term = rewrite_term i b;
          }
        in
        copies := b' :: !copies)
      in_loop
  done;
  let all =
    !blocks @ List.sort (fun a b -> compare a.Ir.Block.label b.Ir.Block.label)
                (List.rev !copies)
  in
  { f with Ir.Func.blocks = Array.of_list all }

let all_used_registers f =
  let used = Array.make Ir.Reg.count false in
  Array.iter
    (fun (b : Ir.Block.t) ->
      Array.iter
        (Ir.Insn.iter_regs (fun r -> used.(r) <- true))
        b.Ir.Block.insns;
      List.iter (fun r -> used.(r) <- true)
        (Analysis.Dataflow.term_uses b.Ir.Block.term))
    f.Ir.Func.blocks;
  let rs = ref [] in
  for r = Ir.Reg.count - 1 downto 0 do
    if used.(r) then rs := r :: !rs
  done;
  !rs

(* Registers are architecturally global: a scratch register that is unused
   in one function may be live across a call in another, so every pool of
   copy registers is drawn from the registers unused across the whole
   program. *)
let free_registers p =
  let used = Array.make Ir.Reg.count false in
  List.iter (fun r -> used.(r) <- true) [ Ir.Reg.zero; Ir.Reg.sp; Ir.Reg.rv ];
  Ir.Prog.Smap.iter
    (fun _ f -> List.iter (fun r -> used.(r) <- true) (all_used_registers f))
    p.Ir.Prog.funcs;
  ref (List.filter (fun r -> not used.(r)) (List.init Ir.Reg.count Fun.id))

(* A hoistable induction register in loop [lo]: defined in the loop exactly
   once, by `add r, r, #imm` sitting last in the single latch; all loop exits
   leave from the header; the header has a single in-loop successor. *)
let find_induction f (lo : Analysis.Loops.loop) =
  let in_loop = Iset.of_list lo.Analysis.Loops.blocks in
  let header = lo.Analysis.Loops.header in
  match lo.Analysis.Loops.latches with
  | [ latch ] when latch <> header ->
    let exits_only_from_header =
      List.for_all
        (fun l ->
          l = header
          || List.for_all
               (fun s -> Iset.mem s in_loop)
               (Ir.Func.successors f l))
        lo.Analysis.Loops.blocks
    in
    let body_starts =
      List.filter (fun s -> Iset.mem s in_loop) (Ir.Func.successors f header)
    in
    (* a callee could read the induction register directly, and only caller
       code is rewritten: refuse loops containing calls *)
    let has_call =
      List.exists
        (fun l ->
          match (Ir.Func.block f l).Ir.Block.term with
          | Ir.Block.Call (_, _) -> true
          | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
          | Ir.Block.Halt -> false)
        lo.Analysis.Loops.blocks
    in
    (match (exits_only_from_header && not has_call, body_starts) with
    | true, [ body_start ] when body_start <> header ->
      let latch_blk = Ir.Func.block f latch in
      let n = Array.length latch_blk.Ir.Block.insns in
      if n = 0 then None
      else begin
        match latch_blk.Ir.Block.insns.(n - 1) with
        | Ir.Insn.Bin (Ir.Insn.Add, r, r', Ir.Insn.Imm step)
          when r = r' && r <> Ir.Reg.zero && r <> Ir.Reg.rv ->
          (* r must have no other def in the loop *)
          let defs_of_r =
            List.fold_left
              (fun acc l ->
                let b = Ir.Func.block f l in
                Array.fold_left
                  (fun acc i -> if Ir.Insn.def i = r then acc + 1 else acc)
                  acc b.Ir.Block.insns)
              0 lo.Analysis.Loops.blocks
          in
          if defs_of_r = 1 then Some (r, step, latch, body_start) else None
        | _ -> None
      end
    | _, _ -> None)
  | _ -> None


(* --- counted-loop unrolling with induction coalescing -------------------- *)

(* The generic copy-based unrolling above leaves one serial `add r, r, s`
   per iteration copy, so the next group's tasks wait for a chain of adds
   spread across the whole task — precisely what the Multiscalar compiler's
   induction rescheduling avoids.  For loops in the canonical counted shape
   produced by front ends (header = single compare + branch; single latch
   ending in the increment; exits only from the header; no calls), we unroll
   by computing all derived induction values at the top of the group:

     H  : c = r < bound        ; br B0 X          (entry, unchanged label)
     B0 : rOld = r; r = r + k*s; v_i = rOld + i*s (group prelude)
          body[0] with r -> rOld                  ; jump H1
     Hi : c = v_i < bound      ; br Bi Fi         (i = 1..k-1)
     Bi : body[i] with r -> v_i                   ; jump H(i+1) (or H)
     Fi : r = v_i              ; jump X           (early-exit fixup)

   The carried register r is written once, at the second instruction of the
   group, so the successor task's induction value forwards immediately.
   The fixup blocks restore r when the trip count is not a multiple of k.
   Each fixup is an extra task successor, so k is capped at N-1 targets. *)

type counted = {
  c_header : Ir.Block.label;
  c_exit : Ir.Block.label;       (* header's out-of-loop successor *)
  c_body_start : Ir.Block.label;
  c_latch : Ir.Block.label;
  c_reg : Ir.Reg.t;
  c_step : int;
  c_cmp : Ir.Insn.binop;
  c_cond : Ir.Reg.t;
  c_bound : Ir.Insn.operand;
}

let find_counted f (lo : Analysis.Loops.loop) =
  let in_loop = Iset.of_list lo.Analysis.Loops.blocks in
  let header = lo.Analysis.Loops.header in
  match (lo.Analysis.Loops.latches, find_induction f lo) with
  | [ latch ], Some (r, step, latch', body_start) when latch = latch' ->
    let hb = Ir.Func.block f header in
    (match (hb.Ir.Block.insns, hb.Ir.Block.term) with
    | [| Ir.Insn.Bin (cmp, c, r', bound) |], Ir.Block.Br (c', bt, bf)
      when c = c' && r' = r && bt = body_start && not (Iset.mem bf in_loop)
           && (cmp = Ir.Insn.Lt || cmp = Ir.Insn.Gt)
           && (match bound with
              | Ir.Insn.Reg rb -> rb <> r && rb <> c
              | Ir.Insn.Imm _ -> true) ->
      Some
        {
          c_header = header;
          c_exit = bf;
          c_body_start = body_start;
          c_latch = latch;
          c_reg = r;
          c_step = step;
          c_cmp = cmp;
          c_cond = c;
          c_bound = bound;
        }
    | _, _ -> None)
  | _, _ -> None

let subst_reg_uses ~from_ ~to_ insn =
  let s x = if x = from_ then to_ else x in
  let so = function
    | Ir.Insn.Reg x -> Ir.Insn.Reg (s x)
    | Ir.Insn.Imm _ as o -> o
  in
  match insn with
  | Ir.Insn.Nop | Ir.Insn.Li _ | Ir.Insn.Lf _ -> insn
  | Ir.Insn.Mov (d, x) -> Ir.Insn.Mov (d, s x)
  | Ir.Insn.Bin (op, d, x, o) -> Ir.Insn.Bin (op, d, s x, so o)
  | Ir.Insn.Fbin (op, d, x, y) -> Ir.Insn.Fbin (op, d, s x, s y)
  | Ir.Insn.Fcmp (op, d, x, y) -> Ir.Insn.Fcmp (op, d, s x, s y)
  | Ir.Insn.Fun (op, d, x) -> Ir.Insn.Fun (op, d, s x)
  | Ir.Insn.Load (d, base, off) -> Ir.Insn.Load (d, s base, off)
  | Ir.Insn.Store (x, base, off) -> Ir.Insn.Store (s x, s base, off)
  | Ir.Insn.Cmov (d, c, x) -> Ir.Insn.Cmov (d, s c, s x)

let unroll_counted f (lo : Analysis.Loops.loop) (c : counted) k ~fresh =
  (* fresh: k registers — rOld followed by v_1 .. v_{k-1} *)
  let r_old, derived =
    match fresh with
    | r0 :: rest -> (r0, Array.of_list rest)
    | [] -> invalid_arg "unroll_counted"
  in
  let in_loop = Iset.of_list lo.Analysis.Loops.blocks in
  let body_blocks = List.filter (fun l -> l <> c.c_header) lo.Analysis.Loops.blocks in
  let next_label = ref (Ir.Func.num_blocks f) in
  let fresh_label () =
    let l = !next_label in
    incr next_label;
    l
  in
  (* labels of body copies (copy 0 reuses the original blocks), the extra
     headers H1..H(k-1), and fixups F1..F(k-1) *)
  let copy_label = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace copy_label (0, l) l) body_blocks;
  for i = 1 to k - 1 do
    List.iter
      (fun l -> Hashtbl.replace copy_label (i, l) (fresh_label ()))
      body_blocks
  done;
  let hs = Array.init (k - 1) (fun _ -> fresh_label ()) in
  let fs = Array.init (k - 1) (fun _ -> fresh_label ()) in
  let value_of_copy i = if i = 0 then r_old else derived.(i - 1) in
  let next_header i = if i = k - 1 then c.c_header else hs.(i) in
  let new_blocks = ref [] in
  (* rewrite the body blocks of copy [i] *)
  let rewrite_copy i =
    List.iter
      (fun l ->
        let b = Ir.Func.block f l in
        let v = value_of_copy i in
        let insns =
          Array.map (subst_reg_uses ~from_:c.c_reg ~to_:v) b.Ir.Block.insns
        in
        (* drop the increment at the end of the latch *)
        let insns =
          if l = c.c_latch then Array.sub insns 0 (Array.length insns - 1)
          else insns
        in
        (* the group prelude goes at the top of copy 0's first body block *)
        let insns =
          if i = 0 && l = c.c_body_start then begin
            let prelude =
              Ir.Insn.Mov (r_old, c.c_reg)
              :: Ir.Insn.Bin (Ir.Insn.Add, c.c_reg, c.c_reg, Ir.Insn.Imm (k * c.c_step))
              :: List.init (k - 1) (fun j ->
                     Ir.Insn.Bin
                       ( Ir.Insn.Add,
                         derived.(j),
                         r_old,
                         Ir.Insn.Imm ((j + 1) * c.c_step) ))
            in
            Array.append (Array.of_list prelude) insns
          end
          else insns
        in
        let term =
          if l = c.c_latch then Ir.Block.Jump (next_header i)
          else begin
            (* intra-body edges stay within the copy *)
            let map = Hashtbl.create 4 in
            Ir.Block.iter_succs
              (fun s ->
                if Iset.mem s in_loop && s <> c.c_header then
                  Hashtbl.replace map s (Hashtbl.find copy_label (i, s)))
              b;
            retarget map b.Ir.Block.term
          end
        in
        new_blocks :=
          { Ir.Block.label = Hashtbl.find copy_label (i, l); insns; term }
          :: !new_blocks)
      body_blocks
  in
  for i = 0 to k - 1 do
    rewrite_copy i
  done;
  (* headers H1..H(k-1) and fixups F1..F(k-1) *)
  for i = 1 to k - 1 do
    new_blocks :=
      {
        Ir.Block.label = hs.(i - 1);
        insns = [| Ir.Insn.Bin (c.c_cmp, c.c_cond, value_of_copy i, c.c_bound) |];
        term =
          Ir.Block.Br
            (c.c_cond, Hashtbl.find copy_label (i, c.c_body_start), fs.(i - 1));
      }
      :: !new_blocks;
    new_blocks :=
      {
        Ir.Block.label = fs.(i - 1);
        insns = [| Ir.Insn.Mov (c.c_reg, value_of_copy i) |];
        term = Ir.Block.Jump c.c_exit;
      }
      :: !new_blocks
  done;
  let replaced = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.Block.t) -> Hashtbl.replace replaced b.Ir.Block.label b)
    !new_blocks;
  let old =
    Array.to_list
      (Array.map
         (fun (b : Ir.Block.t) ->
           match Hashtbl.find_opt replaced b.Ir.Block.label with
           | Some b' ->
             Hashtbl.remove replaced b.Ir.Block.label;
             b'
           | None -> b)
         f.Ir.Func.blocks)
  in
  let appended =
    List.sort
      (fun (a : Ir.Block.t) b -> compare a.Ir.Block.label b.Ir.Block.label)
      (Hashtbl.fold (fun _ b acc -> b :: acc) replaced [])
  in
  { f with Ir.Func.blocks = Array.of_list (old @ appended) }

(* The function's natural loops, from one DFS numbering and one
   predecessor table *)
let loops_of f =
  let preds = Ir.Func.pred_table f in
  Analysis.Loops.compute f
    (Analysis.Dom.compute (Analysis.Dfs.compute f) preds)
    preds

let is_innermost loops lo =
  (* no other loop is strictly contained in lo *)
  not
    (List.exists
       (fun other ->
         other != lo
         && List.length other.Analysis.Loops.blocks
            < List.length lo.Analysis.Loops.blocks
         && List.for_all
              (fun b -> List.mem b lo.Analysis.Loops.blocks)
              other.Analysis.Loops.blocks)
       loops)

let rec unroll_round params ~free ~handled f =
  let loops = loops_of f in
  let candidate =
    List.find_opt
      (fun lo ->
        lo.Analysis.Loops.static_size < params.Heuristics.loop_thresh
        && (not (List.mem lo.Analysis.Loops.header !handled))
        && is_innermost loops.Analysis.Loops.loops lo)
      loops.Analysis.Loops.loops
  in
  match candidate with
  | None -> f
  | Some lo ->
    handled := lo.Analysis.Loops.header :: !handled;
    let k_wanted =
      min max_unroll
        ((params.Heuristics.loop_thresh + lo.Analysis.Loops.static_size - 1)
        / lo.Analysis.Loops.static_size)
    in
    let f =
      if k_wanted <= 1 then f
      else begin
        match find_counted f lo with
        | Some c ->
          (* every early-exit fixup is an extra task successor: keep the
             group within the hardware's N targets *)
          let k = min k_wanted (params.Heuristics.max_targets - 1) in
          let rec take n = function
            | r :: rest when n > 0 ->
              let taken, rest' = take (n - 1) rest in
              (r :: taken, rest')
            | rest -> ([], rest)
          in
          let fresh, rest = take k !free in
          if k >= 2 && List.length fresh = k then begin
            free := rest;
            unroll_counted f lo c k ~fresh
          end
          else if k >= 2 then unroll_loop f lo k
          else f
        | None -> unroll_loop f lo k_wanted
      end
    in
    unroll_round params ~free ~handled f

let unroll_program params p =
  let free = free_registers p in
  Ir.Prog.map_funcs (fun f -> unroll_round params ~free ~handled:(ref []) f) p

(* --- call inclusion ------------------------------------------------------ *)

let mark_included_calls ~call_thresh ~callee_size f =
  Array.map
    (fun (b : Ir.Block.t) ->
      match b.Ir.Block.term with
      | Ir.Block.Call (callee, _) -> callee_size callee < float_of_int call_thresh
      | Ir.Block.Jump _ | Ir.Block.Br _ | Ir.Block.Switch _ | Ir.Block.Ret
      | Ir.Block.Halt -> false)
    f.Ir.Func.blocks

(* --- induction-variable hoisting ----------------------------------------- *)

let apply_hoist f (lo : Analysis.Loops.loop) r step latch body_start r_old =
  let in_loop = Iset.of_list lo.Analysis.Loops.blocks in
  let header = lo.Analysis.Loops.header in
  let subst_reg x = if x = r then r_old else x in
  let subst_operand = function
    | Ir.Insn.Reg x -> Ir.Insn.Reg (subst_reg x)
    | Ir.Insn.Imm _ as o -> o
  in
  let subst_uses insn =
    match insn with
    | Ir.Insn.Nop | Ir.Insn.Li _ | Ir.Insn.Lf _ -> insn
    | Ir.Insn.Mov (d, s) -> Ir.Insn.Mov (d, subst_reg s)
    | Ir.Insn.Bin (op, d, s, o) -> Ir.Insn.Bin (op, d, subst_reg s, subst_operand o)
    | Ir.Insn.Fbin (op, d, s1, s2) -> Ir.Insn.Fbin (op, d, subst_reg s1, subst_reg s2)
    | Ir.Insn.Fcmp (op, d, s1, s2) -> Ir.Insn.Fcmp (op, d, subst_reg s1, subst_reg s2)
    | Ir.Insn.Fun (op, d, s) -> Ir.Insn.Fun (op, d, subst_reg s)
    | Ir.Insn.Load (d, base, off) -> Ir.Insn.Load (d, subst_reg base, off)
    | Ir.Insn.Store (s, base, off) ->
      Ir.Insn.Store (subst_reg s, subst_reg base, off)
    | Ir.Insn.Cmov (d, c, s) -> Ir.Insn.Cmov (d, subst_reg c, subst_reg s)
  in
  let subst_term_uses term =
    match term with
    | Ir.Block.Br (c, l1, l2) -> Ir.Block.Br (subst_reg c, l1, l2)
    | Ir.Block.Switch (c, ts, d) -> Ir.Block.Switch (subst_reg c, ts, d)
    | Ir.Block.Jump _ | Ir.Block.Call _ | Ir.Block.Ret | Ir.Block.Halt -> term
  in
  let blocks =
    Array.map
      (fun (b : Ir.Block.t) ->
        let l = b.Ir.Block.label in
        if not (Iset.mem l in_loop) || l = header then b
        else begin
          let insns = Array.map subst_uses b.Ir.Block.insns in
          let insns =
            if l = latch then Array.sub insns 0 (Array.length insns - 1)
            else insns
          in
          let insns =
            if l = body_start then
              Array.append
                [|
                  Ir.Insn.Mov (r_old, r);
                  Ir.Insn.Bin (Ir.Insn.Add, r, r, Ir.Insn.Imm step);
                |]
                insns
            else insns
          in
          (* the latch's terminator runs after the (original) increment and
             must keep seeing the post-increment value *)
          let term =
            if l = latch then b.Ir.Block.term
            else subst_term_uses b.Ir.Block.term
          in
          { b with Ir.Block.insns; term }
        end)
      f.Ir.Func.blocks
  in
  { f with Ir.Func.blocks = blocks }

let hoist_induction_with ~free f =
  let loops = loops_of f in
  List.fold_left
    (fun f lo ->
      match find_induction f lo with
      | Some (r, step, latch, body_start) ->
        (match !free with
        | r_old :: rest ->
          free := rest;
          apply_hoist f lo r step latch body_start r_old
        | [] -> f)
      | None -> f)
    f loops.Analysis.Loops.loops

let hoist_program p =
  Ir.Prog.map_funcs (hoist_induction_with ~free:(free_registers p)) p

(* --- if-conversion (predication) ------------------------------------------ *)

(* The paper notes that predication could improve the heuristics but leaves
   it unexplored (§3.2); we implement it as an optional extension.  A
   *convertible diamond* is a block A ending in `br c, T, E` where T and E
   are single blocks whose only predecessor is A, both jumping to the same
   join J, containing only pure register instructions (no memory, no
   division — those must not execute on the wrong path).  Both arms are
   flattened into A with their destinations renamed to fresh registers,
   followed by conditional moves selecting per destination:

     A: ...; c' = (c == 0)
        [T insns with defs renamed]; [E insns with defs renamed]
        cmov d, c,  d_T   (for every d written by T)
        cmov d, c', d_E   (for every d written by E)
        jump J

   Arms are bounded by [max_arm] instructions to avoid flooding the block
   with wrong-path work. *)
let max_arm = 6

let pure_insn = function
  | Ir.Insn.Nop | Ir.Insn.Li _ | Ir.Insn.Lf _ | Ir.Insn.Mov _
  | Ir.Insn.Fbin ((Ir.Insn.Fadd | Ir.Insn.Fsub | Ir.Insn.Fmul | Ir.Insn.Fmin
                  | Ir.Insn.Fmax), _, _, _)
  | Ir.Insn.Fcmp _
  | Ir.Insn.Fun ((Ir.Insn.Fneg | Ir.Insn.Fabs | Ir.Insn.Itof | Ir.Insn.Ftoi), _, _)
  | Ir.Insn.Cmov _ -> true
  | Ir.Insn.Bin ((Ir.Insn.Div | Ir.Insn.Rem), _, _, _) -> false
  | Ir.Insn.Bin (_, _, _, _) -> true
  | Ir.Insn.Fbin (Ir.Insn.Fdiv, _, _, _) | Ir.Insn.Fun (Ir.Insn.Fsqrt, _, _)
  | Ir.Insn.Load _ | Ir.Insn.Store _ -> false

(* rename the defs of an arm into fresh registers, rewriting arm-internal
   uses; returns (rewritten insns, [(original dst, fresh dst)]) or None if
   the fresh pool runs dry *)
let rename_arm insns ~free =
  let map = Hashtbl.create 4 in
  let renames = ref [] in
  let rewritten = ref [] in
  let ok = ref true in
  Array.iter
    (fun insn ->
      if !ok then begin
        let subst r = match Hashtbl.find_opt map r with Some r' -> r' | None -> r in
        let insn =
          match insn with
          | Ir.Insn.Nop -> Ir.Insn.Nop
          | Ir.Insn.Li (d, n) -> Ir.Insn.Li (d, n)
          | Ir.Insn.Lf (d, x) -> Ir.Insn.Lf (d, x)
          | Ir.Insn.Mov (d, s) -> Ir.Insn.Mov (d, subst s)
          | Ir.Insn.Bin (op, d, s, o) ->
            let o' =
              match o with
              | Ir.Insn.Reg r -> Ir.Insn.Reg (subst r)
              | Ir.Insn.Imm _ -> o
            in
            Ir.Insn.Bin (op, d, subst s, o')
          | Ir.Insn.Fbin (op, d, s1, s2) -> Ir.Insn.Fbin (op, d, subst s1, subst s2)
          | Ir.Insn.Fcmp (op, d, s1, s2) -> Ir.Insn.Fcmp (op, d, subst s1, subst s2)
          | Ir.Insn.Fun (op, d, s) -> Ir.Insn.Fun (op, d, subst s)
          | Ir.Insn.Cmov (d, c, s) -> Ir.Insn.Cmov (d, subst c, subst s)
          | Ir.Insn.Load _ | Ir.Insn.Store _ -> insn (* excluded by pure_insn *)
        in
        (* rename the destination *)
        match Ir.Insn.def insn with
        | -1 -> rewritten := insn :: !rewritten
        | d when d = Ir.Reg.zero -> rewritten := insn :: !rewritten
        | d ->
          let renamed = Hashtbl.find_opt map d in
          let fresh =
            match renamed with
            | Some f -> Some f (* reuse the same fresh reg for repeat defs *)
            | None ->
              (match !free with
              | f :: rest ->
                free := rest;
                Hashtbl.replace map d f;
                renames := (d, f) :: !renames;
                Some f
              | [] -> None)
          in
          (match fresh with
          | None -> ok := false
          | Some f ->
            let insn' =
              match insn with
              | Ir.Insn.Nop -> Ir.Insn.Nop
              | Ir.Insn.Li (_, n) -> Ir.Insn.Li (f, n)
              | Ir.Insn.Lf (_, x) -> Ir.Insn.Lf (f, x)
              | Ir.Insn.Mov (_, s) -> Ir.Insn.Mov (f, s)
              | Ir.Insn.Bin (op, _, s, o) -> Ir.Insn.Bin (op, f, s, o)
              | Ir.Insn.Fbin (op, _, s1, s2) -> Ir.Insn.Fbin (op, f, s1, s2)
              | Ir.Insn.Fcmp (op, _, s1, s2) -> Ir.Insn.Fcmp (op, f, s1, s2)
              | Ir.Insn.Fun (op, _, s) -> Ir.Insn.Fun (op, f, s)
              | Ir.Insn.Cmov (_, c, s) ->
                (* a cmov keeps the old value on false: seed the fresh reg *)
                Ir.Insn.Cmov (f, c, s)
              | Ir.Insn.Load _ | Ir.Insn.Store _ -> insn
            in
            (match insn with
            | Ir.Insn.Cmov _ when renamed = None ->
              (* seed f with d's value on entry to the arm first; once the
                 arm has written d, its current value is already in f *)
              rewritten := insn' :: Ir.Insn.Mov (f, d) :: !rewritten
            | _ -> rewritten := insn' :: !rewritten))
      end)
    insns;
  if !ok then Some (List.rev !rewritten, List.rev !renames) else None

(* converts the first convertible diamond it finds and recurses, so the
   predecessor information is always fresh *)
let rec if_convert_func ~free f =
  let n = Ir.Func.num_blocks f in
  let preds = Ir.Func.predecessors f in
  let blocks = Array.copy f.Ir.Func.blocks in
  let changed = ref false in
  for a = 0 to n - 1 do
    if not !changed then
    match blocks.(a).Ir.Block.term with
    | Ir.Block.Br (c, t, e) when t <> e && t <> a && e <> a ->
      let arm l =
        let b = blocks.(l) in
        match b.Ir.Block.term with
        | Ir.Block.Jump j
          when preds.(l) = [ a ]
               && Array.length b.Ir.Block.insns <= max_arm
               && Array.for_all pure_insn b.Ir.Block.insns
               && not
                    (Array.exists
                       (fun i -> Ir.Insn.def i = c)
                       b.Ir.Block.insns) ->
          Some (b.Ir.Block.insns, j)
        | _ -> None
      in
      (match (arm t, arm e) with
      | Some (t_insns, jt), Some (e_insns, je) when jt = je && jt <> a ->
        (match !free with
        | c_inv :: rest_free ->
          let free' = ref rest_free in
          (match (rename_arm t_insns ~free:free', rename_arm e_insns ~free:free') with
          | Some (t_code, t_renames), Some (e_code, e_renames) ->
            free := !free';
            let selects =
              List.map (fun (d, fr) -> Ir.Insn.Cmov (d, c, fr)) t_renames
              @ (if e_renames = [] then []
                 else
                   Ir.Insn.Bin (Ir.Insn.Eq, c_inv, c, Ir.Insn.Imm 0)
                   :: List.map
                        (fun (d, fr) -> Ir.Insn.Cmov (d, c_inv, fr))
                        e_renames)
            in
            let insns =
              Array.concat
                [
                  blocks.(a).Ir.Block.insns;
                  Array.of_list t_code;
                  Array.of_list e_code;
                  Array.of_list selects;
                ]
            in
            blocks.(a) <- { (blocks.(a)) with Ir.Block.insns; term = Ir.Block.Jump jt };
            changed := true
          | _, _ -> ())
        | [] -> ())
      | _, _ -> ())
    | _ -> ()
  done;
  if !changed then
    if_convert_func ~free
      (Ir.Func.drop_unreachable { f with Ir.Func.blocks })
  else f

let if_convert_program p =
  Ir.Prog.map_funcs (if_convert_func ~free:(free_registers p)) p
