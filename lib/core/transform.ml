module Iset = Set.Make (Int)

(* --- rewriting loops ------------------------------------------------------ *)

let max_unroll = 16

(* Labels for copies of the blocks [ls] (ascending) of [f]: [label i l] is
   [l] itself in copy 0 and for a block not in [ls]; in copy [i >= 1] the
   [j]-th block of [ls] is [num_blocks f + (i - 1) * length ls + j]. *)
let copy_labels f ls =
  let n = Ir.Func.num_blocks f and m = List.length ls in
  let index = Array.make n (-1) in
  List.iteri (fun j l -> index.(l) <- j) ls;
  fun i l -> if i = 0 || index.(l) < 0 then l else n + ((i - 1) * m) + index.(l)

(* [f] with each block of [bs] at its label: a block with one of [f]'s
   labels replaces it in place, the others (fresh labels, dense from
   [num_blocks f]) are appended in label order.  Every loop rewrite ends
   here. *)
let assemble f bs =
  let n = Ir.Func.num_blocks f in
  let size =
    List.fold_left (fun m (b : Ir.Block.t) -> max m (b.Ir.Block.label + 1)) n bs
  in
  let blocks = Array.make size f.Ir.Func.blocks.(0) in
  Array.blit f.Ir.Func.blocks 0 blocks 0 n;
  List.iter (fun (b : Ir.Block.t) -> blocks.(b.Ir.Block.label) <- b) bs;
  { f with Ir.Func.blocks }

(* Unroll one loop by factor [k]: append k-1 copies of the loop body; back
   edges of copy i lead to the header of copy i+1, and those of the last copy
   lead back to the original header.  Exits of every copy keep their original
   (outside) targets. *)
let unroll_loop f (lo : Analysis.Loops.loop) k =
  let header = lo.Analysis.Loops.header in
  let label = copy_labels f lo.Analysis.Loops.blocks in
  let copy i l =
    let b = Ir.Func.block f l in
    {
      Ir.Block.label = label i l;
      insns = (if i = 0 then b.Ir.Block.insns else Array.copy b.Ir.Block.insns);
      term =
        Ir.Block.map_term b.Ir.Block.term ~cond:Fun.id ~label:(fun s ->
            if s = header then label ((i + 1) mod k) header else label i s);
    }
  in
  assemble f
    (List.concat_map
       (fun i -> List.map (copy i) lo.Analysis.Loops.blocks)
       (List.init k Fun.id))

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

(* The first [k] registers of the pool, taken out of it, or [None] (the
   pool left as it is) when it holds fewer *)
let take free k =
  if List.length !free < k then None
  else begin
    let taken = Array.make k Ir.Reg.zero in
    for j = 0 to k - 1 do
      taken.(j) <- List.hd !free;
      free := List.tl !free
    done;
    Some taken
  end

(* --- the induction rewrite ------------------------------------------------ *)

(* A hoistable induction register [reg] of a loop: defined in the loop
   exactly once, by `add reg, reg, #step` sitting last in the single
   [latch]; all loop exits leave from the header; the header has a single
   in-loop successor, [body_start]. *)
type induction = {
  reg : Ir.Reg.t;
  step : int;
  latch : Ir.Block.label;
  body_start : Ir.Block.label;
}

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
          if defs_of_r = 1 then Some { reg = r; step; latch; body_start }
          else None
        | _ -> None
      end
    | _, _ -> None)
  | _ -> None

(* The induction rewrite of loop [lo]'s body (its blocks but the header)
   at factor k = [Array.length values] >= 1, where [values] = rOld, v_1 ..
   v_(k-1) are unused registers.  Copy [i] of body block [l] is labelled
   [label i l]; copy 0 replaces the original.  The first body block of
   copy 0 starts with the group prelude

     rOld = r; r = r + k*s; v_i = rOld + i*s

   so the carried register r is written once, at the top, and the next
   task receives it at once.  Copy [i] reads its value (rOld, v_i) for r
   in its instructions and in every terminator but the latch's, which runs
   after the original increment and so reads r itself; the latch loses
   that increment.  In-body edges stay within the copy and back edges of
   copy [i] go to [next_header i]. *)
let rewrite_body f (lo : Analysis.Loops.loop) ind values ~label ~next_header =
  let k = Array.length values and r = ind.reg and r_old = values.(0) in
  let prelude =
    Ir.Insn.Mov (r_old, r)
    :: Ir.Insn.Bin (Ir.Insn.Add, r, r, Ir.Insn.Imm (k * ind.step))
    :: List.init (k - 1) (fun j ->
           Ir.Insn.Bin
             ( Ir.Insn.Add,
               values.(j + 1),
               r_old,
               Ir.Insn.Imm ((j + 1) * ind.step) ))
  in
  let copy i =
    let read x = if x = r then values.(i) else x in
    let rewrite = Ir.Insn.map_regs ~use:read ~def:Fun.id in
    let target s =
      if s = lo.Analysis.Loops.header then next_header i else label i s
    in
    fun l ->
      let b = Ir.Func.block f l in
      let insns = Array.map rewrite b.Ir.Block.insns in
      let insns =
        if l = ind.latch then Array.sub insns 0 (Array.length insns - 1)
        else insns
      in
      let insns =
        if i = 0 && l = ind.body_start then
          Array.append (Array.of_list prelude) insns
        else insns
      in
      {
        Ir.Block.label = label i l;
        insns;
        term =
          Ir.Block.map_term b.Ir.Block.term ~label:target
            ~cond:(if l = ind.latch then Fun.id else read);
      }
  in
  List.concat_map
    (fun i ->
      let copy = copy i in
      List.filter_map
        (fun l ->
          if l = lo.Analysis.Loops.header then None else Some (copy l))
        lo.Analysis.Loops.blocks)
    (List.init k Fun.id)

(* --- counted-loop unrolling with induction coalescing -------------------- *)

(* Copy-based unrolling leaves one serial `add r, r, s` per iteration
   copy, so the next group's tasks wait for a chain of adds spread across
   the whole task — precisely what the Multiscalar compiler's induction
   rescheduling avoids.  For loops in the canonical counted shape produced
   by front ends (header = single compare + branch; single latch ending in
   the increment; exits only from the header; no calls), the induction
   rewrite computes all derived induction values at the top of the group,
   and copy i >= 1 is entered through a copy of the header that tests its
   own value:

     H  : c = r < bound        ; br B0 X          (entry, unchanged label)
     B0 : rOld = r; r = r + k*s; v_i = rOld + i*s (group prelude)
          body[0] with r -> rOld                  ; jump H1
     Hi : c = v_i < bound      ; br Bi Fi         (i = 1..k-1)
     Bi : body[i] with r -> v_i                   ; jump H(i+1) (or H)
     Fi : r = v_i              ; jump X           (early-exit fixup)

   The fixup blocks restore r when the trip count is not a multiple of k.
   Each fixup is an extra task successor, so k is capped at N-1 targets. *)

(* A counted loop's induction and X, its header's out-of-loop successor *)
let find_counted f (lo : Analysis.Loops.loop) =
  let hb = Ir.Func.block f lo.Analysis.Loops.header in
  match (find_induction f lo, hb.Ir.Block.insns, hb.Ir.Block.term) with
  | ( Some ind,
      [| Ir.Insn.Bin (cmp, c, r, bound) |],
      Ir.Block.Br (c', bt, bf) )
    when c = c' && r = ind.reg && bt = ind.body_start
         && (not (List.mem bf lo.Analysis.Loops.blocks))
         && (cmp = Ir.Insn.Lt || cmp = Ir.Insn.Gt)
         && (match bound with
            | Ir.Insn.Reg rb -> rb <> r && rb <> c
            | Ir.Insn.Imm _ -> true) ->
    Some (ind, bf)
  | _, _, _ -> None

let unroll_counted f (lo : Analysis.Loops.loop) ind ~exit values =
  let k = Array.length values and header = lo.Analysis.Loops.header in
  let body = List.filter (fun l -> l <> header) lo.Analysis.Loops.blocks in
  let label = copy_labels f body in
  (* H1..H(k-1), then F1..F(k-1), follow the body copies *)
  let h i = Ir.Func.num_blocks f + ((k - 1) * List.length body) + i - 1 in
  let fixup i = h i + k - 1 in
  let hb = Ir.Func.block f header in
  let entry i =
    let read x = if x = ind.reg then values.(i) else x in
    [
      {
        Ir.Block.label = h i;
        insns =
          Array.map (Ir.Insn.map_regs ~use:read ~def:Fun.id) hb.Ir.Block.insns;
        term =
          Ir.Block.map_term hb.Ir.Block.term ~cond:Fun.id ~label:(fun s ->
              if s = exit then fixup i else label i s);
      };
      {
        Ir.Block.label = fixup i;
        insns = [| Ir.Insn.Mov (ind.reg, values.(i)) |];
        term = Ir.Block.Jump exit;
      };
    ]
  in
  assemble f
    (rewrite_body f lo ind values ~label ~next_header:(fun i ->
         if i = k - 1 then header else h (i + 1))
    @ List.concat_map entry (List.init (k - 1) succ))

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
        | Some (ind, exit) ->
          (* every early-exit fixup is an extra task successor: keep the
             group within the hardware's N targets *)
          let k = min k_wanted (params.Heuristics.max_targets - 1) in
          if k < 2 then f
          else begin
            match take free k with
            | Some values -> unroll_counted f lo ind ~exit values
            | None -> unroll_loop f lo k
          end
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

(* the induction rewrite at factor 1: no copies, no new labels, and the
   back edge still goes to the header *)
let hoist_induction_with ~free f =
  List.fold_left
    (fun f (lo : Analysis.Loops.loop) ->
      match find_induction f lo with
      | None -> f
      | Some ind -> (
        match take free 1 with
        | None -> f
        | Some values ->
          assemble f
            (rewrite_body f lo ind values
               ~label:(fun _ l -> l)
               ~next_header:(fun _ -> lo.Analysis.Loops.header))))
    f (loops_of f).Analysis.Loops.loops

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
  let subst r = match Hashtbl.find_opt map r with Some r' -> r' | None -> r in
  let renames = ref [] in
  let rewritten = ref [] in
  let ok = ref true in
  Array.iter
    (fun insn ->
      if !ok then begin
        match Ir.Insn.def insn with
        | d when d = -1 || d = Ir.Reg.zero ->
          rewritten :=
            Ir.Insn.map_regs ~use:subst ~def:Fun.id insn :: !rewritten
        | d ->
          let renamed = Hashtbl.find_opt map d in
          let fresh =
            match renamed with
            | Some f -> Some f (* reuse the same fresh reg for repeat defs *)
            | None ->
              (match !free with
              | f :: rest ->
                free := rest;
                renames := (d, f) :: !renames;
                Some f
              | [] -> None)
          in
          (match fresh with
          | None -> ok := false
          | Some f ->
            (* uses read the arm's renames before this def *)
            let insn' = Ir.Insn.map_regs ~use:subst ~def:(fun _ -> f) insn in
            Hashtbl.replace map d f;
            (match insn with
            | Ir.Insn.Cmov _ when renamed = None ->
              (* a cmov keeps the old value on false: seed f with d's value
                 on entry to the arm first; once the arm has written d, its
                 current value is already in f *)
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
