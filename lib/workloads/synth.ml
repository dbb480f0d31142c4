(* Seeded, parameterized synthetic IR program generators.

   The corpus definition shared by the qcheck suites, [msc fuzz], its
   [msc check fuzz] entry and the daemon fuzz op.  Everything is built through the
   public builder API, so programs are valid by construction; loops are
   counted with constant bounds and divisions are guarded, so they
   terminate.  Generation is deterministic in (profile, seed).

   Register discipline (the interpreter has a single global register file,
   so writers must not collide with live induction variables):
     tmp 4..11   playground: seeded integer scratch, freely clobbered
     tmp 12..17  main's loop induction / while counters, one per nest level
     tmp 18..25  helper-chain loop counters, one per chain position
     tmp 26..29  float scratch
   Helpers only write playground/float/rv/own-counter registers, so calls
   nested inside main's loops can never perturb a loop bound. *)

module Profile = struct
  type t = {
    name : string;
    description : string;
    call_depth : int;
    nest_depth : int;
    op_budget : int;
    max_iters : int;
    branch_pct : int;
    switch_fanout : int;
    mem_cells : int;
    mem_stride : int;
    regions : int;
    alias : bool;
    early_ret_pct : int;
    straight_max : int;
    use_float : bool;
  }

  let default =
    {
      name = "default";
      description = "balanced mix of every construct (historical test/gen.ml)";
      call_depth = 1;
      nest_depth = 4;
      op_budget = 10;
      max_iters = 7;
      branch_pct = 35;
      switch_fanout = 4;
      mem_cells = 64;
      mem_stride = 1;
      regions = 1;
      alias = false;
      early_ret_pct = 8;
      straight_max = 6;
      use_float = false;
    }

  let all =
    [
      default;
      {
        default with
        name = "straightline";
        description = "pure straight-line code (single-task bb stress)";
        call_depth = 0;
        nest_depth = 0;
        max_iters = 0;
        branch_pct = 0;
        switch_fanout = 0;
        early_ret_pct = 0;
        straight_max = 8;
      };
      {
        default with
        name = "deep-calls";
        description = "long non-recursive helper chains (call-boundary stress)";
        call_depth = 6;
        nest_depth = 3;
        branch_pct = 25;
        op_budget = 8;
      };
      {
        default with
        name = "loopy";
        description = "deep counted loop nests (induction/unroll stress)";
        call_depth = 0;
        nest_depth = 5;
        op_budget = 12;
        branch_pct = 15;
        switch_fanout = 0;
      };
      {
        default with
        name = "branchy";
        description = "dense two-way branching (control-flow heuristic stress)";
        nest_depth = 5;
        op_budget = 14;
        max_iters = 3;
        branch_pct = 75;
      };
      {
        default with
        name = "switchy";
        description = "wide multiway branches (switch fan-out stress)";
        op_budget = 12;
        branch_pct = 20;
        switch_fanout = 8;
      };
      {
        default with
        name = "mem-stride";
        description = "strided accesses over two disjoint regions";
        mem_cells = 32;
        mem_stride = 4;
        regions = 2;
      };
      {
        default with
        name = "mem-alias";
        description = "overlapping scratch regions (memdep aliasing stress)";
        mem_cells = 32;
        mem_stride = 2;
        regions = 3;
        alias = true;
      };
      {
        default with
        name = "early-ret";
        description = "frequent guarded early returns (exit-edge stress)";
        early_ret_pct = 40;
        op_budget = 12;
      };
      {
        default with
        name = "float-mix";
        description = "FP arithmetic, compares and conversions in the mix";
        use_float = true;
      };
      {
        default with
        name = "big";
        description = "large bodies: high budget, long straight-line runs";
        call_depth = 3;
        op_budget = 24;
        branch_pct = 40;
        straight_max = 8;
      };
    ]

  let find name = List.find_opt (fun p -> p.name = name) all
end

(* Self-contained deterministic RNG (splitmix-style over 62-bit ints) so the
   corpus does not depend on qcheck or the stdlib Random state. *)
module Rng = struct
  type t = { mutable s : int }

  let mask = (1 lsl 62) - 1

  let mix z =
    let z = z lxor (z lsr 31) in
    let z = z * 0x2545F4914F6CDD1D land mask in
    let z = z lxor (z lsr 29) in
    let z = z * 0x1D8E4E27C47D124F land mask in
    z lxor (z lsr 32)

  let create seed = { s = mix ((seed land mask) lxor 0x5DEECE66D) }

  let next t =
    t.s <- (t.s + 0x1E3779B97F4A7C15) land mask;
    mix t.s

  let below t n = if n <= 0 then 0 else next t mod n
  let chance t pct = below t 100 < pct
end

let program_seed ~seed ~index = (seed * 1_000_003) + (index * 7919)

(* register map (see header comment) *)
let playground rng = Ir.Reg.tmp (4 + Rng.below rng 8)
let main_loop_reg nest = Ir.Reg.tmp (12 + min nest 5)
let helper_loop_reg k = Ir.Reg.tmp (18 + min k 7)
let float_reg rng = Ir.Reg.tmp (26 + Rng.below rng 4)

let pow2_mask n =
  let rec go m = if m >= n - 1 then m else go ((m * 2) + 1) in
  go 1

let gen_binop rng =
  let open Ir.Insn in
  match Rng.below rng 12 with
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> And
  | 4 -> Or
  | 5 -> Xor
  | 6 -> Shl
  | 7 -> Shr
  | 8 -> Lt
  | 9 -> Le
  | 10 -> Eq
  | _ -> Ne

let gen_fbinop rng =
  let open Ir.Insn in
  match Rng.below rng 6 with
  | 0 -> Fadd
  | 1 -> Fsub
  | 2 -> Fmul
  | 3 -> Fdiv
  | 4 -> Fmin
  | _ -> Fmax

let gen_fcmp rng =
  let open Ir.Insn in
  match Rng.below rng 4 with 0 -> Flt | 1 -> Fle | 2 -> Feq | _ -> Fne

(* one bounded memory access: mask the index into [0, cells), scale by the
   stride, displace within the element -- always inside the chosen region *)
let gen_mem_access ~(prof : Profile.t) ~regions b rng ~is_store =
  let base = List.nth regions (Rng.below rng (List.length regions)) in
  let a = playground rng in
  let s = playground rng in
  Ir.Builder.bin b Ir.Insn.And a s (Ir.Insn.Imm (prof.mem_cells - 1));
  if prof.mem_stride > 1 then
    Ir.Builder.bin b Ir.Insn.Mul a a (Ir.Insn.Imm prof.mem_stride);
  Ir.Builder.addi b a a base;
  let off = if prof.mem_stride > 1 then Rng.below rng prof.mem_stride else 0 in
  if is_store then Ir.Builder.store b (playground rng) a off
  else Ir.Builder.load b (playground rng) a off

let gen_float_op b rng =
  let fd = float_reg rng in
  match Rng.below rng 5 with
  | 0 -> Ir.Builder.lf b fd (float_of_int (Rng.below rng 1000) /. 8.0)
  | 1 -> Ir.Builder.fbin b (gen_fbinop rng) fd (float_reg rng) (float_reg rng)
  | 2 -> Ir.Builder.fcmp b (gen_fcmp rng) (playground rng) fd (float_reg rng)
  | 3 ->
    Ir.Builder.funop b Ir.Insn.Itof fd (playground rng);
    Ir.Builder.funop b Ir.Insn.Fabs fd fd;
    Ir.Builder.funop b Ir.Insn.Fsqrt fd fd
  | _ -> Ir.Builder.funop b Ir.Insn.Ftoi (playground rng) (float_reg rng)

let gen_straight ~(prof : Profile.t) ~regions b rng =
  let n = 1 + Rng.below rng prof.straight_max in
  for _ = 1 to n do
    let d = playground rng in
    match Rng.below rng (if prof.use_float then 10 else 9) with
    | 0 -> Ir.Builder.li b d (Rng.below rng 1000)
    | 1 ->
      Ir.Builder.bin b (gen_binop rng) d (playground rng)
        (Ir.Insn.Imm (1 + Rng.below rng 30))
    | 2 ->
      Ir.Builder.bin b (gen_binop rng) d (playground rng)
        (Ir.Insn.Reg (playground rng))
    | 3 ->
      (* guarded division: by a non-zero constant, or by a register forced
         odd (hence non-zero) with an or-mask *)
      let s = playground rng in
      if Rng.chance rng 50 then
        Ir.Builder.bin b Ir.Insn.Div d s (Ir.Insn.Imm (1 + Rng.below rng 9))
      else begin
        let dv = playground rng in
        Ir.Builder.bin b Ir.Insn.Or dv (playground rng) (Ir.Insn.Imm 1);
        Ir.Builder.bin b
          (if Rng.chance rng 50 then Ir.Insn.Div else Ir.Insn.Rem)
          d s (Ir.Insn.Reg dv)
      end
    | 4 -> gen_mem_access ~prof ~regions b rng ~is_store:false
    | 5 -> gen_mem_access ~prof ~regions b rng ~is_store:true
    | 6 -> Ir.Builder.mov b d (playground rng)
    | 7 -> Ir.Builder.emit b (Ir.Insn.Cmov (d, playground rng, playground rng))
    | 8 ->
      Ir.Builder.bin b
        (if Rng.chance rng 50 then Ir.Insn.Gt else Ir.Insn.Ge)
        d (playground rng)
        (Ir.Insn.Reg (playground rng))
    | _ -> gen_float_op b rng
  done

type budget = { mutable left : int }

type construct = C_if | C_when | C_for | C_while | C_switch | C_call | C_early

let pick_weighted rng choices =
  let choices = List.filter (fun (w, _) -> w > 0) choices in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 choices in
  if total = 0 then None
  else begin
    let k = Rng.below rng total in
    let rec go k = function
      | [] -> None
      | (w, x) :: _ when k < w -> Some x
      | (w, _) :: tl -> go (k - w) tl
    in
    go k choices
  end

let rec gen_body ~(prof : Profile.t) ~regions ~budget ~depth ~loop_var b rng =
  gen_straight ~prof ~regions b rng;
  let constructs = 1 + Rng.below rng 2 in
  for _ = 1 to constructs do
    if budget.left > 0 && depth < prof.nest_depth then begin
      budget.left <- budget.left - 1;
      let pick =
        pick_weighted rng
          [
            (prof.branch_pct, C_if);
            (max 0 (prof.branch_pct / 2), C_when);
            ((if prof.max_iters > 0 then 30 else 0), C_for);
            ((if prof.max_iters > 0 then 10 else 0), C_while);
            ((if prof.switch_fanout > 0 then 20 else 0), C_switch);
            ((if prof.call_depth > 0 then 15 else 0), C_call);
            (prof.early_ret_pct, C_early);
          ]
      in
      let recurse ~extra_loop b =
        gen_body ~prof ~regions ~budget ~depth:(depth + 1)
          ~loop_var:(loop_var + extra_loop) b rng
      in
      match pick with
      | None -> ()
      | Some C_if ->
        let c = playground rng in
        Ir.Builder.if_ b c (recurse ~extra_loop:0) (recurse ~extra_loop:0)
      | Some C_when ->
        let c = playground rng in
        Ir.Builder.when_ b c (recurse ~extra_loop:0)
      | Some C_for ->
        let r = main_loop_reg loop_var in
        let iters = 1 + Rng.below rng prof.max_iters in
        Ir.Builder.for_ b r ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm iters)
          ~step:1 (recurse ~extra_loop:1)
      | Some C_while ->
        (* bounded while: count a dedicated register down to zero *)
        let cnt = main_loop_reg loop_var in
        let iters = 1 + Rng.below rng prof.max_iters in
        Ir.Builder.li b cnt iters;
        Ir.Builder.while_ b
          ~cond:(fun b ->
            let c = playground rng in
            Ir.Builder.addi b cnt cnt (-1);
            Ir.Builder.bin b Ir.Insn.Ge c cnt (Ir.Insn.Imm 0);
            c)
          (recurse ~extra_loop:1)
      | Some C_switch ->
        let c = playground rng in
        let arms = 1 + Rng.below rng prof.switch_fanout in
        Ir.Builder.bin b Ir.Insn.And c c (Ir.Insn.Imm (pow2_mask (arms + 1)));
        Ir.Builder.switch_ b c
          (Array.init arms (fun _ b -> gen_straight ~prof ~regions b rng))
          ~default:(fun b -> gen_straight ~prof ~regions b rng)
      | Some C_call ->
        Ir.Builder.li b (Ir.Reg.arg 0) (Rng.below rng 64);
        Ir.Builder.call b "h0";
        gen_straight ~prof ~regions b rng
      | Some C_early ->
        let c = playground rng in
        Ir.Builder.bin b Ir.Insn.And c (playground rng) (Ir.Insn.Imm 1);
        Ir.Builder.when_ b c (fun b ->
            Ir.Builder.li b Ir.Reg.rv (Rng.below rng 1000);
            Ir.Builder.ret b)
    end
  done

(* helper chain h0 -> h1 -> ... : strictly increasing positions, so no
   recursion; each helper only writes playground/float/rv and its own
   dedicated loop counter (see the register map) *)
let gen_helper ~(prof : Profile.t) ~regions pb rng k =
  let name = "h" ^ string_of_int k in
  Ir.Builder.func pb name (fun b ->
      gen_straight ~prof ~regions b rng;
      if prof.max_iters > 0 && Rng.chance rng 35 then begin
        let r = helper_loop_reg k in
        let iters = 1 + Rng.below rng (min 4 prof.max_iters) in
        Ir.Builder.for_ b r ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm iters)
          ~step:1 (fun b -> gen_straight ~prof ~regions b rng)
      end;
      if k + 1 < prof.call_depth then begin
        Ir.Builder.li b (Ir.Reg.arg 0) (Rng.below rng 64);
        Ir.Builder.call b ("h" ^ string_of_int (k + 1));
        gen_straight ~prof ~regions b rng
      end;
      Ir.Builder.bin b Ir.Insn.Add Ir.Reg.rv (Ir.Reg.arg 0)
        (Ir.Insn.Imm (k + 1));
      Ir.Builder.ret b)

let mk_regions pb (prof : Profile.t) =
  let size = prof.mem_cells * prof.mem_stride in
  if prof.alias && prof.regions > 1 then begin
    (* one arena, bases half-a-region apart: every pair of regions overlaps *)
    let span = size + ((prof.regions - 1) * (size / 2)) in
    let base0 = Ir.Builder.alloc pb span in
    List.init prof.regions (fun i -> base0 + (i * (size / 2)))
  end
  else List.init prof.regions (fun _ -> Ir.Builder.alloc pb size)

let generate ~(profile : Profile.t) ~seed =
  let prof = profile in
  let rng = Rng.create ((seed * 0x9E3779B1) + Hashtbl.hash prof.name) in
  let pb = Ir.Builder.program () in
  let regions = mk_regions pb prof in
  (* give the first region some initialised cells so the data segment (and
     its textual round-trip) is exercised too *)
  let r0 = List.hd regions in
  for i = 0 to min 7 (prof.mem_cells - 1) do
    Ir.Builder.init_cell pb
      (r0 + (i * prof.mem_stride))
      (Ir.Value.Int (Rng.below rng 1000))
  done;
  if prof.use_float && prof.mem_cells >= 16 then
    for i = 8 to 11 do
      Ir.Builder.init_cell pb
        (r0 + (i * prof.mem_stride))
        (Ir.Value.Flt (float_of_int (Rng.below rng 256) /. 4.0))
    done;
  for k = 0 to prof.call_depth - 1 do
    gen_helper ~prof ~regions pb rng k
  done;
  Ir.Builder.func pb "main" (fun b ->
      (* deterministic seeds for the playground registers *)
      for i = 0 to 7 do
        Ir.Builder.li b (Ir.Reg.tmp (4 + i)) (Rng.below rng 1000)
      done;
      if prof.use_float then
        for i = 0 to 3 do
          Ir.Builder.lf b
            (Ir.Reg.tmp (26 + i))
            (float_of_int (Rng.below rng 512) /. 16.0)
        done;
      let budget =
        { left = ((prof.op_budget + 1) / 2) + Rng.below rng ((prof.op_budget / 2) + 1) }
      in
      gen_body ~prof ~regions ~budget ~depth:0 ~loop_var:0 b rng;
      (* digest the playground into rv *)
      Ir.Builder.li b Ir.Reg.rv 0;
      for i = 0 to 7 do
        Ir.Builder.bin b Ir.Insn.Xor Ir.Reg.rv Ir.Reg.rv
          (Ir.Insn.Reg (Ir.Reg.tmp (4 + i)))
      done;
      if prof.use_float then begin
        Ir.Builder.funop b Ir.Insn.Ftoi (Ir.Reg.tmp 4) (Ir.Reg.tmp 26);
        Ir.Builder.bin b Ir.Insn.Xor Ir.Reg.rv Ir.Reg.rv
          (Ir.Insn.Reg (Ir.Reg.tmp 4))
      end;
      Ir.Builder.ret b);
  Ir.Builder.finish pb ~main:"main"

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

(* drop functions unreachable from main (callee closure) *)
let prune_funcs (p : Ir.Prog.t) =
  let seen = Hashtbl.create 8 in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match Ir.Prog.Smap.find_opt name p.funcs with
      | Some f -> List.iter go (Ir.Func.callees f)
      | None -> ()
    end
  in
  go p.main;
  { p with funcs = Ir.Prog.Smap.filter (fun n _ -> Hashtbl.mem seen n) p.funcs }

let map_blocks f g =
  { f with Ir.Func.blocks = Array.map g f.Ir.Func.blocks }

(* remove function [name], rewriting every call to it into a fall-through *)
let drop_func (p : Ir.Prog.t) name =
  let rewrite blk =
    match blk.Ir.Block.term with
    | Ir.Block.Call (g, cont) when g = name ->
      { blk with Ir.Block.term = Ir.Block.Jump cont }
    | _ -> blk
  in
  let funcs = Ir.Prog.Smap.remove name p.funcs in
  let funcs = Ir.Prog.Smap.map (fun f -> map_blocks f rewrite) funcs in
  prune_funcs { p with funcs }

(* collapse one block's terminator to an unconditional jump *)
let collapse_term (p : Ir.Prog.t) fname label term =
  let f = Ir.Prog.Smap.find fname p.funcs in
  let f =
    map_blocks f (fun blk ->
        if blk.Ir.Block.label = label then { blk with Ir.Block.term = term }
        else blk)
  in
  let f = Ir.Func.drop_unreachable f in
  prune_funcs { p with funcs = Ir.Prog.Smap.add fname f p.funcs }

let replace_insns (p : Ir.Prog.t) fname label insns =
  let f = Ir.Prog.Smap.find fname p.funcs in
  let f =
    map_blocks f (fun blk ->
        if blk.Ir.Block.label = label then { blk with Ir.Block.insns = insns }
        else blk)
  in
  { p with funcs = Ir.Prog.Smap.add fname f p.funcs }

let shrink_candidates (p : Ir.Prog.t) =
  let out = ref [] in
  let add c = out := c :: !out in
  (* dropped instruction runs (least aggressive; consed first so they end up
     last after the final reversal) *)
  Ir.Prog.Smap.iter
    (fun fname f ->
      Array.iter
        (fun blk ->
          let insns = blk.Ir.Block.insns in
          let n = Array.length insns in
          let label = blk.Ir.Block.label in
          if n >= 1 && n <= 6 then
            for i = n - 1 downto 0 do
              add
                (replace_insns p fname label
                   (Array.append (Array.sub insns 0 i)
                      (Array.sub insns (i + 1) (n - i - 1))))
            done;
          if n >= 4 then begin
            add (replace_insns p fname label (Array.sub insns 0 (n / 2)));
            add
              (replace_insns p fname label
                 (Array.sub insns (n / 2) (n - (n / 2))))
          end;
          if n >= 1 then add (replace_insns p fname label [||]))
        f.Ir.Func.blocks)
    p.funcs;
  (* collapsed terminators *)
  Ir.Prog.Smap.iter
    (fun fname f ->
      Array.iter
        (fun blk ->
          let label = blk.Ir.Block.label in
          match blk.Ir.Block.term with
          | Ir.Block.Br (_, l1, l2) ->
            add (collapse_term p fname label (Ir.Block.Jump l2));
            if l1 <> l2 then
              add (collapse_term p fname label (Ir.Block.Jump l1))
          | Ir.Block.Switch (_, _, d) ->
            add (collapse_term p fname label (Ir.Block.Jump d))
          | Ir.Block.Call (_, cont) ->
            add (collapse_term p fname label (Ir.Block.Jump cont))
          | Ir.Block.Jump _ | Ir.Block.Ret | Ir.Block.Halt -> ())
        f.Ir.Func.blocks)
    p.funcs;
  (* dropped helper functions (most aggressive, tried first) *)
  Ir.Prog.Smap.iter
    (fun name _ -> if name <> p.main then add (drop_func p name))
    p.funcs;
  List.filter (fun c -> Ir.Prog.validate c = Ok ()) !out
