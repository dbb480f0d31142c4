(* Static address analysis for memory dependences (see memdep.mli for the
   soundness argument).  Values are strided intervals.  Two cooperating
   layers: a flow-insensitive whole-program fixpoint that joins over every
   definition in every function (registers are architecturally global), and
   a flow-sensitive refinement on top of it — the {!Absint} worklist engine
   instantiated with per-register strided intervals and a partitioned
   abstract memory — whose per-site regions are clamped to the
   flow-insensitive ones ([leq]-tested per site), so the old result remains
   a mandatory refinement bound.

   Intervals are immutable; register files are not.  The engine's states
   are register files updated in place, block transfers and edge
   refinements write into buffers they are handed, and every replay after
   a solve runs in one scratch file.  [mk], the one normaliser, returns
   the value it is handed to reuse when the result equals it, so a join or
   widening that leaves a register unchanged allocates nothing: what a
   solve allocates is the fresh interval each executed definition
   produces. *)

(* --- strided intervals ---------------------------------------------------- *)

(* { x | lo <= x <= hi, x = lo (mod stride) }.  [min_int]/[max_int] are the
   -inf/+inf sentinels.  Invariants kept by [mk]: lo <= hi; stride = 0 only
   for finite singletons; stride = 1 whenever lo = -inf; for finite bounds
   and stride > 0, hi = lo (mod stride). *)
type value = Bot | Iv of { lo : int; hi : int; stride : int }

let neg_inf = min_int
let pos_inf = max_int
let is_fin x = x > neg_inf && x < pos_inf

let bot = Bot
let top = Iv { lo = neg_inf; hi = pos_inf; stride = 1 }

let rec gcd_ a b = if b = 0 then a else gcd_ b (a mod b)
let gcd a b = gcd_ (abs a) (abs b)

(* x = y (mod s), s > 0, computed without ever subtracting the raw values:
   x - y overflows for operands near opposite rails, and [abs min_int] is
   itself negative, so both remainders are first normalised into [0, s). *)
let congruent x y s =
  let r v =
    let m = v mod s in
    if m < 0 then m + s else m
  in
  r x = r y

(* The one interval normaliser.  [reuse] is returned itself when the
   normalised result equals it, so an operation whose result is one of its
   operands allocates nothing; callers with nothing to reuse pass [Bot]. *)
let iv reuse lo hi stride =
  match reuse with
  | Iv r when r.lo = lo && r.hi = hi && r.stride = stride -> reuse
  | Bot | Iv _ -> Iv { lo; hi; stride }

let mk reuse lo hi stride =
  if lo > hi then Bot
  else if lo = pos_inf || hi = neg_inf then top (* saturated past the rails *)
  else if lo = hi then if is_fin lo then iv reuse lo hi 0 else top
  else
    let stride = if (not (is_fin lo)) || stride <= 0 then 1 else stride in
    (* snap hi down onto the grid anchored at lo.  The obvious
       [lo + (hi - lo) / stride * stride] wraps when the span exceeds
       max_int (lo deep negative, hi large positive), so the offset is
       taken mod stride rail-safely instead; if the subtraction itself
       would wrap, the largest grid point <= hi is below every
       representable value >= lo, hence lo itself. *)
    let hi =
      if is_fin lo && is_fin hi && stride > 1 then begin
        let m =
          let d = (hi mod stride) - (lo mod stride) in
          let d = d mod stride in
          if d < 0 then d + stride else d
        in
        let s = hi - m in
        if s >= lo && s <= hi then s else lo
      end
      else hi
    in
    if lo = hi then iv reuse lo hi 0 else iv reuse lo hi stride

let singleton n = mk Bot n n 0
let range ?(stride = 1) lo hi = mk Bot lo hi stride

let is_bot v = v = Bot
let is_top v = v = top

let equal a b =
  a == b
  ||
  match (a, b) with
  | Iv x, Iv y -> x.lo = y.lo && x.hi = y.hi && x.stride = y.stride
  | Bot, Bot -> true
  | Bot, Iv _ | Iv _, Bot -> false

(* Saturating arithmetic.  Callers only feed lo-bounds (never +inf) to the
   lo slot and hi-bounds (never -inf) to the hi slot, so the infinity
   absorption below is unambiguous. *)
let sadd a b =
  if a = neg_inf || b = neg_inf then neg_inf
  else if a = pos_inf || b = pos_inf then pos_inf
  else
    let s = a + b in
    if a > 0 && b > 0 && s <= 0 then pos_inf
    else if a < 0 && b < 0 && s >= 0 then neg_inf
    else s

let sneg x = if x = neg_inf then pos_inf else if x = pos_inf then neg_inf else -x

let smul a b =
  if a = 0 || b = 0 then 0
  else
    let inf_sign pos = if pos then pos_inf else neg_inf in
    if a = neg_inf || a = pos_inf || b = neg_inf || b = pos_inf then
      inf_sign (a > 0 = (b > 0))
    else
      let p = a * b in
      if p / b <> a then inf_sign (a > 0 = (b > 0)) else p

(* The machine wraps; intervals do not.  Whenever an operation on finite
   bounds would exceed the native range we fall to [top] ("poison") instead
   of silently saturating, so wrapped runtime values stay covered.  Already
   unbounded operands are only ever combined additively (per-step growth is
   bounded, and the interpreter's 30M-step budget keeps small-constant
   chains far from the rails); multiplicative ops on unbounded operands go
   straight to [top]. *)

let join a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Iv x, Iv y ->
    let lo = min x.lo y.lo and hi = max x.hi y.hi in
    let stride =
      if not (is_fin x.lo && is_fin y.lo) then 1
      else
        let g = gcd x.stride y.stride in
        if g = 0 then begin
          (* two singletons: the joint stride is the anchor distance when
             it is representable; a wrapped subtraction flips the sign of
             the mathematical difference, which has the sign of
             x.lo - y.lo, i.e. of (x.lo >= y.lo) *)
          let d = x.lo - y.lo in
          if d >= 0 = (x.lo >= y.lo) then abs d else 1
        end
        else
          (* gcd(g, x.lo - y.lo) = gcd(g, (x.lo - y.lo) mod g); take the
             offset mod g rail-safely instead of subtracting raw anchors *)
          let r =
            let m = ((x.lo mod g) - (y.lo mod g)) mod g in
            if m < 0 then m + g else m
          in
          gcd g r
    in
    (* offer [a] when its bounds are the result's (it is the result
       unless the stride shrank), [b] otherwise *)
    mk (if x.lo = lo && x.hi = hi then a else b) lo hi stride

let vadd a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv x, Iv y ->
    let lo = sadd x.lo y.lo and hi = sadd x.hi y.hi in
    let overflowed =
      (is_fin x.lo && is_fin y.lo && not (is_fin lo))
      || (is_fin x.hi && is_fin y.hi && not (is_fin hi))
    in
    if overflowed then top
    else
      let stride =
        if is_fin x.lo && is_fin y.lo then gcd x.stride y.stride else 1
      in
      mk Bot lo hi stride

let vadd_const v c = vadd v (singleton c)

let vneg = function
  | Bot -> Bot
  | Iv v -> mk Bot (sneg v.hi) (sneg v.lo) v.stride

let vsub a b = vadd a (vneg b)

let vmul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv x, Iv y ->
    if not (is_fin x.lo && is_fin x.hi && is_fin y.lo && is_fin y.hi) then top
    else
      let cs = [ smul x.lo y.lo; smul x.lo y.hi; smul x.hi y.lo; smul x.hi y.hi ] in
      if List.exists (fun c -> not (is_fin c)) cs then top
      else
        let lo = List.fold_left min pos_inf cs
        and hi = List.fold_left max neg_inf cs in
        let stride =
          if x.stride = 0 then smul (abs x.lo) y.stride
          else if y.stride = 0 then smul (abs y.lo) x.stride
          else 1
        in
        let stride = if is_fin stride then stride else 1 in
        mk Bot lo hi stride

let vcmp = mk Bot 0 1 1

let may_intersect a b =
  match (a, b) with
  | Bot, _ | _, Bot -> false
  | Iv a, Iv b ->
    if a.lo > b.hi || b.lo > a.hi then false
    else if not (is_fin a.lo && is_fin b.lo) then true
    else
      let g = gcd a.stride b.stride in
      if g = 0 then a.lo = b.lo
      else if g = 1 then true
      else congruent a.lo b.lo g

(* Subset test: bound containment plus stride-congruence (the coarser
   stride must divide the finer one and the anchors must agree mod it).
   Both [b.stride > 1] and [a]'s non-emptiness force the anchors finite, so
   [congruent] is the only arithmetic needed.  Conservative [false] never
   costs soundness, only refinement. *)
let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv a, Iv b ->
    a.lo >= b.lo && a.hi <= b.hi
    && (b.stride <= 1
       || ((a.stride = 0 || a.stride mod b.stride = 0)
          && congruent a.lo b.lo b.stride))

(* Membership of a concrete machine word.  [x] between unbounded rails is
   fine: the sentinels themselves are representable words, and an interval
   whose bound *is* the rail contains it by the interval reading. *)
let contains v x =
  match v with
  | Bot -> false
  | Iv v ->
    x >= v.lo && x <= v.hi && (v.stride <= 1 || congruent x v.lo v.stride)

(* Sound intersection with a plain bound interval [lo, hi]: bounds are
   tightened and the lower one snapped UP onto the value's own stride grid
   (snapping down would claim congruence to an anchor not in the set).
   Every element of [v] within the bounds survives, so this is a safe
   filter for branch-condition refinement. *)
let clamp v lo hi =
  match v with
  | Bot -> Bot
  | Iv x ->
    let lo' = max x.lo lo and hi' = min x.hi hi in
    if lo' > hi' then Bot
    else if lo' = x.lo && hi' = x.hi then v
    else if x.stride <= 1 then mk Bot lo' hi' x.stride
    else if lo' = x.lo then mk Bot lo' hi' x.stride
    else begin
      (* stride > 1 forces x.lo finite, hence lo' finite too *)
      let s = x.stride in
      let m =
        let d = ((lo' mod s) - (x.lo mod s)) mod s in
        if d < 0 then d + s else d
      in
      let up = if m = 0 then 0 else s - m in
      let lo'' = lo' + up in
      if lo'' < lo' || lo'' > hi' then Bot else mk Bot lo'' hi' s
    end

(* Cardinality when finite and representable; [None] for unbounded regions
   or spans so wide the point count itself overflows. *)
let width = function
  | Bot -> Some 0
  | Iv v ->
    if not (is_fin v.lo && is_fin v.hi) then None
    else if v.stride = 0 then Some 1
    else
      let span = v.hi - v.lo in
      let steps = span / max 1 v.stride in
      (* wrapped span, or a count of max_int + 1 points *)
      if span < 0 || steps = max_int then None else Some (steps + 1)

let pp_bound ppf x =
  if x = neg_inf then Format.pp_print_string ppf "-inf"
  else if x = pos_inf then Format.pp_print_string ppf "+inf"
  else Format.pp_print_int ppf x

let pp_value ppf = function
  | Bot -> Format.pp_print_string ppf "empty"
  | Iv v ->
    if v.lo = neg_inf && v.hi = pos_inf then Format.pp_print_string ppf "any"
    else if v.lo = v.hi then Format.fprintf ppf "{%d}" v.lo
    else begin
      Format.fprintf ppf "[%a..%a]" pp_bound v.lo pp_bound v.hi;
      if v.stride > 1 then Format.fprintf ppf "/%d" v.stride
    end

let value_to_string v = Format.asprintf "%a" pp_value v

(* --- whole-program fixpoint ----------------------------------------------- *)

type site = {
  blk : Ir.Block.label;
  idx : int;
  store : bool;
  region : value;
}

type ai_stats = {
  updates : int;
  widenings : int;
  narrowed : int;
  outer_rounds : int;
  saturated_cells : int;
}

type t = {
  prog : Ir.Prog.t;
  rounds : int;
  fi_site_tbl : site list Ir.Prog.Smap.t;
  site_tbl : site list Ir.Prog.Smap.t;
  partition : value array;
  ai : ai_stats;
}

(* Widening after the first few rounds: any bound still growing jumps to
   infinity.  Strides only ever shrink (each join takes a gcd including the
   previous stride), so termination follows from the divisor chain. *)
let widen old j =
  match (old, j) with
  | Bot, v | v, Bot -> v
  | Iv o, Iv n ->
    let lo = if n.lo < o.lo then neg_inf else n.lo in
    let hi = if n.hi > o.hi then pos_inf else n.hi in
    mk j lo hi n.stride

let eval_op regs = function
  | Ir.Insn.Reg r -> regs.(r)
  | Ir.Insn.Imm k -> singleton k

(* Abstract result of a [Bin] — shared by the global fixpoint and the
   flow-sensitive transfer, which differ only in how the result is written
   back (join vs strong update). *)
let bin_value regs op s o =
  let a = regs.(s) and b = eval_op regs o in
  match op with
  | Ir.Insn.Add -> vadd a b
  | Ir.Insn.Sub -> vsub a b
  | Ir.Insn.Mul -> vmul a b
  | Ir.Insn.Div | Ir.Insn.Rem -> top
  | Ir.Insn.Shl -> (
    match o with
    | Ir.Insn.Imm k ->
      let k = min 62 (max 0 k) in
      vmul a (singleton (1 lsl k))
    | Ir.Insn.Reg _ -> ( match a with Bot -> Bot | _ -> top))
  | Ir.Insn.Shr -> ( match a with Bot -> Bot | _ -> top)
  | Ir.Insn.And -> (
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv x, Iv m
      when m.stride = 0 && m.lo >= 0
           && m.lo land (m.lo + 1) = 0
           && x.lo >= 0
           && is_fin x.hi && x.hi <= m.lo ->
      (* x land (2^k - 1) = x: the generator's bounded-index mask *)
      a
    | Iv x, Iv y ->
      if x.lo >= 0 && y.lo >= 0 then mk Bot 0 (min x.hi y.hi) 1 else top)
  | Ir.Insn.Or | Ir.Insn.Xor -> (
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv x, Iv y ->
      (* for non-negatives, (x lor y) <= x + y and xor <= or *)
      if x.lo >= 0 && y.lo >= 0 then mk Bot 0 (sadd x.hi y.hi) 1 else top)
  | Ir.Insn.Lt | Ir.Insn.Le | Ir.Insn.Eq | Ir.Insn.Ne | Ir.Insn.Gt
  | Ir.Insn.Ge ->
    vcmp

(* --- flow-sensitive refinement (Absint instantiation) --------------------- *)

(* Register-file states, as the engine's mutable buffers: a reachability
   flag (unreachable is the bottom state; its registers are then
   meaningless) and one strided interval per register, updated in place.
   Joins and widenings go through [mk]'s reuse, so a register whose value
   does not change keeps its interval and costs no allocation.  [assign]
   copies the registers of an unreachable state too: the engine resets
   its buffers to bottom for every round, and a reset buffer that kept
   its registers would keep the last round's intervals alive. *)
module Rstate = struct
  type t = { mutable reach : bool; regs : value array }

  let create () = { reach = false; regs = Array.make Ir.Reg.count Bot }
  let is_bot s = not s.reach

  let assign dst src =
    dst.reach <- src.reach;
    Array.blit src.regs 0 dst.regs 0 Ir.Reg.count

  (* [p] holds register by register *)
  let for_all2 p a b =
    let i = ref 0 in
    while !i < Ir.Reg.count && p a.(!i) b.(!i) do
      incr i
    done;
    !i = Ir.Reg.count

  let equal a b =
    a.reach = b.reach && ((not a.reach) || for_all2 equal a.regs b.regs)

  (* [dst.(i) <- f dst.(i) src.(i)], skipping the write of a value [f]
     returned unchanged *)
  let update f dst src =
    for i = 0 to Ir.Reg.count - 1 do
      let d = dst.(i) in
      let v = f d src.(i) in
      if v != d then dst.(i) <- v
    done

  let join_into dst src =
    if src.reach then
      if not dst.reach then assign dst src else update join dst.regs src.regs

  let widen_into ~old dst =
    if old.reach then
      if not dst.reach then assign dst old
      else update (fun n o -> widen o n) dst.regs old.regs

  let leq a b = (not a.reach) || (b.reach && for_all2 leq a.regs b.regs)
end

module Engine = Absint.Make (Rstate)

(* Partitioned abstract memory: one cell per disjoint static region, the
   regions jointly covering all of Z so any address lands somewhere.
   Data-segment boundaries come from address literals ([Li] constants used
   as array bases / object starts) and from the starts of initialised runs
   in [mem_init]; the stack is split at the loader's [sp] (frames live
   below it, the untouched tail above).  The cell count is capped — with
   deterministic thinning — so pathological literal sets cannot blow up the
   per-access intersection scans. *)
let max_data_cells = 64

let build_partition ~sp (prog : Ir.Prog.t) =
  let mt = prog.Ir.Prog.mem_top in
  let bounds = Hashtbl.create 64 in
  let add_bound a = if a > 0 && a < mt then Hashtbl.replace bounds a () in
  Ir.Prog.Smap.iter
    (fun _ (f : Ir.Func.t) ->
      Array.iter
        (fun (b : Ir.Block.t) ->
          Array.iter
            (function Ir.Insn.Li (_, n) -> add_bound n | _ -> ())
            b.Ir.Block.insns)
        f.Ir.Func.blocks)
    prog.Ir.Prog.funcs;
  (* starts of initialised runs: a cell whose predecessor is uninitialised
     begins a distinct static object.  By base, a run starts one when no
     earlier run reaches its base. *)
  ignore
    (List.fold_left
       (fun reach (base, stop) ->
         if reach < base then add_bound base;
         max reach stop)
       min_int
       (List.sort compare
          (List.map
             (fun (base, cells) -> (base, base + Ir.Prog.length cells))
             prog.Ir.Prog.mem_init)));
  let cuts = List.sort compare (Hashtbl.fold (fun a () l -> a :: l) bounds []) in
  let cuts =
    let n = List.length cuts in
    if n <= max_data_cells - 1 then cuts
    else
      (* keep every k-th boundary so at most the cap survives *)
      let k = (n + max_data_cells - 2) / (max_data_cells - 1) in
      List.filteri (fun i _ -> i mod k = 0) cuts
  in
  let cells = ref [] in
  let push lo hi = if lo <= hi then cells := range lo hi :: !cells in
  push neg_inf (-1);
  if mt > 0 then begin
    let rec segs lo = function
      | [] -> push lo (mt - 1)
      | c :: rest ->
        push lo (c - 1);
        segs c rest
    in
    segs 0 cuts
  end;
  let stack_lo = max mt 0 in
  if sp > stack_lo then begin
    push stack_lo (sp - 1);
    push sp pos_inf
  end
  else push stack_lo pos_inf;
  Array.of_list (List.rev !cells)

(* A load joins every cell its address region may touch.  The partition
   covers Z, so a non-empty region always hits at least one cell. *)
let read_cells cells partition region =
  if is_bot region then Bot
  else begin
    let acc = ref Bot in
    for i = 0 to Array.length partition - 1 do
      if may_intersect partition.(i) region then acc := join !acc cells.(i)
    done;
    !acc
  end

(* a write to the zero register is discarded, as the machine discards it *)
let set local d v = if d <> Ir.Reg.zero then local.(d) <- v

(* One block of abstract execution with strong updates, in place on the
   register file [local]: the flow-sensitive counterpart of the fi
   fixpoint's [step_insn].  [on_site], when given, observes each memory
   access's address region (and, for stores, the stored value) at the
   program point, for site extraction and cell accumulation. *)
let exec_block cells partition ?on_site (b : Ir.Block.t) local =
  let insns = b.Ir.Block.insns in
  for idx = 0 to Array.length insns - 1 do
    (* the address operand is read before the insn's def *)
    match insns.(idx) with
    | Ir.Insn.Nop -> ()
    | Ir.Insn.Store (s, base, disp) -> (
      match on_site with
      | None -> ()
      | Some on_site ->
        on_site ~idx ~store:true ~region:(vadd_const local.(base) disp)
          ~stored:local.(s))
    | Ir.Insn.Load (d, base, disp) ->
      let region = vadd_const local.(base) disp in
      (match on_site with
      | None -> ()
      | Some on_site -> on_site ~idx ~store:false ~region ~stored:Bot);
      set local d (read_cells cells partition region)
    | Ir.Insn.Li (d, n) -> set local d (singleton n)
    | Ir.Insn.Lf (d, _) -> set local d top
    | Ir.Insn.Mov (d, s) -> set local d local.(s)
    (* a cmov may keep the old value: join, not replace *)
    | Ir.Insn.Cmov (d, _, s) -> set local d (join local.(d) local.(s))
    | Ir.Insn.Bin (op, d, s, o) -> set local d (bin_value local op s o)
    | Ir.Insn.Fbin (_, d, _, _) | Ir.Insn.Fun (_, d, _) -> set local d top
    | Ir.Insn.Fcmp (_, d, _, _) -> set local d vcmp
  done

(* --- branch-condition refinement ------------------------------------------ *)

(* [apply_cmp op taken v bound]: the values of a register [j] that can
   satisfy (resp. falsify, for [taken = false]) the comparison
   [j op n] for SOME [n] in [bound] — the weakest condition over the
   abstract operand, so every concrete state taking the edge survives.
   Only interval bounds are usable: equality keeps both, disequality and
   the untestable half keep everything (holes are not expressible). *)
let apply_cmp op taken v bound =
  match bound with
  | Bot -> v
  | Iv b -> (
    match (op, taken) with
    | Ir.Insn.Lt, true -> clamp v neg_inf (sadd b.hi (-1))
    | Ir.Insn.Lt, false -> clamp v b.lo pos_inf
    | Ir.Insn.Le, true -> clamp v neg_inf b.hi
    | Ir.Insn.Le, false -> clamp v (sadd b.lo 1) pos_inf
    | Ir.Insn.Gt, true -> clamp v (sadd b.lo 1) pos_inf
    | Ir.Insn.Gt, false -> clamp v neg_inf b.hi
    | Ir.Insn.Ge, true -> clamp v b.lo pos_inf
    | Ir.Insn.Ge, false -> clamp v neg_inf (sadd b.hi (-1))
    | Ir.Insn.Eq, true | Ir.Insn.Ne, false -> clamp v b.lo b.hi
    | Ir.Insn.Eq, false | Ir.Insn.Ne, true -> v
    | _ -> v)

(* Index of the last instruction that writes [r], by a backward scan; -1
   when none does. *)
let last_def (insns : Ir.Insn.t array) r =
  let i = ref (Array.length insns - 1) in
  while !i >= 0 && Ir.Insn.def insns.(!i) <> r do
    decr i
  done;
  !i

(* Filter a block's out-state along one CFG edge using the terminator's
   condition — the {!Absint} path-sensitivity hook.  Three refinements,
   each grounded in what the machine tests at the terminator (always the
   registers' block-EXIT values, which is exactly what the out-state
   holds):

   - the condition register itself: zero on the fall-through edge,
     non-zero (one-sided, when expressible) on the taken edge;
   - the compared register, when the condition's last in-block definition
     is a comparison and neither it nor the operand is redefined
     afterwards — this is what bounds induction variables at loop exits
     ([i < n] guards the body, so [i] is finite inside);
   - a [Switch] index on a non-default edge: within the matching targets.

   An edge whose refined state has an empty register is statically
   untaken: the hook leaves its destination unreachable and the engine
   never propagates it.  The hook writes only into [dst]; last definitions
   come from backward scans of the block. *)
let refine_edge _fname (b : Ir.Block.t) target ~src ~dst =
  Rstate.assign dst src;
  if src.Rstate.reach then begin
    let regs = src.Rstate.regs and out = dst.Rstate.regs in
    match b.Ir.Block.term with
    | Ir.Block.Br (c, t, e) when t <> e && (target = t || target = e) ->
      let taken = target = t in
      let cv = regs.(c) in
      let cv' =
        if not taken then clamp cv 0 0
        else
          match cv with
          | Iv x when x.lo >= 0 -> clamp cv 1 pos_inf
          | Iv x when x.hi <= 0 -> clamp cv neg_inf (-1)
          | v -> v
      in
      if is_bot cv' then dst.Rstate.reach <- false
      else begin
        set out c cv';
        let insns = b.Ir.Block.insns in
        let lc = last_def insns c in
        if lc >= 0 then
          match insns.(lc) with
          | Ir.Insn.Bin
              ( (( Ir.Insn.Lt | Ir.Insn.Le | Ir.Insn.Eq | Ir.Insn.Ne
                 | Ir.Insn.Gt | Ir.Insn.Ge ) as op),
                c',
                j,
                o )
            when c' = c && j <> c && last_def insns j < lc ->
            (* [Bot] stands for "no usable bound": [apply_cmp] then
               returns [regs.(j)] itself, which [out] already holds *)
            let bound =
              match o with
              | Ir.Insn.Imm k -> singleton k
              | Ir.Insn.Reg m ->
                (* [regs.(m)] is the block-exit value; it only speaks for
                   the operand at the compare if [m] is not redefined at
                   or after it ([m = c] hits the "at" case: the compare
                   overwrites its own operand with the 0/1 result). *)
                if m = Ir.Reg.zero then singleton 0
                else if last_def insns m >= lc then Bot
                else regs.(m)
            in
            let jv = apply_cmp op taken regs.(j) bound in
            if is_bot jv && not (is_bot regs.(j)) then dst.Rstate.reach <- false
            else set out j jv
          | _ -> ()
      end
    | Ir.Block.Switch (i, targets, d) when target <> d ->
      let lo = ref max_int and hi = ref min_int in
      for k = 0 to Array.length targets - 1 do
        if targets.(k) = target then begin
          if k < !lo then lo := k;
          if k > !hi then hi := k
        end
      done;
      if !lo <= !hi then begin
        let iv = clamp regs.(i) !lo !hi in
        if is_bot iv then dst.Rstate.reach <- false else set out i iv
      end
    | _ -> ()
  end

(* the loader's zero joined with each initial cell [keep] selects, in
   program order; a float cell is top *)
let init_join (prog : Ir.Prog.t) keep =
  List.fold_left
    (fun acc (base, cells) ->
      let acc = ref acc in
      for j = 0 to Ir.Prog.length cells - 1 do
        if keep (base + j) then
          acc :=
            match cells with
            | Ir.Prog.Ints a -> join !acc (singleton a.(j))
            | Ir.Prog.Flts _ -> top
      done;
      !acc)
    (singleton 0) prog.Ir.Prog.mem_init

let analyze ~sp prog =
  let regs = Array.make Ir.Reg.count (singleton 0) in
  regs.(Ir.Reg.sp) <- singleton sp;
  let mem = ref (init_join prog (fun _ -> true)) in
  let round = ref 0 in
  let widen_from = 3 and max_rounds = 64 in
  let changed = ref true in
  let temper old j =
    let j = if !round > widen_from then widen old j else j in
    if !round >= max_rounds && not (equal j old) then top else j
  in
  let assign d v =
    if d <> Ir.Reg.zero then begin
      let old = regs.(d) in
      let j = temper old (join old v) in
      if not (equal j old) then begin
        regs.(d) <- j;
        changed := true
      end
    end
  in
  let set_mem v =
    let old = !mem in
    let j = temper old (join old v) in
    if not (equal j old) then begin
      mem := j;
      changed := true
    end
  in
  let step_insn = function
    | Ir.Insn.Nop -> ()
    | Ir.Insn.Li (d, n) -> assign d (singleton n)
    | Ir.Insn.Lf (d, _) -> assign d top
    | Ir.Insn.Mov (d, s) -> assign d regs.(s)
    | Ir.Insn.Cmov (d, _, s) -> assign d regs.(s)
    | Ir.Insn.Bin (op, d, s, o) -> assign d (bin_value regs op s o)
    | Ir.Insn.Fbin (_, d, _, _) -> assign d top
    | Ir.Insn.Fcmp (_, d, _, _) -> assign d vcmp
    | Ir.Insn.Fun (_, d, _) -> assign d top
    | Ir.Insn.Load (d, _, _) -> assign d !mem
    | Ir.Insn.Store (s, _, _) -> set_mem regs.(s)
  in
  while !changed do
    changed := false;
    incr round;
    Ir.Prog.Smap.iter
      (fun _ (f : Ir.Func.t) ->
        Array.iter
          (fun (b : Ir.Block.t) -> Array.iter step_insn b.Ir.Block.insns)
          f.Ir.Func.blocks)
      prog.Ir.Prog.funcs
  done;
  (* Flow-insensitive site regions with block-local sharpening: a block
     executes in order, so starting from the global env (which contains
     every value a register can hold at block entry) and applying the
     transfer function with STRONG updates insn by insn keeps each
     intermediate env a sound over-approximation of the runtime state at
     that program point — and recovers the exact literal for the
     ubiquitous "li addr; access" pattern, which the flow-insensitive env
     drowns in the loader's zero seed.  A single-cell memory stands in for
     the partition here: loads fall back to the global mem join. *)
  (* every replay of a block from a known entry state runs in this one
     register file *)
  let scratch = Array.make Ir.Reg.count Bot in
  let replay cells partition ~on_site b entry =
    Array.blit entry 0 scratch 0 Ir.Reg.count;
    exec_block cells partition ~on_site b scratch
  in
  (* every function's sites, each block replayed from [entry fname label];
     a block with no entry (unreachable) keeps the site skeleton, replayed
     from the flow-insensitive registers with every region emptied *)
  let site_table cells partition entry =
    Ir.Prog.Smap.mapi
      (fun fname (f : Ir.Func.t) ->
        let acc = ref [] in
        Array.iter
          (fun (b : Ir.Block.t) ->
            let e = entry fname b.Ir.Block.label in
            let on_site ~idx ~store ~region ~stored:_ =
              let region = if Option.is_some e then region else Bot in
              acc := { blk = b.Ir.Block.label; idx; store; region } :: !acc
            in
            replay cells partition ~on_site b (Option.value e ~default:regs))
          f.Ir.Func.blocks;
        List.rev !acc)
      prog.Ir.Prog.funcs
  in
  let fi_site_tbl =
    let always = Some regs in
    site_table [| !mem |] [| top |] (fun _ _ -> always)
  in
  (* Flow-sensitive pass: solve for block-entry register states against a
     frozen memory, then fold the stores those states imply back into the
     cells, and repeat until memory stabilises.  Termination: cells only
     grow under join; once the outer round budget is exhausted, any cell
     still moving is pinned ("saturated") to the flow-insensitive memory
     join — a sound over-approximation of everything storable — after
     which it rejects further growth, so at most one extra round per cell
     remains. *)
  let partition = build_partition ~sp prog in
  let ncells = Array.length partition in
  let cells = Array.init ncells (fun i -> init_join prog (contains partition.(i))) in
  let saturated = Array.make ncells false in
  (* the loader state, joined into main's entry by every solve *)
  let loader =
    let st = Rstate.create () in
    st.Rstate.reach <- true;
    Array.fill st.Rstate.regs 0 Ir.Reg.count (singleton 0);
    st.Rstate.regs.(Ir.Reg.sp) <- singleton sp;
    Some st
  in
  let seed fname =
    if String.equal fname prog.Ir.Prog.main then loader else None
  in
  let transfer _fname b ~src ~dst =
    Rstate.assign dst src;
    if dst.Rstate.reach then exec_block cells partition b dst.Rstate.regs
  in
  let max_outer = 8 in
  let outer = ref 0 in
  let next = Array.make ncells Bot in
  let on_site ~idx:_ ~store ~region ~stored =
    if store && not (is_bot region) then
      for i = 0 to ncells - 1 do
        if (not saturated.(i)) && may_intersect partition.(i) region then
          next.(i) <- join next.(i) stored
      done
  in
  (* after each solve: fold its stores into the cells, and ask for another
     round while any cell moved *)
  let again res =
    incr outer;
    Array.blit cells 0 next 0 ncells;
    Ir.Prog.Smap.iter
      (fun fname (f : Ir.Func.t) ->
        match Engine.func_states res fname with
        | None -> ()
        | Some states ->
          Array.iter
            (fun (b : Ir.Block.t) ->
              let entry = states.(b.Ir.Block.label) in
              (* an unreachable block has no stores to account for *)
              if entry.Rstate.reach then
                replay cells partition ~on_site b entry.Rstate.regs)
            f.Ir.Func.blocks)
      prog.Ir.Prog.funcs;
    let any = ref false in
    for i = 0 to ncells - 1 do
      if not (equal next.(i) cells.(i)) then begin
        any := true;
        if !outer < max_outer then cells.(i) <- next.(i)
        else begin
          cells.(i) <- join next.(i) !mem;
          saturated.(i) <- true
        end
      end
    done;
    !any
  in
  let res = Engine.solve ~seed ~transfer ~refine:refine_edge ~again prog in
  (* Refined site table: replay each block from its fixpoint entry state
     and clamp every region to the flow-insensitive one — the refinement
     bound holds by construction ([absint/refines] audits the plumbing),
     and soundness reduces to whichever of the two analyses produced the
     surviving region. *)
  let site_tbl =
    Ir.Prog.Smap.mapi
      (fun fname refined ->
        List.map2
          (fun r f ->
            if leq r.region f.region then r else { r with region = f.region })
          refined
          (Ir.Prog.Smap.find fname fi_site_tbl))
      (site_table cells partition (fun fname blk ->
           let st = Engine.entry_state res fname blk in
           if st.Rstate.reach then Some st.Rstate.regs else None))
  in
  let nsat = Array.fold_left (fun n s -> if s then n + 1 else n) 0 saturated in
  {
    prog;
    rounds = !round;
    fi_site_tbl;
    site_tbl;
    partition;
    ai =
      {
        updates = Engine.updates res;
        widenings = Engine.widenings res;
        narrowed = Engine.narrowed res;
        outer_rounds = !outer;
        saturated_cells = nsat;
      };
  }

let rounds t = t.rounds

let sites_of tbl fname =
  match Ir.Prog.Smap.find_opt fname tbl with Some l -> l | None -> []

let sites t fname = sites_of t.site_tbl fname
let fi_sites t fname = sites_of t.fi_site_tbl fname
let partition t = t.partition
let ai_stats t = t.ai

let classify t v =
  match v with
  | Bot -> `Any
  | Iv v ->
    let mt = t.prog.Ir.Prog.mem_top in
    if v.lo >= 0 && is_fin v.hi && v.hi < mt then `Data
    else if v.lo >= mt then `Stack
    else `Any
