(* The list-based CFG definitions the visitors and tables replaced, kept
   as models: block successors and function predecessors as lists, the
   DFS numbering, dominators and natural loops each derived from a
   function on its own, and codependent sets as label lists.  test_ir and
   test_analysis compare Ir.Block.iter_succs, Ir.Func's tables,
   Analysis.Dfs/Dom/Loops and Analysis.Reach with them. *)

let successors (b : Ir.Block.t) =
  match b.Ir.Block.term with
  | Ir.Block.Jump l -> [ l ]
  | Ir.Block.Br (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Ir.Block.Switch (_, targets, default) ->
    List.sort_uniq compare (default :: Array.to_list targets)
  | Ir.Block.Call (_, cont) -> [ cont ]
  | Ir.Block.Ret | Ir.Block.Halt -> []

let func_successors f l = successors (Ir.Func.block f l)

let predecessors f =
  let preds = Array.make (Ir.Func.num_blocks f) [] in
  Array.iter
    (fun b ->
      List.iter
        (fun s -> preds.(s) <- b.Ir.Block.label :: preds.(s))
        (successors b))
    f.Ir.Func.blocks;
  Array.map List.rev preds

module Dfs = struct
  type t = { pre : int array; post : int array; rpo : int array }

  let compute f =
    let n = Ir.Func.num_blocks f in
    let pre = Array.make n (-1) in
    let post = Array.make n (-1) in
    let pre_counter = ref 0 in
    let post_counter = ref 0 in
    let post_order = ref [] in
    let rec visit l =
      if pre.(l) = -1 then begin
        pre.(l) <- !pre_counter;
        incr pre_counter;
        List.iter visit (func_successors f l);
        post.(l) <- !post_counter;
        incr post_counter;
        post_order := l :: !post_order
      end
    in
    visit Ir.Func.entry;
    { pre; post; rpo = Array.of_list !post_order }
end

module Dom = struct
  let compute f =
    let n = Ir.Func.num_blocks f in
    let dfs = Dfs.compute f in
    let preds = predecessors f in
    let idom = Array.make n (-1) in
    idom.(Ir.Func.entry) <- Ir.Func.entry;
    let rec intersect a b =
      if a = b then a
      else if dfs.Dfs.post.(a) < dfs.Dfs.post.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun l ->
          if l <> Ir.Func.entry then begin
            let processed = List.filter (fun p -> idom.(p) <> -1) preds.(l) in
            match processed with
            | [] -> ()
            | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(l) <> new_idom then begin
                idom.(l) <- new_idom;
                changed := true
              end
          end)
        dfs.Dfs.rpo
    done;
    idom

  let dominates idom a b =
    let rec climb x =
      if x = a then true
      else if idom.(x) = x || idom.(x) = -1 then false
      else climb idom.(x)
    in
    if idom.(b) = -1 then false else climb b
end

module Loops = struct
  module Imap = Map.Make (Int)

  type loop = {
    header : int;
    blocks : int list;
    latches : int list;
    static_size : int;
  }

  type t = {
    loops : loop list;
    is_header : bool array;
    is_latch : bool array;
    innermost : int array;
  }

  let natural_loop preds ~header ~latch =
    let in_loop = Hashtbl.create 16 in
    Hashtbl.replace in_loop header ();
    let rec add l =
      if not (Hashtbl.mem in_loop l) then begin
        Hashtbl.replace in_loop l ();
        List.iter add preds.(l)
      end
    in
    add latch;
    List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) in_loop [])

  let compute f =
    let n = Ir.Func.num_blocks f in
    let idom = Dom.compute f in
    let preds = predecessors f in
    let back_edges = ref [] in
    for l = 0 to n - 1 do
      List.iter
        (fun s ->
          if Dom.dominates idom s l then back_edges := (l, s) :: !back_edges)
        (func_successors f l)
    done;
    let by_header =
      List.fold_left
        (fun m (latch, header) ->
          let latches = try Imap.find header m with Not_found -> [] in
          Imap.add header (latch :: latches) m)
        Imap.empty !back_edges
    in
    let loops =
      Imap.fold
        (fun header latches acc ->
          let blocks =
            List.fold_left
              (fun bs latch ->
                List.sort_uniq compare (bs @ natural_loop preds ~header ~latch))
              [] latches
          in
          let static_size =
            List.fold_left
              (fun acc l -> acc + Ir.Block.size (Ir.Func.block f l))
              0 blocks
          in
          { header; blocks; latches; static_size } :: acc)
        by_header []
    in
    let loops =
      List.sort
        (fun a b -> compare (List.length b.blocks) (List.length a.blocks))
        loops
    in
    let is_header = Array.make n false in
    let is_latch = Array.make n false in
    let innermost = Array.make n (-1) in
    List.iteri
      (fun i lo ->
        is_header.(lo.header) <- true;
        List.iter (fun l -> is_latch.(l) <- true) lo.latches;
        List.iter (fun l -> innermost.(l) <- i) lo.blocks)
      loops;
    { loops; is_header; is_latch; innermost }
end

let codependent_set f ~producer ~consumer =
  let n = Ir.Func.num_blocks f in
  let walk next start =
    let seen = Array.make n false in
    let rec visit l =
      if not seen.(l) then begin
        seen.(l) <- true;
        List.iter visit (next l)
      end
    in
    visit start;
    seen
  in
  let fwd = walk (func_successors f) producer in
  if not fwd.(consumer) then []
  else begin
    let preds = predecessors f in
    let bwd = walk (fun l -> preds.(l)) consumer in
    List.filter (fun l -> fwd.(l) && bwd.(l)) (List.init n Fun.id)
  end

(* --- functions the models are checked on ------------------------------------ *)

let blk label term = { Ir.Block.label; insns = [| Ir.Insn.Nop |]; term }
let func name terms = { Ir.Func.name; blocks = Array.mapi blk terms }

(* Hand-built shapes: a switch naming labels repeatedly with its default
   among them, a 1,024-label switch, a branch with equal arms, self-loops,
   a loop with two latches, irreducible loops, and unreachable blocks, one
   of them a predecessor inside a loop. *)
let shapes () =
  let c = Ir.Reg.tmp 0 in
  let open Ir.Block in
  let wide =
    (* labels 1..1024 in a scrambled order, each named twice; every target
       returns or falls to the join 1025 *)
    let targets = Array.init 2048 (fun i -> 1 + ((i * 389) mod 1024)) in
    Array.init 1026 (fun l ->
        if l = 0 then Switch (c, targets, 1024)
        else if l = 1025 then Ret
        else if l mod 3 = 0 then Ret
        else Jump 1025)
  in
  [
    func "switch-repeats"
      [| Switch (c, [| 3; 1; 3; 2; 1 |], 2); Jump 4; Jump 4; Jump 1; Ret |];
    func "switch-1024" wide;
    func "br-equal-arms" [| Br (c, 1, 1); Br (c, 2, 2); Ret |];
    func "self-loops" [| Jump 1; Br (c, 1, 2); Br (c, 3, 2); Jump 3 |];
    func "two-latches" [| Jump 1; Br (c, 3, 2); Br (c, 1, 4); Jump 1; Ret |];
    func "irreducible"
      [| Br (c, 1, 2); Br (c, 2, 3); Br (c, 1, 3); Switch (c, [| 0 |], 4); Ret |];
    func "unreachable"
      [| Jump 1; Br (c, 2, 4); Jump 1; Jump 2; Ret; Jump 5; Br (c, 3, 0) |];
    func "calls" [| Call ("g", 1); Br (c, 0, 2); Call ("g", 2); Halt |];
  ]

(* Random CFGs over 1..12 blocks: any terminator with any labels, so
   irreducible loops, self-loops, unreachable blocks and repeated switch
   labels all occur. *)
let gen_func : Ir.Func.t QCheck.Gen.t =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    let label = int_bound (n - 1) in
    let c = Ir.Reg.tmp 0 in
    let term =
      frequency
        [
          (3, map (fun l -> Ir.Block.Jump l) label);
          (4, map2 (fun a b -> Ir.Block.Br (c, a, b)) label label);
          ( 2,
            map2
              (fun ts d -> Ir.Block.Switch (c, Array.of_list ts, d))
              (list_size (int_range 0 6) label)
              label );
          (1, map (fun l -> Ir.Block.Call ("g", l)) label);
          (1, return Ir.Block.Ret);
          (1, return Ir.Block.Halt);
        ]
    in
    map (fun terms -> func "random" (Array.of_list terms)) (list_repeat n term))

let arbitrary_func =
  QCheck.make gen_func ~print:(fun f -> Format.asprintf "%a" Ir.Func.pp f)

(* A program as the levels compile it: as built, hoisted (bb, cf, dd) and
   unrolled then hoisted (ts, fb). *)
let compiled prog =
  [
    prog;
    Core.Transform.hoist_program prog;
    Core.Transform.hoist_program
      (Core.Transform.unroll_program Core.Heuristics.default prog);
  ]

(* Every function of the 18 workloads and the seed-42 fuzz corpus at
   every level's compilation, then the hand-built shapes, each with a
   name for messages. *)
let corpus_funcs =
  lazy
    (List.concat_map
       (fun (_, name, build) ->
         List.concat_map
           (fun (p : Ir.Prog.t) ->
             List.map
               (fun (fname, f) -> (name ^ "/" ^ fname, f))
               (Ir.Prog.Smap.bindings p.Ir.Prog.funcs))
           (compiled (build ())))
       (Corpus.programs ())
    @ List.map (fun (f : Ir.Func.t) -> (f.Ir.Func.name, f)) (shapes ()))
