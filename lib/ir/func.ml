type t = {
  name : string;
  blocks : Block.t array;
}

let entry = 0

let block f l = f.blocks.(l)
let num_blocks f = Array.length f.blocks

let successors f l = Block.successors f.blocks.(l)

type table = {
  first : int array;
  adj : Block.label array;
}

(* One row per block.  Each edge [b -> s] is counted into
   [first.(row + 1)], the counts are summed into starts, then each edge is
   placed at its row's cursor [first.(row)], which ends at the next row's
   start; shifting [first] up one slot restores the starts.  Sources are
   walked in ascending label order and each one's successors in
   {!Block.iter_succs} order, and every row lists its entries in the order
   the walk meets them. *)
let table f ~by_target =
  let n = num_blocks f in
  let first = Array.make (n + 1) 0 in
  let src = ref 0 in
  let row s = if by_target then s else !src in
  let count s =
    let r = row s + 1 in
    first.(r) <- first.(r) + 1
  in
  for b = 0 to n - 1 do
    src := b;
    Block.iter_succs count f.blocks.(b)
  done;
  for r = 1 to n do
    first.(r) <- first.(r) + first.(r - 1)
  done;
  let adj = Array.make first.(n) 0 in
  let place s =
    let r = row s in
    adj.(first.(r)) <- (if by_target then !src else s);
    first.(r) <- first.(r) + 1
  in
  for b = 0 to n - 1 do
    src := b;
    Block.iter_succs place f.blocks.(b)
  done;
  for r = n downto 1 do
    first.(r) <- first.(r - 1)
  done;
  first.(0) <- 0;
  { first; adj }

let pred_table f = table f ~by_target:true
let succ_table f = table f ~by_target:false

let predecessors f =
  let t = pred_table f in
  Array.init (num_blocks f) (fun l ->
      List.init (t.first.(l + 1) - t.first.(l)) (fun k ->
          t.adj.(t.first.(l) + k)))

let static_size f =
  Array.fold_left (fun acc b -> acc + Block.size b) 0 f.blocks

let callees f =
  let names =
    Array.fold_left
      (fun acc b ->
        match b.Block.term with
        | Block.Call (callee, _) -> callee :: acc
        | Block.Jump _ | Block.Br _ | Block.Switch _ | Block.Ret | Block.Halt
          -> acc)
      [] f.blocks
  in
  List.sort_uniq compare names

let drop_unreachable f =
  let n = num_blocks f in
  let reachable = Array.make n false in
  let rec visit l =
    if not reachable.(l) then begin
      reachable.(l) <- true;
      Block.iter_succs visit f.blocks.(l)
    end
  in
  if n > 0 then visit entry;
  let map = Array.make n (-1) in
  let next = ref 0 in
  for l = 0 to n - 1 do
    if reachable.(l) then begin
      map.(l) <- !next;
      incr next
    end
  done;
  let blocks =
    Array.of_list
      (List.filter_map
         (fun b ->
           if reachable.(b.Block.label) then
             Some
               {
                 Block.label = map.(b.Block.label);
                 insns = b.Block.insns;
                 term =
                   Block.map_term ~label:(Array.get map) ~cond:Fun.id
                     b.Block.term;
               }
           else None)
         (Array.to_list f.blocks))
  in
  { f with blocks }

let validate f =
  let n = num_blocks f in
  let ok = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  if n = 0 then fail "function %s has no blocks" f.name;
  Array.iteri
    (fun i b ->
      if b.Block.label <> i then
        fail "function %s: block at index %d has label %d" f.name i
          b.Block.label;
      Block.iter_succs
        (fun s ->
          if s < 0 || s >= n then
            fail "function %s: block %d targets out-of-range label %d" f.name i
              s)
        b;
      let check r =
        if not (Reg.is_valid r) then
          fail "function %s: block %d uses invalid register %d" f.name i r
      in
      Array.iter (Insn.iter_regs check) b.Block.insns;
      match b.Block.term with
      | Block.Br (c, _, _) | Block.Switch (c, _, _) -> check c
      | Block.Jump _ | Block.Call (_, _) | Block.Ret | Block.Halt -> ())
    f.blocks;
  !ok

let pp ppf f =
  Format.fprintf ppf "@[<v 2>func %s (%d blocks):" f.name (num_blocks f);
  Array.iter (fun b -> Format.fprintf ppf "@,%a" Block.pp b) f.blocks;
  Format.fprintf ppf "@]"
