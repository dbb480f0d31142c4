type loop = {
  header : Ir.Block.label;
  blocks : Ir.Block.label list;
  latches : Ir.Block.label list;
  static_size : int;
}

type t = {
  loops : loop list;
  is_header : bool array;
  is_latch : bool array;
  innermost : int array;
}

let compute f (dom : Dom.t) (preds : Ir.Func.table) =
  let n = Ir.Func.num_blocks f in
  let first = preds.Ir.Func.first and adj = preds.Ir.Func.adj in
  (* [mark.(l) = h + 1] puts [l] in the loop headed by [h]; [stack] holds
     the marked blocks whose predecessors are still to be walked *)
  let mark = Array.make n 0 and stack = Array.make n 0 in
  let loops = ref [] in
  for h = 0 to n - 1 do
    (* back edges into [h]: from the predecessors it dominates, ascending *)
    let latches = ref [] in
    for k = first.(h + 1) - 1 downto first.(h) do
      if Dom.dominates dom h adj.(k) then latches := adj.(k) :: !latches
    done;
    if !latches <> [] then begin
      (* the natural loop: [h] plus everything reaching a latch without
         passing [h], unreachable predecessors included *)
      let stamp = h + 1 in
      mark.(h) <- stamp;
      let sp = ref 0 in
      let add l =
        if mark.(l) <> stamp then begin
          mark.(l) <- stamp;
          stack.(!sp) <- l;
          incr sp
        end
      in
      List.iter add !latches;
      while !sp > 0 do
        decr sp;
        let l = stack.(!sp) in
        for k = first.(l) to first.(l + 1) - 1 do
          add adj.(k)
        done
      done;
      let blocks = ref [] and size = ref 0 in
      for l = n - 1 downto 0 do
        if mark.(l) = stamp then begin
          blocks := l :: !blocks;
          size := !size + Ir.Block.size (Ir.Func.block f l)
        end
      done;
      let lo =
        {
          header = h;
          blocks = !blocks;
          latches = !latches;
          static_size = !size;
        }
      in
      loops := lo :: !loops
    end
  done;
  (* largest first (equal sizes keep descending headers), so that assigning
     innermost in this order leaves the smallest (innermost) loop as the
     final owner *)
  let loops =
    List.stable_sort
      (fun a b -> compare (List.length b.blocks) (List.length a.blocks))
      !loops
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

let crosses_boundary t ~src ~dst = t.innermost.(src) <> t.innermost.(dst)
