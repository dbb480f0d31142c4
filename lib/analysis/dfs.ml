type t = {
  pre : int array;
  post : int array;
  rpo : Ir.Block.label array;
}

let compute f =
  let n = Ir.Func.num_blocks f in
  let pre = Array.make n (-1) in
  let post = Array.make n (-1) in
  let pre_counter = ref 0 in
  let post_counter = ref 0 in
  let rec visit l =
    if pre.(l) = -1 then begin
      pre.(l) <- !pre_counter;
      incr pre_counter;
      Ir.Block.iter_succs visit (Ir.Func.block f l);
      post.(l) <- !post_counter;
      incr post_counter
    end
  in
  visit Ir.Func.entry;
  (* reverse postorder: the last block to finish comes first *)
  let reached = !post_counter in
  let rpo = Array.make reached 0 in
  for l = 0 to n - 1 do
    if post.(l) >= 0 then rpo.(reached - 1 - post.(l)) <- l
  done;
  { pre; post; rpo }

let is_retreating t ~src ~dst = t.post.(dst) >= t.post.(src)
