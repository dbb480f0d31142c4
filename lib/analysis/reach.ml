(* Blocks forward-reachable from the producer get bit 1; walking back
   from the consumer through those blocks only (a path from a reached
   block to the consumer stays inside them) sets bit 2 as well; the
   blocks holding both lie on a path. *)
let codependent f (preds : Ir.Func.table) ~producer ~consumer =
  let n = Ir.Func.num_blocks f in
  let m = Bytes.make n '\000' in
  let rec forward l =
    if Bytes.get m l = '\000' then begin
      Bytes.set m l '\001';
      Ir.Block.iter_succs forward (Ir.Func.block f l)
    end
  in
  let rec backward l =
    if Bytes.get m l = '\001' then begin
      Bytes.set m l '\003';
      for k = preds.Ir.Func.first.(l) to preds.Ir.Func.first.(l + 1) - 1 do
        backward preds.Ir.Func.adj.(k)
      done
    end
  in
  forward producer;
  backward consumer;
  for l = 0 to n - 1 do
    Bytes.set m l (if Bytes.get m l = '\003' then '\001' else '\000')
  done;
  m
