(* Paper 4.3.4: windowspan = sum_{i=0..N-1} Tasksize * Pred^i *)
let formula ~task_size ~pred ~num_pus =
  let rec go i acc p =
    if i >= num_pus then acc else go (i + 1) (acc +. (task_size *. p)) (p *. pred)
  in
  go 0 0.0 1.0

(* Measured counterpart: the average dynamic task size observed in a packed
   trace of [n_tasks] task instances, fed through the same series.  The
   total dynamic size is re-derived from the packed event stream (memoized
   size table), so this doubles as an end-to-end consistency point between
   the trace representation and the task walk. *)
let measured ~num_pus ~pred (trace : Interp.Trace.t) ~tasks:n_tasks =
  if n_tasks = 0 then 0.0
  else begin
    let total = ref 0 in
    for i = 0 to Interp.Trace.num_events trace - 1 do
      total := !total + Interp.Trace.size_at trace i
    done;
    let task_size = float_of_int !total /. float_of_int n_tasks in
    formula ~task_size ~pred ~num_pus
  end
