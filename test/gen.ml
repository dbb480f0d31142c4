(* QCheck generator of random structured IR programs — a thin shim over
   the shared synthetic corpus (Workloads.Synth).

   The generator draws a (profile, seed) pair from the QCheck state and
   delegates to the corpus generator, so the property suites exercise
   exactly the structure space the msc fuzz / msc check drivers sweep:
   valid by construction, counted loops, guarded division, bounded
   memory.  Shrinking is the fuzz minimizer's job (Fuzz.minimize over
   Workloads.Synth.shrink_candidates), not QCheck's. *)

let profiles = Array.of_list Workloads.Synth.Profile.all

let gen_program : Ir.Prog.t QCheck.Gen.t =
 fun st ->
  let profile =
    profiles.(QCheck.Gen.int_bound (Array.length profiles - 1) st)
  in
  let seed = QCheck.Gen.int_bound ((1 lsl 30) - 1) st in
  Workloads.Synth.generate ~profile ~seed

let arbitrary_program =
  QCheck.make gen_program ~print:(fun p -> Format.asprintf "%a" Ir.Prog.pp p)

(* A handful of classic hand-built programs used across the suites. *)

let fib_program n =
  let open Ir.Builder in
  let pb = program () in
  func pb "fib" (fun b ->
      bin b Ir.Insn.Le Workloads.Util.t0 (Ir.Reg.arg 0) (Ir.Insn.Imm 1);
      if_ b Workloads.Util.t0
        (fun b ->
          mov b Ir.Reg.rv (Ir.Reg.arg 0);
          ret b)
        (fun b ->
          Workloads.Util.push b (Ir.Reg.arg 0);
          addi b (Ir.Reg.arg 0) (Ir.Reg.arg 0) (-1);
          call b "fib";
          Workloads.Util.pop b (Ir.Reg.arg 0);
          Workloads.Util.push b Ir.Reg.rv;
          addi b (Ir.Reg.arg 0) (Ir.Reg.arg 0) (-2);
          call b "fib";
          Workloads.Util.pop b Workloads.Util.t1;
          bin b Ir.Insn.Add Ir.Reg.rv Ir.Reg.rv (Ir.Insn.Reg Workloads.Util.t1);
          ret b));
  func pb "main" (fun b ->
      li b (Ir.Reg.arg 0) n;
      call b "fib";
      ret b);
  finish pb ~main:"main"

let rec fib_spec n = if n <= 1 then n else fib_spec (n - 1) + fib_spec (n - 2)

(* counted loop summing i*i for i < n, with trip count as a parameter —
   exercises unrolling edge cases (zero trips, non-multiple trips) *)
let square_sum_program n =
  let open Ir.Builder in
  let pb = program () in
  func pb "main" (fun b ->
      li b Workloads.Util.t0 0;
      for_ b Workloads.Util.t1 ~from:(Ir.Insn.Imm 0) ~below:(Ir.Insn.Imm n)
        ~step:1 (fun b ->
          bin b Ir.Insn.Mul Workloads.Util.t2 Workloads.Util.t1
            (Ir.Insn.Reg Workloads.Util.t1);
          bin b Ir.Insn.Add Workloads.Util.t0 Workloads.Util.t0
            (Ir.Insn.Reg Workloads.Util.t2));
      (* use the induction value after the loop: exit fixups must be right *)
      bin b Ir.Insn.Mul Workloads.Util.t1 Workloads.Util.t1 (Ir.Insn.Imm 1000);
      bin b Ir.Insn.Add Ir.Reg.rv Workloads.Util.t0
        (Ir.Insn.Reg Workloads.Util.t1);
      ret b);
  finish pb ~main:"main"

let square_sum_spec n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + (i * i)
  done;
  !s + (n * 1000)

(* A function's dominators and natural loops, derived as the selectors
   derive them: one DFS numbering and one predecessor table. *)
let dom f =
  Analysis.Dom.compute (Analysis.Dfs.compute f) (Ir.Func.pred_table f)

let loops f =
  let preds = Ir.Func.pred_table f in
  Analysis.Loops.compute f
    (Analysis.Dom.compute (Analysis.Dfs.compute f) preds)
    preds
