module Smap = Ir.Prog.Smap

(* Program-wide observations every per-function cost shares: block
   frequencies, call-graph function weights and the memory address
   analysis are all independent of any partition, which is what lets the
   greedy search re-score a single function in isolation. *)
type facts = {
  freqs : (string, float array) Hashtbl.t;
  weights : float Smap.t;
  mem : Analysis.Memdep.t;
  useful_base : float;
}

let make_facts (prog : Ir.Prog.t) =
  let freqs = Hashtbl.create 16 in
  Smap.iter
    (fun name f ->
      Hashtbl.replace freqs name (Analysis.Cost.block_freqs f))
    prog.Ir.Prog.funcs;
  let weights =
    Analysis.Cost.func_weights prog ~freqs:(Hashtbl.find freqs)
  in
  let mem = Analysis.Memdep.analyze ~sp:Interp.Run.initial_sp prog in
  let useful_base =
    Smap.fold
      (fun name (f : Ir.Func.t) acc ->
        let w = Smap.find name weights in
        let fr = Hashtbl.find freqs name in
        let s = ref 0.0 in
        Array.iteri
          (fun b blk ->
            s := !s +. (fr.(b) *. float_of_int (Ir.Block.size blk)))
          f.Ir.Func.blocks;
        acc +. (w *. !s))
      prog.Ir.Prog.funcs 0.0
  in
  { freqs; weights; mem; useful_base }

(* A hoisted program with two cells, each holding a function of the
   program alone: its facts and every function's sound liveness. *)
type program = {
  hoisted : Ir.Prog.t;
  cell : facts option Atomic.t;
  live : Analysis.Dataflow.Regset.t array Smap.t option Atomic.t;
}

let hoist prog =
  {
    hoisted = Transform.hoist_program prog;
    cell = Atomic.make None;
    live = Atomic.make None;
  }

type plan = {
  level : Heuristics.level;
  params : Heuristics.params;
  prog : Ir.Prog.t;
  parts : Task.partition Ir.Prog.Smap.t;
  program : program;
}

(* Every plan built on a record, and every plan derived from one with
   [with_parts]/[with_level], reads the record's cells.  Domains may race
   to fill an empty cell: each derives a copy, the first compare-and-set
   publishes its copy, and the losers return the published one (any copy
   would do — both derivations are deterministic). *)
let published cell derive =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    ignore (Atomic.compare_and_set cell None (Some (derive ())));
    Option.get (Atomic.get cell)

let facts plan = published plan.program.cell (fun () -> make_facts plan.prog)

let live_in plan fname =
  Smap.find fname
    (published plan.program.live (fun () ->
         Smap.map Analysis.Dataflow.sound_live_in plan.prog.Ir.Prog.funcs))

let with_parts plan parts = { plan with parts }
let with_level plan level = { plan with level }

let dep_edges_of_profile profile ~fid f =
  let static = Analysis.Dataflow.block_dep_edges f in
  let edges =
    List.map
      (fun (u, v, r) ->
        {
          Select.producer = u;
          consumer = v;
          reg = r;
          freq = Interp.Profile.dep_count profile fid u v r;
        })
      static
  in
  List.sort (fun a b -> compare b.Select.freq a.Select.freq) edges

(* Cap on dependences considered per function, keeping codependent-set
   computation cheap; the tail is low-frequency and barely steers anything. *)
let max_deps = 64

let build ?(params = Heuristics.default) ?profile_input
    ?(run = fun p -> Interp.Run.execute p) ?(program = hoist) level prog =
  (* cross-input profiling: run every profiling interpretation on a program
     built from the *training* input, transformed by exactly the same
     (structure-only, deterministic) passes as the evaluated program, so
     block labels and function names coincide *)
  let prof_prog = Option.value profile_input ~default:prog in
  (* unrolling (task-size level only) runs before induction hoisting: a
     counted-unrolled group already has its induction coalesced at the top,
     while hoisting handles the remaining loops *)
  let (prog, prof_prog), included_of =
    match level with
    | Heuristics.Task_size | Heuristics.Feedback ->
      let outcome = run prof_prog in
      let profile = outcome.Interp.Run.profile in
      let trace = outcome.Interp.Run.trace in
      let callee_size name =
        match Interp.Trace.fid trace name with
        | fid -> Interp.Profile.avg_invocation_size profile fid
        | exception Not_found -> infinity
      in
      let prog = Transform.unroll_program params prog in
      let prof_prog =
        match profile_input with
        | Some _ -> Transform.unroll_program params prof_prog
        | None -> prog
      in
      ( (prog, prof_prog),
        fun f ->
          Transform.mark_included_calls
            ~call_thresh:params.Heuristics.call_thresh ~callee_size f )
    | Heuristics.Basic_block | Heuristics.Control_flow
    | Heuristics.Data_dependence ->
      ((prog, prof_prog), fun f -> Array.make (Ir.Func.num_blocks f) false)
  in
  (* induction hoisting is part of the base compilation at every level *)
  let program = program prog in
  let prog = program.hoisted in
  let prof_prog =
    match profile_input with
    | Some _ -> Transform.hoist_program prof_prog
    | None -> prog
  in
  let profile_for_deps =
    match level with
    | Heuristics.Data_dependence | Heuristics.Task_size | Heuristics.Feedback
      ->
      let outcome = run prof_prog in
      Some (outcome.Interp.Run.profile, outcome.Interp.Run.trace)
    | Heuristics.Basic_block | Heuristics.Control_flow -> None
  in
  let select name f =
    match level with
    | Heuristics.Basic_block -> Select.basic_block f
    | Heuristics.Control_flow ->
      Select.control_flow params f ~included_calls:(included_of f)
    | Heuristics.Data_dependence | Heuristics.Task_size | Heuristics.Feedback
      ->
      let deps =
        match profile_for_deps with
        | Some (profile, trace) ->
          let fid =
            match Interp.Trace.fid trace name with
            | fid -> fid
            | exception Not_found -> -1
          in
          if fid = -1 then []
          else begin
            let all = dep_edges_of_profile profile ~fid f in
            List.filteri (fun i _ -> i < max_deps) all
          end
        | None -> []
      in
      Select.data_dependence params f ~included_calls:(included_of f) ~deps
  in
  let parts = Ir.Prog.Smap.mapi select prog.Ir.Prog.funcs in
  { level; params; prog; parts; program }

(* The real checker lives in the lint library, which depends on this one;
   it registers itself here at link time (lint is built with -linkall).
   The fallback is deliberately loud: validating without lint linked means
   the build is mis-wired, not that the plan is fine. *)
let validator : (plan -> (unit, string) result) ref =
  ref (fun _ -> Error "Partition.validate: the lint library is not linked")

let set_validator f = validator := f
let validate plan = !validator plan

(* Same link-time pattern for the static dep/reg audit: lint checks every
   register dependence edge recomputed for a partition without needing a
   trace, which is what the cost-directed search uses to vet candidates. *)
let dep_validator : (plan -> (unit, string) result) ref =
  ref (fun _ ->
      Error "Partition.validate_deps: the lint library is not linked")

let set_dep_validator f = dep_validator := f
let validate_deps plan = !dep_validator plan
