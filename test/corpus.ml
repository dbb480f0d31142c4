(* The programs the golden digests of the static layer and of the task
   chop pin: the 18 workloads, then the 44 programs of the seed-42 fuzz
   corpus (the fuzz-corpus ledger workload's), each at bb through fb. *)

(* Profiling runs shared within one program's levels, as the artifact
   store shares them: the plans are the same whoever interprets. *)
let shared_run () =
  let runs = Hashtbl.create 8 in
  fun p ->
    let key = Digest.string (Marshal.to_string p [ Marshal.No_sharing ]) in
    match Hashtbl.find_opt runs key with
    | Some o -> o
    | None ->
      let o = Interp.Run.execute p in
      Hashtbl.replace runs key o;
      o

(* the 44 programs of the seed-42 fuzz corpus as Fuzz.check_one draws
   them, named by index and profile *)
let fuzz_corpus =
  let cfg = Fuzz.default_config in
  List.init 44 (fun index ->
      let profile =
        List.nth cfg.Fuzz.profiles (index mod List.length cfg.Fuzz.profiles)
      in
      ( Printf.sprintf "fuzz-%02d-%s" index profile.Workloads.Synth.Profile.name,
        fun () -> Fuzz.program cfg ~index ))

(* the shrunken fuzz reproducers' texts, by file name *)
let reproducer_texts () =
  Sys.readdir "golden/fuzz" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ir")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat "golden/fuzz" f) in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, text))

(* the 18 workloads, then the fuzz programs *)
let programs () =
  List.map
    (fun (e : Workloads.Registry.entry) ->
      (true, e.Workloads.Registry.name, e.build))
    Workloads.Suite.all
  @ List.map (fun (name, build) -> (false, name, build)) fuzz_corpus

type cell = {
  name : string;
  suite : bool;  (** one of the 18 workloads *)
  level : Core.Heuristics.level;
  plan : (Core.Partition.plan, exn) result;
  run : Ir.Prog.t -> Interp.Run.outcome;  (** the program's shared run *)
}

(* one cell per (program, level), in golden-file order *)
let cells () =
  List.concat_map
    (fun (suite, name, build) ->
      let prog = build () in
      let run = shared_run () in
      List.map
        (fun level ->
          let plan =
            match Core.Cost.plan_for_level ~run level prog with
            | plan -> Ok plan
            | exception e -> Error e
          in
          { name; suite; level; plan; run })
        Core.Heuristics.extended_levels)
    (programs ())

(* the golden line's prefix: program and level tag *)
let label c = Printf.sprintf "%-22s %-2s" c.name (Harness.Job.level_tag c.level)

(* Compare [got] with the golden at [path]; on a mismatch write what was
   computed beside it (in the build tree) and fail, naming [what] diverged
   and what the golden [pins]. *)
let check_golden ~path ~what ~pins got =
  let want =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if got <> want then begin
    let out = path ^ ".actual" in
    let oc = open_out_bin out in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "%s diverged from test/golden/%s; what this build computed is in %s \
       (in the build tree).  The golden pins %s: a difference is a bug in \
       the change, not a reason to regenerate."
      what (Filename.basename path) out pins
  end
