(* Differential fuzzing harness over the synthetic corpus: generate
   programs with Workloads.Synth, build each at every heuristic level
   through a private artifact store, and hold the result against every
   verification layer the repo has (the lint cell, round-trip, the fb<=ts
   cost bound and the frozen sim_ref cycle differential).  See fuzz.mli
   for the oracle stack. *)

type config = {
  seed : int;
  n : int;
  profiles : Workloads.Synth.Profile.t list;
  levels : Core.Heuristics.level list;
  ref_sample : int;
  fault_hook : (Ir.Prog.t -> Ir.Prog.t) option;
}

let default_config =
  {
    seed = 42;
    n = 200;
    profiles = Workloads.Synth.Profile.all;
    levels = Core.Heuristics.extended_levels;
    ref_sample = 10;
    fault_hook = None;
  }

type violation = {
  v_profile : string;
  v_index : int;
  v_seed : int;
  v_level : string;
  v_oracle : string;
  v_detail : string;
}

type report = {
  p_profile : string;
  p_index : int;
  p_seed : int;
  p_violations : violation list;
  p_ref_checked : bool;
  p_funcs : int;
  p_blocks : int;
  p_insns : int;
}

type shape = {
  s_programs : int;
  s_funcs : int;
  s_blocks : int;
  s_insns : int;
}

type outcome = {
  o_config : config;
  o_programs : int;
  o_checks : int;
  o_violations : violation list;
  o_records : Harness.Job.fuzz list;
  o_shapes : (string * shape) list;
  o_wall_seconds : float;
}

let violation_text v =
  Printf.sprintf "%s #%d (seed %d) level %s oracle %s: %s" v.v_profile
    v.v_index v.v_seed v.v_level v.v_oracle v.v_detail

let invariants o = List.map violation_text o.o_violations

(* --- the canned injected fault --------------------------------------- *)

(* An unguarded divide-by-zero at a seeded position of main's entry block:
   executes on every run (the entry block cannot be skipped), crashes the
   interpreter, and survives print/parse — exactly the kind of latent bug
   the crash oracle plus shrinking must reduce to a two-instruction
   reproducer. *)
let inject_div0 ~seed (prog : Ir.Prog.t) =
  let f = Ir.Prog.find prog prog.main in
  let entry = f.Ir.Func.blocks.(0) in
  let insns = entry.Ir.Block.insns in
  let pos = abs seed mod (Array.length insns + 1) in
  let r = Ir.Reg.tmp 0 in
  let fault =
    [| Ir.Insn.Li (r, 0); Ir.Insn.Bin (Ir.Insn.Div, r, r, Ir.Insn.Imm 0) |]
  in
  let insns =
    Array.concat
      [
        Array.sub insns 0 pos;
        fault;
        Array.sub insns pos (Array.length insns - pos);
      ]
  in
  let blocks = Array.copy f.Ir.Func.blocks in
  blocks.(0) <- { entry with Ir.Block.insns };
  {
    prog with
    Ir.Prog.funcs =
      Ir.Prog.Smap.add prog.main { f with Ir.Func.blocks } prog.funcs;
  }

(* --- the oracle stack over one program ------------------------------- *)

let diag_text = function
  | [] -> "no diagnostics"
  | d :: rest ->
    Format.asprintf "%a%s" Lint.Diag.pp d
      (match rest with
      | [] -> ""
      | _ -> Printf.sprintf " (+%d more)" (List.length rest))

let prog_shape (prog : Ir.Prog.t) =
  ( Ir.Prog.Smap.cardinal prog.funcs,
    Ir.Prog.Smap.fold
      (fun _ f acc -> acc + Ir.Func.num_blocks f)
      prog.funcs 0,
    Ir.Prog.static_size prog )

(* a diagnostic's oracle is its rule family; the plan's own families are
   lint's *)
let oracles = [ "lint"; "trace"; "dep"; "absint"; "cost"; "acct" ]

let oracle_of (d : Lint.Diag.t) =
  match List.hd (String.split_on_char '/' d.Lint.Diag.rule) with
  | "ir" | "part" | "regcomm" -> "lint"
  | family -> family

let check_value config ~profile ~index ~seed prog =
  let vs = ref [] in
  let add ~level ~oracle detail =
    vs :=
      {
        v_profile = profile;
        v_index = index;
        v_seed = seed;
        v_level = level;
        v_oracle = oracle;
        v_detail = detail;
      }
      :: !vs
  in
  let check ~level ~oracle diags =
    match Lint.Diag.errors diags with
    | [] -> ()
    | errs -> add ~level ~oracle (diag_text errs)
  in
  let ref_checked =
    config.ref_sample > 0 && index mod config.ref_sample = 0
  in
  let prog_errors = Lint.Diag.errors (Lint.check_prog prog) in
  if prog_errors <> [] then
    (* a malformed program invalidates every downstream oracle: report the
       lint failure alone and skip the levels *)
    add ~level:"-" ~oracle:"lint" (diag_text prog_errors)
  else begin
    check ~level:"-" ~oracle:"roundtrip" (Lint.check_roundtrip prog);
    (* a private store: the levels share its interpreter runs and preps,
       and a crashing run is not cached, so each level reports its own *)
    let store = Harness.Artifact.create () in
    let entry = Workloads.Registry.of_program ~name:profile prog in
    let plans = ref [] in
    List.iter
      (fun level ->
        let ltag = Harness.Job.level_tag level in
        match Harness.Artifact.get store ~level entry with
        | exception Interp.Run.Runtime_error msg ->
          add ~level:ltag ~oracle:"crash" msg
        | exception e -> add ~level:ltag ~oracle:"plan" (Printexc.to_string e)
        | art -> (
          try
            let errs = Lint.Diag.errors (Lint.check_artifact store art) in
            List.iter
              (fun oracle ->
                check ~level:ltag ~oracle
                  (List.filter (fun d -> oracle_of d = oracle) errs))
              oracles;
            (* a plan error stood alone; a valid plan is kept for the
               fb bound and, sampled, simulated by the frozen core *)
            let plan = art.Harness.Artifact.plan in
            if List.for_all (fun d -> oracle_of d <> "lint") errs then begin
              plans := (level, plan) :: !plans;
              if ref_checked then
                List.iter
                  (fun (num_pus, in_order) ->
                    Option.iter
                      (fun msg ->
                        add ~level:ltag ~oracle:"ref-diff"
                          (Printf.sprintf "%dPU %s: %s" num_pus
                             (if in_order then "in-order" else "ooo")
                             msg))
                      (Sim_ref.Engine_ref.differential
                         (Sim.Config.default ~num_pus ~in_order)
                         (Harness.Artifact.prep store art)
                         plan art.Harness.Artifact.trace))
                  Lint.acct_configs
            end
          with e -> add ~level:ltag ~oracle:"crash" (Printexc.to_string e)))
      config.levels;
    (* the feedback search must never lose to its task-size seed on the
       static scalar (Core.Cost.refine's contract) *)
    let scalar level =
      Option.map
        (fun plan -> (Core.Cost.plan_cost plan).Core.Cost.r_scalar)
        (List.assoc_opt level !plans)
    in
    match Core.Heuristics.(scalar Task_size, scalar Feedback) with
    | Some ts, Some fb when fb > ts +. 1e-9 ->
      add ~level:"fb" ~oracle:"fb-bound"
        (Printf.sprintf "fb scalar %.9f exceeds ts seed %.9f" fb ts)
    | _ -> ()
  end;
  let funcs, blocks, insns = prog_shape prog in
  {
    p_profile = profile;
    p_index = index;
    p_seed = seed;
    p_violations = List.rev !vs;
    p_ref_checked = ref_checked;
    p_funcs = funcs;
    p_blocks = blocks;
    p_insns = insns;
  }

let profile_of_index config index =
  match config.profiles with
  | [] -> invalid_arg "Fuzz: empty profile list"
  | ps -> List.nth ps (index mod List.length ps)

let program config ~index =
  let prog =
    Workloads.Synth.generate ~profile:(profile_of_index config index)
      ~seed:(Workloads.Synth.program_seed ~seed:config.seed ~index)
  in
  match config.fault_hook with Some f -> f prog | None -> prog

let check_one config ~index =
  check_value config
    ~profile:(profile_of_index config index).Workloads.Synth.Profile.name
    ~index ~seed:(Workloads.Synth.program_seed ~seed:config.seed ~index)
    (program config ~index)

(* --- aggregation ------------------------------------------------------ *)

let violated oracle r =
  List.exists (fun v -> String.equal v.v_oracle oracle) r.p_violations

(* a program-wide lint failure skipped every downstream oracle *)
let blocked r =
  List.exists
    (fun v -> String.equal v.v_oracle "lint" && String.equal v.v_level "-")
    r.p_violations

let records_of_reports config reports =
  List.map
    (fun (prof : Workloads.Synth.Profile.t) ->
      let rs =
        List.filter
          (fun r -> String.equal r.p_profile prof.Workloads.Synth.Profile.name)
          reports
      in
      let count pred = List.length (List.filter pred rs) in
      let pass oracle r = (not (blocked r)) && not (violated oracle r) in
      {
        Harness.Job.z_seed = config.seed;
        z_profile = prof.Workloads.Synth.Profile.name;
        z_programs = List.length rs;
        z_levels = List.length config.levels;
        z_lint_pass =
          count (fun r ->
              (not (violated "lint" r)) && not (violated "plan" r));
        z_roundtrip_pass = count (pass "roundtrip");
        z_trace_pass = count (fun r -> pass "trace" r && pass "crash" r);
        z_dep_pass = count (fun r -> pass "dep" r && pass "crash" r);
        z_absint_pass = count (fun r -> pass "absint" r && pass "crash" r);
        z_acct_pass = count (fun r -> pass "acct" r && pass "crash" r);
        z_cost_pass = count (pass "cost");
        z_fb_bound_pass = count (pass "fb-bound");
        z_ref_checked = count (fun r -> r.p_ref_checked);
        z_ref_pass =
          count (fun r -> r.p_ref_checked && not (violated "ref-diff" r));
        z_violations =
          List.fold_left
            (fun acc r -> acc + List.length r.p_violations)
            0 rs;
      })
    config.profiles

let shapes_of_reports config reports =
  List.map
    (fun (prof : Workloads.Synth.Profile.t) ->
      let name = prof.Workloads.Synth.Profile.name in
      let rs = List.filter (fun r -> String.equal r.p_profile name) reports in
      ( name,
        {
          s_programs = List.length rs;
          s_funcs = List.fold_left (fun a r -> a + r.p_funcs) 0 rs;
          s_blocks = List.fold_left (fun a r -> a + r.p_blocks) 0 rs;
          s_insns = List.fold_left (fun a r -> a + r.p_insns) 0 rs;
        } ))
    config.profiles

let run ?jobs ?progress config =
  let t0 = Unix.gettimeofday () in
  let n = max 0 config.n in
  let chunk = 50 in
  let rec go acc start =
    if start >= n then List.concat (List.rev acc)
    else begin
      let len = min chunk (n - start) in
      let batch = List.init len (fun i -> start + i) in
      let rs = Harness.Pool.map ?jobs (fun i -> check_one config ~index:i) batch in
      (match progress with
      | Some f -> f ~done_:(start + len) ~total:n
      | None -> ());
      go (rs :: acc) (start + len)
    end
  in
  let reports = go [] 0 in
  let checks =
    List.fold_left
      (fun acc r ->
        acc + if blocked r then 0 else List.length config.levels)
      0 reports
  in
  {
    o_config = config;
    o_programs = List.length reports;
    o_checks = checks;
    o_violations = List.concat_map (fun r -> r.p_violations) reports;
    o_records = records_of_reports config reports;
    o_shapes = shapes_of_reports config reports;
    o_wall_seconds = Unix.gettimeofday () -. t0;
  }

(* --- shrinking -------------------------------------------------------- *)

let minimize ~fails prog =
  (* candidates must stay structurally valid AND ir/*-clean: instruction
     drops routinely manufacture use-before-def programs whose downstream
     oracle failures would be artifacts of the shrinking itself *)
  let healthy p =
    Ir.Prog.validate p = Ok ()
    && Lint.Diag.errors (Lint.check_prog p) = []
  in
  let rec go p =
    match
      List.find_opt
        (fun c -> healthy c && fails c)
        (Workloads.Synth.shrink_candidates p)
    with
    | Some c -> go c
    | None -> p
  in
  go prog

let fails_oracle config ~oracle prog =
  let r = check_value config ~profile:"minimize" ~index:0 ~seed:0 prog in
  List.exists (fun v -> String.equal v.v_oracle oracle) r.p_violations

(* --- reproducer dump -------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let progs_equal (a : Ir.Prog.t) (b : Ir.Prog.t) =
  String.equal a.main b.main
  && a.mem_top = b.mem_top
  && compare a.mem_init b.mem_init = 0
  && Ir.Prog.Smap.equal (fun f g -> compare f g = 0) a.funcs b.funcs

let dump_reproducer ~dir ~name prog =
  mkdir_p dir;
  let path = Filename.concat dir (name ^ ".ir") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Ir.Pp.program_text prog));
  let ic = open_in path in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Ir.Parse.program bytes with
  | Error e ->
    Error (Printf.sprintf "reproducer %s does not parse back: %s" path e)
  | Ok p' ->
    if progs_equal prog p' then Ok path
    else
      Error
        (Printf.sprintf "reproducer %s parses to a different program" path)
