(* --jobs and HARNESS_JOBS share this parser: one domain per recommended
   core, never more — oversubscription costs ~2x wall time in minor-GC
   synchronisation, and a huge request cannot even allocate its domains. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Ok (min j (Domain.recommended_domain_count ()))
  | Some _ | None -> Error (Printf.sprintf "%S is not a positive integer" s)

let env_jobs () =
  match Sys.getenv_opt "HARNESS_JOBS" with
  | None -> Ok None
  | Some s when String.trim s = "" ->
    (* `HARNESS_JOBS= cmd` idiom: blank means unset *)
    Ok None
  | Some s -> (
    match parse_jobs s with
    | Ok j -> Ok (Some j)
    | Error msg -> Error ("environment variable HARNESS_JOBS: " ^ msg))

let default_jobs () =
  match env_jobs () with
  | Ok (Some j) -> j
  | Ok None -> Domain.recommended_domain_count ()
  | Error msg -> failwith msg

(* Resident scheduler per requested width, created lazily and reused
   across calls; at_exit unwinds them so parked worker domains cannot
   outlive the main domain. *)
let scheds : (int, Sched.t) Hashtbl.t = Hashtbl.create 4
let scheds_mu = Mutex.create ()
let cleanup_registered = ref false

(* [Sched.create] rejects a width below 1, and a spawn can fail: the
   table's lock must not stay held when either raises. *)
let scheduler ~jobs =
  Mutex.protect scheds_mu (fun () ->
      match Hashtbl.find_opt scheds jobs with
      | Some t -> t
      | None ->
        let t = Sched.create ~domains:jobs () in
        Hashtbl.replace scheds jobs t;
        if not !cleanup_registered then begin
          cleanup_registered := true;
          at_exit (fun () ->
              Mutex.lock scheds_mu;
              let all = Hashtbl.fold (fun _ t acc -> t :: acc) scheds [] in
              Hashtbl.reset scheds;
              Mutex.unlock scheds_mu;
              List.iter Sched.shutdown all)
        end;
        t)

(* When the caller is already a scheduler worker, nested fan-outs go back
   into the same scheduler (its queues, its width) instead of waiting on
   a second pool. *)
let map ?jobs f xs =
  match Sched.current () with
  | Some t -> Sched.map t f xs
  | None ->
    let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
    (match xs with
     | [] | [ _ ] -> List.map f xs
     | _ when jobs <= 1 -> List.map f xs
     | _ -> Sched.map (scheduler ~jobs) f xs)
