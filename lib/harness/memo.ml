(* One mutex per table guards the bindings and every cell's state; each
   cell has its own condition variable, so a landing broadcasts only to
   the waiters of its key.  The mutex is never held while a value is
   computed. *)

type 'v state =
  | In_flight
  | Landed of 'v
  | Failed of exn * Printexc.raw_backtrace

type 'v cell = { cond : Condition.t; mutable state : 'v state }

type ('k, 'v) t = { mu : Mutex.t; cells : ('k, 'v cell) Hashtbl.t }

let create n = { mu = Mutex.create (); cells = Hashtbl.create n }

(* called with the mutex held; releases it *)
let rec settle t cell =
  match cell.state with
  | In_flight ->
    Condition.wait cell.cond t.mu;
    settle t cell
  | Landed v ->
    Mutex.unlock t.mu;
    v
  | Failed (e, bt) ->
    Mutex.unlock t.mu;
    Printexc.raise_with_backtrace e bt

let find t key =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.cells key with
  | Some cell -> Some (settle t cell)
  | None ->
    Mutex.unlock t.mu;
    None

let find_or_compute t key compute =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.cells key with
  | Some cell -> (settle t cell, true)
  | None ->
    let cell = { cond = Condition.create (); state = In_flight } in
    Hashtbl.replace t.cells key cell;
    Mutex.unlock t.mu;
    let finish state =
      Mutex.lock t.mu;
      (* a failure is not cached: the next request computes again *)
      (match state with
       | Failed _ -> Hashtbl.remove t.cells key
       | In_flight | Landed _ -> ());
      cell.state <- state;
      Condition.broadcast cell.cond;
      Mutex.unlock t.mu
    in
    (match compute () with
     | v ->
       finish (Landed v);
       (v, false)
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       finish (Failed (e, bt));
       Printexc.raise_with_backtrace e bt)

let bindings t =
  Mutex.lock t.mu;
  let landed =
    Hashtbl.fold
      (fun key cell acc ->
        match cell.state with
        | Landed v -> (key, v) :: acc
        | In_flight | Failed _ -> acc)
      t.cells []
  in
  Mutex.unlock t.mu;
  landed
