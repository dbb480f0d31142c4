(* Work-stealing scheduler: per-worker Chase-Lev deques + an MPMC
   injector for external submissions.  See sched.mli for the contract.

   Blocking discipline (the deadlock argument):
   - a worker NEVER blocks on a condition variable while holding work it
     could run: [await] on a worker is a help loop that keeps executing
     queued tasks, and the park path re-checks [has_work] under the park
     mutex before waiting;
   - external threads block on the future's own mutex/condvar, and the
     resolver broadcasts under that same mutex, so wakeups cannot be
     lost;
   - future state lives in an [Atomic.t] because the resolving worker
     and the awaiting thread are different domains: a plain mutable
     field could expose a [Done v] pointer whose record contents are
     still stale on the reader's side. *)

module Deque = Deque
module Injector = Injector

exception Cancelled

module Token = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let cancel t = Atomic.set t true
  let cancelled t = Atomic.get t
end

type task = unit -> unit

let dummy_task : task = fun () -> ()

type t = {
  deques : task Deque.t array;
  injector : task Injector.t;
  mutable doms : unit Domain.t array;
  stop : bool Atomic.t;
  park_mu : Mutex.t;
  park_cond : Condition.t;
  mutable parked : int; (* guarded by park_mu *)
  m_tasks : int Atomic.t;
  m_steals : int Atomic.t;
  m_injected : int Atomic.t;
  m_local : int Atomic.t;
  m_parks : int Atomic.t;
}

type stats = {
  tasks : int;
  steals : int;
  injected : int;
  local : int;
  parks : int;
}

(* Worker identity, stored in domain-local state so [submit]/[await] can
   tell whether the caller is one of this scheduler's own workers. *)
type ctx = { c_sched : t; c_id : int; c_rng : Random.State.t }

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current t =
  match Domain.DLS.get ctx_key with
  | Some c when c.c_sched == t -> Some c
  | _ -> None

let on_worker t = current t <> None
let domains t = Array.length t.deques

let has_work t =
  (not (Injector.is_empty t.injector))
  || Array.exists (fun d -> Deque.size d > 0) t.deques

let wake t =
  Mutex.lock t.park_mu;
  if t.parked > 0 then Condition.signal t.park_cond;
  Mutex.unlock t.park_mu

(* local pop, then injector, then randomized steal sweep *)
let find_task t id rng =
  match Deque.pop t.deques.(id) with
  | Some _ as r -> r
  | None -> (
    match Injector.pop t.injector with
    | Some _ as r -> r
    | None ->
      let n = Array.length t.deques in
      if n <= 1 then None
      else begin
        let start = Random.State.int rng n in
        let rec sweep k =
          if k >= n then None
          else
            let victim = (start + k) mod n in
            if victim = id then sweep (k + 1)
            else
              match Deque.steal t.deques.(victim) with
              | Some _ as r ->
                Atomic.incr t.m_steals;
                r
              | None -> sweep (k + 1)
        in
        sweep 0
      end)

let exec t task =
  (* submit wraps every task so it cannot raise; the catch-all keeps a
     raw task from killing its worker domain regardless.  Count before
     running: the task resolves its future inside [task ()], so bumping
     afterwards would let a waiter observe the result (and read [stats])
     before the counter reflects the task. *)
  Atomic.incr t.m_tasks;
  try task () with _ -> ()

let rec worker_loop t id rng =
  if Atomic.get t.stop then ()
  else
    match find_task t id rng with
    | Some task ->
      exec t task;
      worker_loop t id rng
    | None ->
      (* exponential spin backoff before parking *)
      let rec spin pause =
        if Atomic.get t.stop || has_work t then true
        else if pause > 1024 then false
        else begin
          for _ = 1 to pause do
            Domain.cpu_relax ()
          done;
          spin (pause * 2)
        end
      in
      if spin 16 then worker_loop t id rng
      else begin
        Mutex.lock t.park_mu;
        if (not (has_work t)) && not (Atomic.get t.stop) then begin
          t.parked <- t.parked + 1;
          Atomic.incr t.m_parks;
          Condition.wait t.park_cond t.park_mu;
          t.parked <- t.parked - 1
        end;
        Mutex.unlock t.park_mu;
        worker_loop t id rng
      end

let create ~domains:n () =
  if n < 1 then invalid_arg "Sched.create: domains must be >= 1";
  let t =
    {
      deques = Array.init n (fun _ -> Deque.create ~dummy:dummy_task ());
      injector = Injector.create ();
      doms = [||];
      stop = Atomic.make false;
      park_mu = Mutex.create ();
      park_cond = Condition.create ();
      parked = 0;
      m_tasks = Atomic.make 0;
      m_steals = Atomic.make 0;
      m_injected = Atomic.make 0;
      m_local = Atomic.make 0;
      m_parks = Atomic.make 0;
    }
  in
  t.doms <-
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            (* deterministic per-worker seed: steal victim order must not
               depend on wall clock or domain ids *)
            let rng = Random.State.make [| 0x5ced; i |] in
            Domain.DLS.set ctx_key (Some { c_sched = t; c_id = i; c_rng = rng });
            worker_loop t i rng));
  t

(* futures ---------------------------------------------------------- *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  f_st : 'a state Atomic.t;
  f_mu : Mutex.t;
  f_cond : Condition.t;
  f_sched : t;
}

let resolve fut st =
  Atomic.set fut.f_st st;
  (* broadcast under the mutex: an external waiter checks state under
     this mutex before sleeping, so the wakeup cannot slip past it *)
  Mutex.lock fut.f_mu;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_mu

let peek fut =
  match Atomic.get fut.f_st with
  | Pending -> `Pending
  | Done _ -> `Done
  | Failed _ -> `Failed

let submit ?token t f =
  let fut =
    {
      f_st = Atomic.make Pending;
      f_mu = Mutex.create ();
      f_cond = Condition.create ();
      f_sched = t;
    }
  in
  (* A thief cannot clear the deque slot it took a task from, so a stolen
     task stays reachable until the slot is reused.  The task therefore
     lets go of [f], and of everything [f] captured, as it starts. *)
  let body = ref (Some f) in
  let task () =
    let f = Option.get !body in
    body := None;
    let st =
      match token with
      | Some tk when Token.cancelled tk -> Failed Cancelled
      | _ -> ( try Done (f ()) with e -> Failed e)
    in
    resolve fut st
  in
  (match current t with
  | Some c ->
    Deque.push t.deques.(c.c_id) task;
    Atomic.incr t.m_local
  | None ->
    Injector.push t.injector task;
    Atomic.incr t.m_injected);
  wake t;
  fut

let await fut =
  let t = fut.f_sched in
  let pending () =
    match Atomic.get fut.f_st with Pending -> true | _ -> false
  in
  (match current t with
  | Some c ->
    (* help loop: run other queued work instead of blocking, so joins
       from inside tasks can never deadlock the worker pool *)
    while pending () do
      match find_task t c.c_id c.c_rng with
      | Some task -> exec t task
      | None -> Domain.cpu_relax ()
    done
  | None ->
    if pending () then begin
      Mutex.lock fut.f_mu;
      while pending () do
        Condition.wait fut.f_cond fut.f_mu
      done;
      Mutex.unlock fut.f_mu
    end);
  match Atomic.get fut.f_st with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let map ?token t f xs =
  let futs = List.map (fun x -> submit ?token t (fun () -> f x)) xs in
  (* await everything before re-raising so no task is abandoned
     mid-flight, then surface the lowest-index failure *)
  let settled =
    List.map (fun fut -> try Ok (await fut) with e -> Error e) futs
  in
  List.map (function Ok v -> v | Error e -> raise e) settled

let run t f = await (submit t f)

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.park_mu;
  Condition.broadcast t.park_cond;
  Mutex.unlock t.park_mu;
  Array.iter Domain.join t.doms;
  t.doms <- [||]

let stats t =
  {
    tasks = Atomic.get t.m_tasks;
    steals = Atomic.get t.m_steals;
    injected = Atomic.get t.m_injected;
    local = Atomic.get t.m_local;
    parks = Atomic.get t.m_parks;
  }

let queue_depth t =
  Injector.size t.injector
  + Array.fold_left (fun acc d -> acc + Deque.size d) 0 t.deques
