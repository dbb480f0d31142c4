(* One-lock scheduler: a FIFO of injected tasks and a LIFO of
   worker-submitted ones behind one mutex and one condition variable.
   See sched.mli for the contract.

   [mu] guards all shared state: both queues, every future's state,
   [stop] and the counters.  No wakeup is lost: every change a waiter
   can wait for (a push, a resolved future, [stop]) broadcasts [cond]
   before [mu] is released, and every waiter tests its condition under
   [mu] and again after each wake-up, so a change made after a waiter's
   test can only land once the waiter is asleep on [cond], where the
   broadcast reaches it.

   No deadlock: a worker waits only when neither queue holds a task, and
   a worker awaiting a future runs queued tasks before it waits, so the
   subtasks of a nested fan-out always have a worker to run them. *)

type task = unit -> unit

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  injected_q : task Queue.t; (* from outside the pool, oldest first *)
  local_s : (int * task) Stack.t;
      (* from workers, newest first, with the submitting worker's id *)
  mutable stop : bool;
  mutable doms : unit Domain.t array;
  mutable n_tasks : int;
  mutable n_steals : int;
  mutable n_injected : int;
  mutable n_local : int;
  mutable n_parks : int;
}

type stats = {
  tasks : int;
  steals : int;
  injected : int;
  local : int;
  parks : int;
}

(* Worker identity, stored in domain-local state by each worker. *)
type ctx = { c_sched : t; c_id : int }

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Option.map (fun c -> c.c_sched) (Domain.DLS.get ctx_key)

let worker_id t =
  match Domain.DLS.get ctx_key with
  | Some c when c.c_sched == t -> Some c.c_id
  | _ -> None

(* Under [mu]: the newest worker-submitted task, else the oldest injected
   one.  A task is counted as it is taken: it resolves its future while
   it runs, so counting afterwards would let a waiter read [stats] before
   the counter reflects the task. *)
let take t id =
  match Stack.pop_opt t.local_s with
  | Some (submitter, task) ->
    t.n_tasks <- t.n_tasks + 1;
    if submitter <> id then t.n_steals <- t.n_steals + 1;
    Some task
  | None ->
    let task = Queue.take_opt t.injected_q in
    if Option.is_some task then t.n_tasks <- t.n_tasks + 1;
    task

(* Under [mu], until [finished ()]: a worker ([id] is [Some]) runs queued
   tasks with [mu] released and waits only when there are none; any other
   thread just waits.  [submit] wraps every task so it cannot raise; the
   catch-all keeps a raw task from killing its worker regardless. *)
let rec serve t id finished =
  if not (finished ()) then begin
    (match Option.bind id (take t) with
    | Some task ->
      Mutex.unlock t.mu;
      (try task () with _ -> ());
      Mutex.lock t.mu
    | None ->
      if Option.is_some id then t.n_parks <- t.n_parks + 1;
      Condition.wait t.cond t.mu);
    serve t id finished
  end

let create ~domains:n () =
  if n < 1 then invalid_arg "Sched.create: domains must be >= 1";
  let t =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      injected_q = Queue.create ();
      local_s = Stack.create ();
      stop = false;
      doms = [||];
      n_tasks = 0;
      n_steals = 0;
      n_injected = 0;
      n_local = 0;
      n_parks = 0;
    }
  in
  t.doms <-
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set ctx_key (Some { c_sched = t; c_id = i });
            Mutex.protect t.mu (fun () ->
                serve t (Some i) (fun () -> t.stop))));
  t

(* futures ---------------------------------------------------------- *)

type 'a state = Pending | Done of 'a | Failed of exn

(* [st] is guarded by [sched.mu] *)
type 'a future = { mutable st : 'a state; sched : t }

let submit t f =
  let fut = { st = Pending; sched = t } in
  let task () =
    let st = try Done (f ()) with e -> Failed e in
    Mutex.protect t.mu (fun () ->
        fut.st <- st;
        Condition.broadcast t.cond)
  in
  Mutex.protect t.mu (fun () ->
      (match worker_id t with
      | Some id ->
        Stack.push (id, task) t.local_s;
        t.n_local <- t.n_local + 1
      | None ->
        Queue.add task t.injected_q;
        t.n_injected <- t.n_injected + 1);
      Condition.broadcast t.cond);
  fut

let await fut =
  let t = fut.sched in
  let id = worker_id t in
  let resolved () = match fut.st with Pending -> false | _ -> true in
  match Mutex.protect t.mu (fun () -> serve t id resolved; fut.st) with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let map t f xs =
  let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
  (* await everything before re-raising so no task is abandoned
     mid-flight, then surface the lowest-index failure *)
  let settled =
    List.map (fun fut -> try Ok (await fut) with e -> Error e) futs
  in
  List.map (function Ok v -> v | Error e -> raise e) settled

let run t f = await (submit t f)

let shutdown t =
  let doms =
    Mutex.protect t.mu (fun () ->
        t.stop <- true;
        Condition.broadcast t.cond;
        let doms = t.doms in
        t.doms <- [||];
        doms)
  in
  Array.iter Domain.join doms

let stats t =
  Mutex.protect t.mu (fun () ->
      {
        tasks = t.n_tasks;
        steals = t.n_steals;
        injected = t.n_injected;
        local = t.n_local;
        parks = t.n_parks;
      })

let queue_depth t =
  Mutex.protect t.mu (fun () ->
      Queue.length t.injected_q + Stack.length t.local_s)
