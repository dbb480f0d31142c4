type t = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  start_ns : int;
  stop_ns : int;
  words : float;
}

type buf = { mutable closed : t list; mutable open_ids : int list }

let on = ref false
let enable () = on := true

let bufs = ref []
let bufs_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { closed = []; open_ids = [] } in
      Mutex.protect bufs_mu (fun () -> bufs := b :: !bufs);
      b)

let next_id = Atomic.make 0
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Gc.counters is per domain, which is what attributes allocation to the
   span open on this domain *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record name f =
  if not !on then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.open_ids with [] -> -1 | p :: _ -> p in
    b.open_ids <- id :: b.open_ids;
    let w0 = domain_words () in
    let t0 = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now_ns () in
        let w1 = domain_words () in
        b.open_ids <- List.tl b.open_ids;
        b.closed <-
          {
            id;
            parent;
            name;
            domain = (Domain.self () :> int);
            start_ns = t0;
            stop_ns = t1;
            words = w1 -. w0;
          }
          :: b.closed)
  end

let collect () =
  let all = Mutex.protect bufs_mu (fun () -> List.concat_map (fun b -> b.closed) !bufs) in
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) all

type row = {
  r_name : string;
  calls : int;
  total_ns : int;
  self_ns : int;
  self_words : float;
}

let table spans =
  let child_ns = Hashtbl.create 256 and child_words = Hashtbl.create 256 in
  let bump tbl k v zero add =
    Hashtbl.replace tbl k (add v (Option.value ~default:zero (Hashtbl.find_opt tbl k)))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_ns s.parent (s.stop_ns - s.start_ns) 0 ( + );
        bump child_words s.parent s.words 0.0 ( +. )
      end)
    spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop_ns - s.start_ns in
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let self_w =
        s.words -. Option.value ~default:0.0 (Hashtbl.find_opt child_words s.id)
      in
      let r =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None -> { r_name = s.name; calls = 0; total_ns = 0; self_ns = 0; self_words = 0.0 }
      in
      Hashtbl.replace rows s.name
        {
          r with
          calls = r.calls + 1;
          total_ns = r.total_ns + dur;
          self_ns = r.self_ns + self;
          self_words = r.self_words +. self_w;
        })
    spans;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> compare (b.self_ns, a.r_name) (a.self_ns, b.r_name))

let chrome_json spans =
  let origin = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = Harness.Json.Float (float_of_int ns /. 1e3) in
  let event s =
    let layer =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Harness.Json.Obj
      [
        ("name", Harness.Json.String s.name);
        ("cat", Harness.Json.String layer);
        ("ph", Harness.Json.String "X");
        ("ts", us (s.start_ns - origin));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", Harness.Json.Int 1);
        ("tid", Harness.Json.Int s.domain);
        ( "args",
          Harness.Json.Obj
            [
              ("id", Harness.Json.Int s.id);
              ("parent", Harness.Json.Int s.parent);
              ("words", Harness.Json.Float s.words);
            ] );
      ]
  in
  Harness.Json.Obj
    [
      ("traceEvents", Harness.Json.List (List.map event spans));
      ("displayTimeUnit", Harness.Json.String "ms");
    ]
