type severity = Error | Warning | Info

type loc = {
  func : string;
  task : int option;
  block : Ir.Block.label option;
  insn : int option;
}

type t = {
  rule : string;
  severity : severity;
  loc : loc;
  message : string;
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let program_loc = { func = ""; task = None; block = None; insn = None }

let in_func ?task ?block ?insn func = { func; task; block; insn }

let make severity ~rule loc fmt =
  Format.kasprintf (fun message -> { rule; severity; loc; message }) fmt

let error ~rule loc fmt = make Error ~rule loc fmt
let warning ~rule loc fmt = make Warning ~rule loc fmt
let info ~rule loc fmt = make Info ~rule loc fmt

let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c =
      Stdlib.compare
        (a.loc.func, a.loc.task, a.loc.block, a.loc.insn)
        (b.loc.func, b.loc.task, b.loc.block, b.loc.insn)
    in
    if c <> 0 then c else Stdlib.compare (a.rule, a.message) (b.rule, b.message)

let pp_loc ppf loc =
  let parts =
    (if loc.func = "" then [] else [ loc.func ])
    @ (match loc.task with Some i -> [ Printf.sprintf "task %d" i ] | None -> [])
    @ (match loc.block with Some b -> [ Printf.sprintf "L%d" b ] | None -> [])
    @ (match loc.insn with Some i -> [ Printf.sprintf "i%d" i ] | None -> [])
  in
  Format.pp_print_string ppf
    (match parts with [] -> "<program>" | ps -> String.concat "/" ps)

let pp ppf d =
  Format.fprintf ppf "%s %s at %a: %s" (severity_name d.severity) d.rule pp_loc
    d.loc d.message

(* --- rule registry --------------------------------------------------------- *)

let rules : (string, string) Hashtbl.t = Hashtbl.create 64

let register_rule id desc =
  if id = "" || Hashtbl.mem rules id then
    invalid_arg (Printf.sprintf "Diag.register_rule: duplicate rule id %S" id)
  else Hashtbl.replace rules id desc

let registered_rules () =
  List.sort Stdlib.compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rules [])

let opt_int = function
  | Some i -> Harness.Json.Int i
  | None -> Harness.Json.Null

let to_json d =
  Harness.Json.Obj
    [
      ("rule", Harness.Json.String d.rule);
      ("severity", Harness.Json.String (severity_name d.severity));
      ("func", Harness.Json.String d.loc.func);
      ("task", opt_int d.loc.task);
      ("block", opt_int d.loc.block);
      ("insn", opt_int d.loc.insn);
      ("message", Harness.Json.String d.message);
    ]

let list_to_json ds = Harness.Json.List (List.map to_json ds)
