module Smap = Map.Make (String)

type cells = Ints of int array | Flts of float array

type t = {
  funcs : Func.t Smap.t;
  main : string;
  mem_init : (int * cells) list;
  mem_top : int;
}

let length = function Ints a -> Array.length a | Flts a -> Array.length a

let continues (base, cells) (base', cells') =
  base' = base + length cells
  &&
  match cells, cells' with
  | Ints _, Ints _ | Flts _, Flts _ -> true
  | Ints _, Flts _ | Flts _, Ints _ -> false

let ints = function Ints a -> a | Flts _ -> [||]
let flts = function Flts a -> a | Ints _ -> [||]

(* one pass: each group of pieces that continue one another is
   concatenated once *)
let runs pieces =
  let flush group acc =
    match List.rev group with
    | [] -> acc
    | [ run ] -> run :: acc
    | (base, cells) :: _ as group ->
      let cat f = Array.concat (List.map (fun (_, c) -> f c) group) in
      (base, match cells with Ints _ -> Ints (cat ints) | Flts _ -> Flts (cat flts))
      :: acc
  in
  let rec go group acc = function
    | [] -> List.rev (flush group acc)
    | (_, cells) :: rest when length cells = 0 -> go group acc rest
    | piece :: rest -> (
      match group with
      | prev :: _ when continues prev piece -> go (piece :: group) acc rest
      | _ -> go [ piece ] (flush group acc) rest)
  in
  go [] [] pieces

let find p name = Smap.find name p.funcs
let has_func p name = Smap.mem name p.funcs
let func_names p = List.map fst (Smap.bindings p.funcs)

let static_size p =
  Smap.fold (fun _ f acc -> acc + Func.static_size f) p.funcs 0

let map_funcs g p = { p with funcs = Smap.map g p.funcs }

let validate p =
  let result = ref (Ok ()) in
  let fail fmt =
    Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt
  in
  if not (has_func p p.main) then fail "main function %s missing" p.main;
  Smap.iter
    (fun _ f ->
      (match Func.validate f with
      | Ok () -> ()
      | Error e -> fail "%s" e);
      List.iter
        (fun callee ->
          if not (has_func p callee) then
            fail "function %s calls undefined %s" f.Func.name callee)
        (Func.callees f))
    p.funcs;
  !result

let pp ppf p =
  Format.fprintf ppf "@[<v>program (main = %s)" p.main;
  Smap.iter (fun _ f -> Format.fprintf ppf "@,%a" Func.pp f) p.funcs;
  Format.fprintf ppf "@]"
