type label = int

type terminator =
  | Jump of label
  | Br of Reg.t * label * label
  | Switch of Reg.t * label array * label
  | Call of string * label
  | Ret
  | Halt

type t = {
  label : label;
  insns : Insn.t array;
  term : terminator;
}

(* A switch's distinct labels ascending, by repeated minimum: each round
   visits the least label above the one visited last.  Labels are
   non-negative, so [max_int] is no label. *)
let rec iter_switch f targets default last =
  let next = ref (if default > last then default else max_int) in
  for k = 0 to Array.length targets - 1 do
    let t = targets.(k) in
    if t > last && t < !next then next := t
  done;
  if !next < max_int then begin
    f !next;
    iter_switch f targets default !next
  end

let iter_succs f b =
  match b.term with
  | Jump l | Call (_, l) -> f l
  | Br (_, l1, l2) ->
    f l1;
    if l2 <> l1 then f l2
  | Switch (_, targets, default) -> iter_switch f targets default min_int
  | Ret | Halt -> ()

let successors b =
  let acc = ref [] in
  iter_succs (fun l -> acc := l :: !acc) b;
  List.rev !acc

let map_term ~label ~cond = function
  | Jump l -> Jump (label l)
  | Br (c, l1, l2) -> Br (cond c, label l1, label l2)
  | Switch (c, targets, d) -> Switch (cond c, Array.map label targets, label d)
  | Call (f, l) -> Call (f, label l)
  | (Ret | Halt) as t -> t

let size b = Array.length b.insns + 1

let pp_term ppf = function
  | Jump l -> Format.fprintf ppf "jump L%d" l
  | Br (c, l1, l2) -> Format.fprintf ppf "br %s, L%d, L%d" (Reg.name c) l1 l2
  | Switch (c, ts, d) ->
    Format.fprintf ppf "switch %s, [%s], L%d" (Reg.name c)
      (String.concat "; "
         (Array.to_list (Array.map (fun l -> "L" ^ string_of_int l) ts)))
      d
  | Call (f, cont) -> Format.fprintf ppf "call %s -> L%d" f cont
  | Ret -> Format.pp_print_string ppf "ret"
  | Halt -> Format.pp_print_string ppf "halt"

let pp ppf b =
  Format.fprintf ppf "@[<v 2>L%d:" b.label;
  Array.iter (fun i -> Format.fprintf ppf "@,%a" Insn.pp i) b.insns;
  Format.fprintf ppf "@,%a@]" pp_term b.term
