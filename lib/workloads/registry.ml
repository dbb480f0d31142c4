(* Workload registry: entry type for the synthetic SPEC95 suite (see Suite
   for the list). *)

type kind = [ `Int | `Fp ]

type entry = {
  name : string;
  kind : kind;
  build : unit -> Ir.Prog.t;
  build_alt : unit -> Ir.Prog.t;
      (* the same program structure over an alternative input (different
         data seeds): used for cross-input profile-robustness studies *)
  description : string;
}

let kind_name = function `Int -> "int" | `Fp -> "fp"

(* A program from outside the suite (a fuzz program, a parsed file) as an
   entry, its own alternative input, so it builds through Harness.Artifact
   like a workload.  A store keys its pipelines by entry name, so it must
   hold one program per name: fuzzing gives each program a private store. *)
let of_program ~name prog =
  let build () = prog in
  { name; kind = `Int; build; build_alt = build; description = "given as IR" }
