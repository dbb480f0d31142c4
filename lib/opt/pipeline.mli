(** The optimisation pipeline: constant/copy propagation + folding, local
    CSE, peephole simplification and global DCE, iterated to a (bounded)
    fixpoint — the moral equivalent of the "-O2" the paper's binaries were
    built with.  Semantics are preserved (checked by the test suite over
    every workload and by property tests). *)

val run : Ir.Prog.t -> Ir.Prog.t
(** At most 4 rounds; stops early when a round changes nothing. *)
