(** Textual IR: parsing the format {!Pp.program} prints.

    A program file is a sequence of items ('#' starts a comment, but only
    at the beginning of a line — elsewhere it marks immediates):
    {v
    # comment
    data 4096 int 1 2 3
    data 5000 flt 0.5 1.25
    memtop 5100
    func main {
    L0:
      li t0, 5
      add t1, t0, #3
      br t1, L1, L2
    L1:
      ret
    L2:
      halt
    }
    main main
    v}

    Blocks must be labelled [L0..Ln-1] in order; every function needs at
    least one block; [main] defaults to ["main"].  Each [data] line is read
    straight into one unboxed array; a line with no values adds no run,
    and lines that continue one another merge into one run
    ({!Prog.runs}), so a printed program's lines come back as its runs.
    The optional [memtop] directive raises the program's memory bound
    past the last initialised cell, preserving scratch regions builder
    programs reserve without initialising (the dependence analyses read
    {!Prog.t.mem_top}). *)

val program : string -> (Prog.t, string) result
(** Parse a whole program from a string.  The result is validated. *)

val insn : string -> (Insn.t, string) result
(** Parse a single instruction, e.g. ["add t1, t0, #3"]. *)
