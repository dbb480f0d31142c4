(** Observed cross-task memory dependences, replayed from a packed trace.

    Walks the dynamic task instances ({!Dyntask.t}) in order, tracking
    the last store to every effective address; a load served by a store
    from a {e strictly earlier} instance is an observed inter-task memory
    dependence — exactly the flows the Multiscalar ARB must catch and the
    [dep/sound] lint rule checks against the static prediction of
    {!Core.Depend}.  Intra-instance flows are excluded (they resolve inside
    one PU); two instances of the same static task (loop re-entry) are not
    — those stress inter-task speculation just the same. *)

type edge = {
  src_fid : int;
  src_task : int;  (** task index within the source function's partition *)
  dst_fid : int;
  dst_task : int;
  count : int;  (** dynamic load occurrences backing this static pair *)
  addr : int;  (** one sample effective address, for diagnostics *)
}

val observed : Interp.Trace.t -> parts:Core.Task.partition array -> edge list
(** Distinct (source task, destination task) pairs, sorted by
    [(src_fid, src_task, dst_fid, dst_task)]; [parts] is indexed by fid.
    Stores inside included callees attribute to the enclosing instance's
    task, as the walk does.  Allocates only as its tables grow, never per
    address replayed: two [Occ.Intmap]s hold the last store to each
    address and each pair's slot.  @raise Dyntask.Not_closed as the walk does.
    @raise Invalid_argument when an instance index exceeds 34 bits, a fid
    12 or a task index 16, the widths the packed keys give them. *)
