(* Replay of observed cross-instance store->load flows (see memflow.mli).
   One linear pass over the packed trace, allocating only as its tables
   grow, never per address replayed: an [Occ.Intmap] maps each effective
   address to the instance that last stored it, packed as one int, and
   another maps each packed (source, destination) task pair to its slot in
   growable arrays of counts and first addresses. *)

type edge = {
  src_fid : int;
  src_task : int;
  dst_fid : int;
  dst_task : int;
  count : int;
  addr : int;
}

(* A task is the pair [(fid lsl 16) lor task], a store the int
   [(instance lsl 28) lor pair] and an edge key [(src lsl 28) lor dst] of
   two pairs, so keys order as the (src_fid, src_task, dst_fid, dst_task)
   tuples do, and both stay non-negative, as [Occ.Intmap] values must. *)
let fid_bits = 12
let task_bits = 16
let pair_bits = fid_bits + task_bits
let instance_bits = 34

let check_fits what ~bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg
      (Printf.sprintf "Memflow.observed: %s %d exceeds %d bits" what v bits)

let low ~bits v = v land ((1 lsl bits) - 1)

(* Per (fid, blk): the Load/Store pattern of the block's memory instructions
   in instruction order — the same order the trace records the event's
   effective addresses in. *)
let mem_kinds (tr : Interp.Trace.t) =
  Array.map
    (fun (f : Ir.Func.t) ->
      Array.map
        (fun (b : Ir.Block.t) ->
          let ks = ref [] in
          Array.iter
            (function
              | Ir.Insn.Load _ -> ks := false :: !ks
              | Ir.Insn.Store _ -> ks := true :: !ks
              | _ -> ())
            b.Ir.Block.insns;
          Array.of_list (List.rev !ks))
        f.Ir.Func.blocks)
    tr.Interp.Trace.funcs

let observed tr ~parts =
  let kinds = mem_kinds tr in
  let last_store = Occ.Intmap.create 16 in
  let slot_of_key = Occ.Intmap.create 16 in
  (* per edge slot: its count and its first address *)
  let counts = ref (Array.make 16 0) in
  let addrs = ref (Array.make 16 0) in
  let n = ref 0 in
  let grow a =
    let bigger = Array.make (2 * Array.length !a) 0 in
    Array.blit !a 0 bigger 0 !n;
    a := bigger
  in
  let w = Dyntask.walk (Dyntask.program tr ~parts) tr in
  while Dyntask.next w do
    let k = Dyntask.index w in
    let fid = Dyntask.fid w and task = Dyntask.task w in
    check_fits "instance" ~bits:instance_bits k;
    check_fits "fid" ~bits:fid_bits fid;
    check_fits "task" ~bits:task_bits task;
    let dst = (fid lsl task_bits) lor task in
    let store = (k lsl pair_bits) lor dst in
    for ev = Dyntask.first w to Dyntask.last w do
      let ka =
        kinds.(Interp.Trace.get_fid tr ev).(Interp.Trace.get_blk tr ev)
      in
      let off = Interp.Trace.addr_offset tr ev in
      for j = 0 to Array.length ka - 1 do
        let addr = Interp.Trace.addr_at tr (off + j) in
        if ka.(j) then Occ.Intmap.set last_store addr store
        else begin
          let s = Occ.Intmap.find last_store addr in
          if s >= 0 && s lsr pair_bits < k then begin
            let key = (low ~bits:pair_bits s lsl pair_bits) lor dst in
            let slot = Occ.Intmap.find slot_of_key key in
            if slot >= 0 then !counts.(slot) <- !counts.(slot) + 1
            else begin
              if !n = Array.length !counts then begin
                grow counts;
                grow addrs
              end;
              !counts.(!n) <- 1;
              !addrs.(!n) <- addr;
              Occ.Intmap.set slot_of_key key !n;
              incr n
            end
          end
        end
      done
    done
  done;
  let slots = ref [] in
  Occ.Intmap.iter slot_of_key (fun key slot -> slots := (key, slot) :: !slots);
  List.sort compare !slots
  |> List.map (fun (key, slot) ->
         let src = key lsr pair_bits and dst = low ~bits:pair_bits key in
         {
           src_fid = src lsr task_bits;
           src_task = low ~bits:task_bits src;
           dst_fid = dst lsr task_bits;
           dst_task = low ~bits:task_bits dst;
           count = !counts.(slot);
           addr = !addrs.(slot);
         })
