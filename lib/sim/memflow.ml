(* Replay of observed cross-instance store->load flows (see memflow.mli).
   One linear pass over the packed trace: a hash table maps each effective
   address to the instance that last stored it. *)

type edge = {
  src_fid : int;
  src_task : int;
  dst_fid : int;
  dst_task : int;
  count : int;
  addr : int;
}

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
  let last_store = Hashtbl.create 4096 in
  let edges : (int * int * int * int, int ref * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let w = Dyntask.walk (Dyntask.program tr ~parts) tr in
  while Dyntask.next w do
    let k = Dyntask.index w in
    let fid = Dyntask.fid w and task = Dyntask.task w in
    for ev = Dyntask.first w to Dyntask.last w do
      let ka =
        kinds.(Interp.Trace.get_fid tr ev).(Interp.Trace.get_blk tr ev)
      in
      let off = Interp.Trace.addr_offset tr ev in
      for j = 0 to Array.length ka - 1 do
        let addr = Interp.Trace.addr_at tr (off + j) in
        if ka.(j) then Hashtbl.replace last_store addr (k, fid, task)
        else
          match Hashtbl.find_opt last_store addr with
          | Some (k', f', t') when k' < k -> (
            let key = (f', t', fid, task) in
            match Hashtbl.find_opt edges key with
            | Some (n, _) -> incr n
            | None -> Hashtbl.replace edges key (ref 1, addr))
          | _ -> ()
      done
    done
  done;
  Hashtbl.fold
    (fun (src_fid, src_task, dst_fid, dst_task) (n, addr) acc ->
      { src_fid; src_task; dst_fid; dst_task; count = !n; addr } :: acc)
    edges []
  |> List.sort (fun a b ->
         compare
           (a.src_fid, a.src_task, a.dst_fid, a.dst_task)
           (b.src_fid, b.src_task, b.dst_fid, b.dst_task))
