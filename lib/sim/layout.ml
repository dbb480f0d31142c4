type t = {
  addr : int array array;   (* addr.(fid).(blk) = word address *)
  id : int array array;     (* id.(fid).(blk) = dense block id *)
  total_blocks : int;
}

let code_base = 1 lsl 26

let create funcs =
  let next_addr = ref code_base in
  let next_id = ref 0 in
  let addr =
    Array.map
      (fun f ->
        Array.map
          (fun b ->
            let a = !next_addr in
            next_addr := !next_addr + Ir.Block.size b;
            a)
          f.Ir.Func.blocks)
      funcs
  in
  let id =
    Array.map
      (fun f ->
        Array.map
          (fun _ ->
            let i = !next_id in
            incr next_id;
            i)
          f.Ir.Func.blocks)
      funcs
  in
  { addr; id; total_blocks = !next_id }

let block_addr t ~fid ~blk = t.addr.(fid).(blk)
let block_id t ~fid ~blk = t.id.(fid).(blk)
let site_id t ~fid ~blk ~idx = t.addr.(fid).(blk) - code_base + idx
let num_blocks t = t.total_blocks
