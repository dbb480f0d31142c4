module Lcg = struct
  type t = { mutable state : int }

  let create seed = { state = (seed lor 1) land 0x3FFFFFFF }

  let next t =
    t.state <- (t.state * 1103515245 + 12345) land 0x3FFFFFFF;
    t.state

  (* multiply-shift on the high bits: the low bits of an LCG cycle with
     tiny periods (low bit k has period 2^k), so [mod] would make every
     bounded stream periodic *)
  let below t n = if n <= 0 then 0 else (next t * n) lsr 30

  let float01 t = float_of_int (next t) /. float_of_int 0x40000000
end

let ints ~seed ~n ~bound =
  let g = Lcg.create seed in
  List.init n (fun _ -> Lcg.below g bound)

let floats ~seed ~n =
  let g = Lcg.create seed in
  List.init n (fun _ -> Lcg.float01 g)

let t0 = Ir.Reg.tmp 0
let t1 = Ir.Reg.tmp 1
let t2 = Ir.Reg.tmp 2
let t3 = Ir.Reg.tmp 3
let t4 = Ir.Reg.tmp 4
let t5 = Ir.Reg.tmp 5
let t6 = Ir.Reg.tmp 6
let t7 = Ir.Reg.tmp 7
let t8 = Ir.Reg.tmp 8
let t9 = Ir.Reg.tmp 9
let t10 = Ir.Reg.tmp 10
let t11 = Ir.Reg.tmp 11
let t12 = Ir.Reg.tmp 12
let t13 = Ir.Reg.tmp 13
let t14 = Ir.Reg.tmp 14

let imm n = Ir.Insn.Imm n
let reg r = Ir.Insn.Reg r

let push b r =
  Ir.Builder.addi b Ir.Reg.sp Ir.Reg.sp (-1);
  Ir.Builder.store b r Ir.Reg.sp 0

let pop b r =
  Ir.Builder.load b r Ir.Reg.sp 0;
  Ir.Builder.addi b Ir.Reg.sp Ir.Reg.sp 1

let load_at b ~dst ~base ~index ~scratch =
  Ir.Builder.addi b scratch index base;
  Ir.Builder.load b dst scratch 0

let store_at b ~src ~base ~index ~scratch =
  Ir.Builder.addi b scratch index base;
  Ir.Builder.store b src scratch 0
