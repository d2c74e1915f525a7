(** The semantics of scalar integer operations, shared by constant
    folding (fact inference, the rule checker, IR simplification), the
    simulator and the symbolic executor. *)

let ibin (k : Instr.ibin) w a b : int64 =
  let open Ints in
  match k with
  | Instr.Add -> add w a b
  | Instr.Sub -> sub w a b
  | Instr.Mul -> mul w a b
  | Instr.UDiv -> udiv w a b
  | Instr.SDiv -> sdiv w a b
  | Instr.URem -> urem w a b
  | Instr.SRem -> srem w a b
  | Instr.And -> logand w a b
  | Instr.Or -> logor w a b
  | Instr.Xor -> logxor w a b
  | Instr.Shl -> shl w a b
  | Instr.LShr -> lshr w a b
  | Instr.AShr -> ashr w a b
  | Instr.SMin -> smin w a b
  | Instr.SMax -> smax w a b
  | Instr.UMin -> umin w a b
  | Instr.UMax -> umax w a b
  | Instr.UAddSat -> uadd_sat w a b
  | Instr.SAddSat -> sadd_sat w a b
  | Instr.USubSat -> usub_sat w a b
  | Instr.SSubSat -> ssub_sat w a b
  | Instr.AvgrU -> avgr_u w a b
  | Instr.AbsDiffU -> abs_diff_u w a b
  | Instr.MulHiS -> mulhi_s w a b
  | Instr.MulHiU -> mulhi_u w a b

let iun (k : Instr.iun) w a : int64 =
  let open Ints in
  match k with
  | Instr.INot -> lognot w a
  | Instr.INeg -> neg w a
  | Instr.IAbs -> abs w a
  | Instr.Clz -> clz w a
  | Instr.Ctz -> ctz w a
  | Instr.Popcnt -> popcnt w a

let icmp (p : Instr.ipred) w a b : bool =
  let open Ints in
  match p with
  | Instr.Eq -> norm w a = norm w b
  | Instr.Ne -> norm w a <> norm w b
  | Instr.Ult -> ucompare w a b < 0
  | Instr.Ule -> ucompare w a b <= 0
  | Instr.Ugt -> ucompare w a b > 0
  | Instr.Uge -> ucompare w a b >= 0
  | Instr.Slt -> scompare w a b < 0
  | Instr.Sle -> scompare w a b <= 0
  | Instr.Sgt -> scompare w a b > 0
  | Instr.Sge -> scompare w a b >= 0
