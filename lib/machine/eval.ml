(** Pure operational semantics of PIR data operations.

    Memory operations need machine state and live in [State.exec] (their
    lane loops in [Memory]); calls and phis belong to each engine.
    Everything value-to-value is here, shared by the interpreter, the
    SPMD reference executor and the VM's fallback and closure forms;
    the scalar integer operations are [Pir.Fold]'s. *)

open Pir.Instr

(* One-shot dispatch on the opcode, returning the scalar operation as a
   closure: the vector paths below resolve the opcode (and width) once
   per instruction execution instead of once per lane. *)
let ibin_fn (k : ibin) (w : int) : int64 -> int64 -> int64 =
  let open Pir.Ints in
  match k with
  | Add -> add w
  | Sub -> sub w
  | Mul -> mul w
  | UDiv -> udiv w
  | SDiv -> sdiv w
  | URem -> urem w
  | SRem -> srem w
  | And -> logand w
  | Or -> logor w
  | Xor -> logxor w
  | Shl -> shl w
  | LShr -> lshr w
  | AShr -> ashr w
  | SMin -> smin w
  | SMax -> smax w
  | UMin -> umin w
  | UMax -> umax w
  | UAddSat -> uadd_sat w
  | SAddSat -> sadd_sat w
  | USubSat -> usub_sat w
  | SSubSat -> ssub_sat w
  | AvgrU -> avgr_u w
  | AbsDiffU -> abs_diff_u w
  | MulHiS -> mulhi_s w
  | MulHiU -> mulhi_u w

let fbin_scalar (k : fbin) (s : Pir.Types.scalar) a b : float =
  let r = Value.round_float s in
  let a = r a and b = r b in
  r
    (match k with
    | FAdd -> a +. b
    | FSub -> a -. b
    | FMul -> a *. b
    | FDiv -> a /. b
    | FMin -> Float.min a b
    | FMax -> Float.max a b)

let fbin_fn (k : fbin) (s : Pir.Types.scalar) : float -> float -> float =
  let r = Value.round_float s in
  match k with
  | FAdd -> fun a b -> r (r a +. r b)
  | FSub -> fun a b -> r (r a -. r b)
  | FMul -> fun a b -> r (r a *. r b)
  | FDiv -> fun a b -> r (r a /. r b)
  | FMin -> fun a b -> r (Float.min (r a) (r b))
  | FMax -> fun a b -> r (Float.max (r a) (r b))

let fun_scalar (k : fun_) (s : Pir.Types.scalar) a : float =
  let r = Value.round_float s in
  let a = r a in
  r
    (match k with
    | FNeg -> -.a
    | FAbs -> Float.abs a
    | FSqrt -> sqrt a
    | FFloor -> Float.floor a
    | FCeil -> Float.ceil a)

let iun_fn (k : iun) (w : int) : int64 -> int64 =
  let open Pir.Ints in
  match k with
  | INot -> lognot w
  | INeg -> neg w
  | IAbs -> abs w
  | Clz -> clz w
  | Ctz -> ctz w
  | Popcnt -> popcnt w

let fun_fn (k : fun_) (s : Pir.Types.scalar) : float -> float =
  let r = Value.round_float s in
  match k with
  | FNeg -> fun a -> r (-.r a)
  | FAbs -> fun a -> r (Float.abs (r a))
  | FSqrt -> fun a -> r (sqrt (r a))
  | FFloor -> fun a -> r (Float.floor (r a))
  | FCeil -> fun a -> r (Float.ceil (r a))

let icmp_fn (p : ipred) (w : int) : int64 -> int64 -> bool =
  let open Pir.Ints in
  match p with
  | Eq -> fun a b -> norm w a = norm w b
  | Ne -> fun a b -> norm w a <> norm w b
  | Ult -> fun a b -> ucompare w a b < 0
  | Ule -> fun a b -> ucompare w a b <= 0
  | Ugt -> fun a b -> ucompare w a b > 0
  | Uge -> fun a b -> ucompare w a b >= 0
  | Slt -> fun a b -> scompare w a b < 0
  | Sle -> fun a b -> scompare w a b <= 0
  | Sgt -> fun a b -> scompare w a b > 0
  | Sge -> fun a b -> scompare w a b >= 0

let fcmp_scalar (p : fpred) a b : bool =
  match p with
  | Oeq -> a = b
  | One -> a < b || a > b
  | Olt -> a < b
  | Ole -> a <= b
  | Ogt -> a > b
  | Oge -> a >= b

let fcmp_fn (p : fpred) : float -> float -> bool =
  match p with
  | Oeq -> fun a b -> a = b
  | One -> fun a b -> a < b || a > b
  | Olt -> fun a b -> a < b
  | Ole -> fun a b -> a <= b
  | Ogt -> fun a b -> a > b
  | Oge -> fun a b -> a >= b

(** Convert one scalar value between kinds. *)
let cast_scalar (k : cast_kind) (src : Pir.Types.scalar) (dst : Pir.Types.scalar)
    (v : Value.t) : Value.t =
  let open Pir.Ints in
  let ws = Pir.Types.scalar_bits src and wd = Pir.Types.scalar_bits dst in
  match (k, v) with
  | Trunc, Value.I x -> Value.I (norm wd x)
  | ZExt, Value.I x -> Value.I (zext ws x)
  | SExt, Value.I x -> Value.I (norm wd (sext ws x))
  | (FPTrunc | FPExt), Value.F x -> Value.F (Value.round_float dst x)
  | FPToSI, Value.F x ->
      let x = Float.trunc x in
      let i = if Float.is_nan x then 0L else Int64.of_float x in
      Value.I (norm wd i)
  | FPToUI, Value.F x ->
      let x = Float.trunc x in
      let i = if Float.is_nan x || x < 0.0 then 0L else Int64.of_float x in
      Value.I (norm wd i)
  | SIToFP, Value.I x -> Value.F (Value.round_float dst (Int64.to_float (sext ws x)))
  | UIToFP, Value.I x ->
      let x = zext ws x in
      let f =
        if x >= 0L then Int64.to_float x
        else Int64.to_float x +. 18446744073709551616.0
      in
      Value.F (Value.round_float dst f)
  | Bitcast, Value.I x when ws = wd && Pir.Types.is_float_scalar dst ->
      Value.F
        (if wd = 32 then Int32.float_of_bits (Int64.to_int32 x)
         else Int64.float_of_bits x)
  | Bitcast, Value.F x when ws = wd && Pir.Types.is_int_scalar dst ->
      Value.I
        (if ws = 32 then norm 32 (Int64.of_int32 (Int32.bits_of_float x))
         else Int64.bits_of_float x)
  | Bitcast, v -> v
  | _, v ->
      Fmt.invalid_arg "Eval.cast_scalar: %a %a -> %a" Value.pp v Pir.Types.pp
        (Pir.Types.Scalar src) Pir.Types.pp (Pir.Types.Scalar dst)

(* -- vector lifting --

   Tight loops over preallocated result arrays: no per-lane closures,
   no [Array.init] allocation of the element function. *)

let map2i f x y =
  let n = Array.length x in
  let r = Array.make n 0L in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i) (Array.unsafe_get y i))
  done;
  r

let map2f f x y =
  let n = Array.length x in
  let r = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i) (Array.unsafe_get y i))
  done;
  r

let map1i f x =
  let n = Array.length x in
  let r = Array.make n 0L in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i))
  done;
  r

let map1f f x =
  let n = Array.length x in
  let r = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i))
  done;
  r

(* lane-wise predicate to an i1-per-lane mask vector *)
let map2_mask f x y =
  let n = Array.length x in
  let r = Array.make n 0L in
  for i = 0 to n - 1 do
    if f (Array.unsafe_get x i) (Array.unsafe_get y i) then
      Array.unsafe_set r i 1L
  done;
  r

let reduce_value (k : reduce_kind) (s : Pir.Types.scalar) (v : Value.t) : Value.t =
  let w = Pir.Types.scalar_bits s in
  let open Pir.Ints in
  match (k, v) with
  | RAny, Value.VI a -> Value.of_bool (Array.exists (fun x -> x <> 0L) a)
  | RAll, Value.VI a -> Value.of_bool (Array.for_all (fun x -> x <> 0L) a)
  | RAdd, Value.VI a -> Value.I (Array.fold_left (add w) 0L a)
  | RAnd, Value.VI a -> Value.I (Array.fold_left (logand w) (mask_of_bits w) a)
  | ROr, Value.VI a -> Value.I (Array.fold_left (logor w) 0L a)
  | RXor, Value.VI a -> Value.I (Array.fold_left (logxor w) 0L a)
  | RSMin, Value.VI a -> Value.I (Array.fold_left (smin w) a.(0) a)
  | RSMax, Value.VI a -> Value.I (Array.fold_left (smax w) a.(0) a)
  | RUMin, Value.VI a -> Value.I (Array.fold_left (umin w) a.(0) a)
  | RUMax, Value.VI a -> Value.I (Array.fold_left (umax w) a.(0) a)
  | RFAdd, Value.VF a -> Value.F (Array.fold_left (fbin_fn FAdd s) 0.0 a)
  | RFMin, Value.VF a -> Value.F (Array.fold_left Float.min a.(0) a)
  | RFMax, Value.VF a -> Value.F (Array.fold_left Float.max a.(0) a)
  | _ -> Fmt.invalid_arg "Eval.reduce: %a" Value.pp v

(** Evaluate a pure (non-memory, non-call, non-phi) operation.
    [ty] is the result type; [operand_ty] and [get] resolve operands. *)
let pure_op ~(ty : Pir.Types.t) ~(operand_ty : operand -> Pir.Types.t)
    ~(get : operand -> Value.t) (op : op) : Value.t =
  let scalar_of o = Pir.Types.elem (operand_ty o) in
  match op with
  | Ibin (k, a, b) -> (
      let s = scalar_of a in
      let w = Pir.Types.scalar_bits s in
      match (get a, get b) with
      | Value.I x, Value.I y -> Value.I (Pir.Fold.ibin k w x y)
      | Value.VI x, Value.VI y -> Value.VI (map2i (ibin_fn k w) x y)
      | va, vb -> Fmt.invalid_arg "Eval.map2v: %a, %a" Value.pp va Value.pp vb)
  | Fbin (k, a, b) -> (
      let s = scalar_of a in
      match (get a, get b) with
      | Value.F x, Value.F y -> Value.F (fbin_scalar k s x y)
      | Value.VF x, Value.VF y -> Value.VF (map2f (fbin_fn k s) x y)
      | va, vb -> Fmt.invalid_arg "Eval.fbin: %a, %a" Value.pp va Value.pp vb)
  | Iun (k, a) -> (
      let w = Pir.Types.scalar_bits (scalar_of a) in
      match get a with
      | Value.I x -> Value.I (Pir.Fold.iun k w x)
      | Value.VI x -> Value.VI (map1i (iun_fn k w) x)
      | v -> Fmt.invalid_arg "Eval.iun: %a" Value.pp v)
  | Fun (k, a) -> (
      let s = scalar_of a in
      match get a with
      | Value.F x -> Value.F (fun_scalar k s x)
      | Value.VF x -> Value.VF (map1f (fun_fn k s) x)
      | v -> Fmt.invalid_arg "Eval.fun: %a" Value.pp v)
  | Icmp (p, a, b) -> (
      let w = Pir.Types.scalar_bits (scalar_of a) in
      match (get a, get b) with
      | Value.I x, Value.I y -> Value.of_bool (Pir.Fold.icmp p w x y)
      | Value.VI x, Value.VI y -> Value.VI (map2_mask (icmp_fn p w) x y)
      | va, vb -> Fmt.invalid_arg "Eval.icmp: %a, %a" Value.pp va Value.pp vb)
  | Fcmp (p, a, b) -> (
      match (get a, get b) with
      | Value.F x, Value.F y -> Value.of_bool (fcmp_scalar p x y)
      | Value.VF x, Value.VF y -> Value.VI (map2_mask (fcmp_fn p) x y)
      | va, vb -> Fmt.invalid_arg "Eval.fcmp: %a, %a" Value.pp va Value.pp vb)
  | Select (c, a, b) -> (
      match get c with
      | Value.I cv -> if cv <> 0L then get a else get b
      | Value.VI mask -> (
          match (get a, get b) with
          | Value.VI x, Value.VI y ->
              let n = Array.length x in
              let r = Array.make n 0L in
              for i = 0 to n - 1 do
                Array.unsafe_set r i
                  (if Array.unsafe_get mask i <> 0L then Array.unsafe_get x i
                   else Array.unsafe_get y i)
              done;
              Value.VI r
          | Value.VF x, Value.VF y ->
              let n = Array.length x in
              let r = Array.make n 0.0 in
              for i = 0 to n - 1 do
                Array.unsafe_set r i
                  (if Array.unsafe_get mask i <> 0L then Array.unsafe_get x i
                   else Array.unsafe_get y i)
              done;
              Value.VF r
          | va, vb -> Fmt.invalid_arg "Eval.select: %a, %a" Value.pp va Value.pp vb)
      | v -> Fmt.invalid_arg "Eval.select cond: %a" Value.pp v)
  | Cast (k, a, _) -> (
      let src = scalar_of a and dst = Pir.Types.elem ty in
      match get a with
      | (Value.I _ | Value.F _) as v -> cast_scalar k src dst v
      | Value.VI x ->
          Value.of_lanes dst (Array.map (fun v -> cast_scalar k src dst (Value.I v)) x)
      | Value.VF x ->
          Value.of_lanes dst (Array.map (fun v -> cast_scalar k src dst (Value.F v)) x)
      | v -> Fmt.invalid_arg "Eval.cast: %a" Value.pp v)
  | Splat (a, n) -> Value.splat (Pir.Types.elem ty) n (get a)
  | Shuffle (a, b, idx) -> (
      let pick na get_lane_a get_lane_b zero =
        Array.map
          (fun k ->
            if k = -1 then zero
            else if k < na then get_lane_a k
            else get_lane_b (k - na))
          idx
      in
      match (get a, get b) with
      | Value.VI x, Value.VI y ->
          Value.VI (pick (Array.length x) (Array.get x) (Array.get y) 0L)
      | Value.VF x, Value.VF y ->
          Value.VF (pick (Array.length x) (Array.get x) (Array.get y) 0.0)
      | va, vb -> Fmt.invalid_arg "Eval.shuffle: %a, %a" Value.pp va Value.pp vb)
  | ShuffleDyn (a, i) -> (
      let idx = Value.as_ivec (get i) in
      let n = Array.length idx in
      let sel k = Int64.to_int (Int64.logand k (Int64.of_int (n - 1))) in
      (* out-of-range indices wrap modulo the lane count (power-of-two
         gangs), matching the psim_shuffle_sync specification *)
      match get a with
      | Value.VI x -> Value.VI (Array.init n (fun l -> x.(sel idx.(l) mod n)))
      | Value.VF x -> Value.VF (Array.init n (fun l -> x.(sel idx.(l) mod n)))
      | v -> Fmt.invalid_arg "Eval.shuffle_dyn: %a" Value.pp v)
  | ExtractLane (v, i) ->
      let idx = Int64.to_int (Value.as_int (get i)) in
      Value.lane (get v) idx
  | InsertLane (v, x, i) ->
      let idx = Int64.to_int (Value.as_int (get i)) in
      Value.set_lane (get v) idx (get x)
  | Reduce (k, v) -> reduce_value k (Pir.Types.elem (operand_ty v)) (get v)
  | FirstLane m -> (
      let a = Value.as_ivec (get m) in
      let rec find i =
        if i >= Array.length a then -1 else if a.(i) <> 0L then i else find (i + 1)
      in
      Value.I (Int64.of_int (find 0)))
  | Psadbw (a, b) ->
      let x = Value.as_ivec (get a) and y = Value.as_ivec (get b) in
      let groups = Array.length x / 8 in
      Value.VI
        (Array.init groups (fun g ->
             let acc = ref 0L in
             for k = 0 to 7 do
               let i = (g * 8) + k in
               acc := Int64.add !acc (Pir.Ints.abs_diff_u 8 x.(i) y.(i))
             done;
             !acc))
  | Alloca _ | Load _ | Store _ | Gep _ | Call _ | Phi _ | VLoad _ | VStore _
  | Gather _ | Scatter _ ->
      invalid_arg "Eval.pure_op: not a pure operation"
