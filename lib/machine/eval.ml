(** Pure operational semantics of PIR data operations.

    Memory operations need machine state and live in [State.exec] (their
    lane loops in [Memory]); calls and phis belong to each engine.
    Everything value-to-value is here, shared by the interpreter, the
    SPMD reference executor and the VM; the scalar integer operations
    are [Pir.Fold]'s.

    Vector operations with integer lanes run through the lane kernels
    below ([ibin_lanes], [icmp_lanes], [cast_lanes], [select_lanes],
    ...).  A kernel checks its operands' classes, lane counts and width
    once per instruction, then loops over the lanes into a destination
    vector the caller supplies: the VM passes its destination register
    (a private one is overwritten in place), [pure_op] a fresh vector.
    So the two engines run one definition of each vector operation, and
    no integer lane is boxed on the way.  The lane arithmetic is exact:
    on native [int]s at widths up to 32 ([ibin_nat], ...), on [int64]s
    at width 64 ([ibin64], ...), both inlined into the loops so that no
    [int64] crosses a call.  At widths up to 32 a kernel matches its
    opcode once and runs that opcode's loop ([ibin_loop], ...); at width
    64 its one loop takes the opcode's case lane by lane.  A
    differential test in test/suite_vm.ml holds every kernel, through
    both engines, to [Pir.Fold] applied lane by lane. *)

open Pir.Instr

(** A fault of the running program other than a memory access out of
    bounds; [State] re-exports it as [State.Trap]. *)
exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

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

let fun_fn (k : fun_) (s : Pir.Types.scalar) : float -> float =
  let r = Value.round_float s in
  match k with
  | FNeg -> fun a -> r (-.r a)
  | FAbs -> fun a -> r (Float.abs (r a))
  | FSqrt -> fun a -> r (sqrt (r a))
  | FFloor -> fun a -> r (Float.floor (r a))
  | FCeil -> fun a -> r (Float.ceil (r a))

let fcmp_scalar (p : fpred) a b : bool =
  match p with
  | Oeq -> a = b
  | One -> a < b || a > b
  | Olt -> a < b
  | Ole -> a <= b
  | Ogt -> a > b
  | Oge -> a >= b

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

(* -- integer ALU at widths up to 32, on native [int]s --

   Bit-exact reimplementation of [Pir.Ints] (canonical zero-extended
   semantics): a canonical value of at most 32 bits is exact in an
   OCaml [int], and every masked operation below produces the same low
   [w] bits as its [Int64] counterpart, because 63-bit and 64-bit
   wraparound agree modulo 2^32.  The high halves of products, which
   need 64 bits, go through [Int64] temporaries that never leave the
   expression.  The VM's native register bank computes with these
   too. *)

let[@inline] mask_nat w = (1 lsl w) - 1

(* bit [w - 1] moved to the sign bit of the 63-bit [int] and back, with
   no branch *)
let[@inline] sext_nat w x = (x lsl (63 - w)) asr (63 - w)

(* a signed result clamped to width [w], canonical *)
let[@inline] ssat_nat w r =
  let hi = (1 lsl (w - 1)) - 1 in
  (if r > hi then hi else if r < -hi - 1 then -hi - 1 else r) land mask_nat w

let[@inline] ibin_nat (k : ibin) w a b : int =
  let m = mask_nat w in
  match k with
  | Add -> (a + b) land m
  | Sub -> (a - b) land m
  | Mul -> a * b land m
  | And -> a land b land m
  | Or -> (a lor b) land m
  | Xor -> (a lxor b) land m
  | Shl ->
      let s = (b land m) mod 64 in
      if s >= w then 0 else (a lsl s) land m
  | LShr ->
      let s = (b land m) mod 64 in
      if s >= w then 0 else (a land m) lsr s
  | AShr ->
      let s = (b land m) mod 64 in
      let s = if s >= w then w - 1 else s in
      (sext_nat w a asr s) land m
  | UDiv ->
      let d = b land m in
      if d = 0 then m else (a land m) / d
  | SDiv -> if b land m = 0 then m else (sext_nat w a / sext_nat w b) land m
  | URem ->
      let d = b land m in
      if d = 0 then a land m else (a land m) mod d
  | SRem -> if b land m = 0 then 0 else (sext_nat w a mod sext_nat w b) land m
  | SMin -> if sext_nat w a <= sext_nat w b then a land m else b land m
  | SMax -> if sext_nat w a >= sext_nat w b then a land m else b land m
  | UMin -> if a land m <= b land m then a land m else b land m
  | UMax -> if a land m >= b land m then a land m else b land m
  | UAddSat ->
      let r = (a land m) + (b land m) in
      if r > m then m else r
  | SAddSat -> ssat_nat w (sext_nat w a + sext_nat w b)
  | USubSat ->
      let ua = a land m and ub = b land m in
      if ua <= ub then 0 else ua - ub
  | SSubSat -> ssat_nat w (sext_nat w a - sext_nat w b)
  | AvgrU -> ((a land m) + (b land m) + 1) lsr 1 land m
  | AbsDiffU ->
      let ua = a land m and ub = b land m in
      if ua >= ub then ua - ub else ub - ua
  | MulHiS ->
      Int64.to_int
        (Int64.shift_right
           (Int64.mul (Int64.of_int (sext_nat w a)) (Int64.of_int (sext_nat w b)))
           w)
      land m
  | MulHiU ->
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.mul (Int64.of_int (a land m)) (Int64.of_int (b land m)))
           w)
      land m

let[@inline] iun_nat (k : iun) w a : int =
  let m = mask_nat w in
  match k with
  | INot -> lnot a land m
  | INeg -> -a land m
  | IAbs ->
      let s = sext_nat w a in
      (if s >= 0 then s else -s) land m
  | Clz ->
      let x = a land m in
      if x = 0 then w
      else begin
        let i = ref (w - 1) in
        while (x lsr !i) land 1 = 0 do
          decr i
        done;
        w - 1 - !i
      end
  | Ctz ->
      let x = a land m in
      if x = 0 then w
      else begin
        let i = ref 0 in
        while (x lsr !i) land 1 = 0 do
          incr i
        done;
        !i
      end
  | Popcnt ->
      let x = ref (a land m) and c = ref 0 in
      while !x <> 0 do
        c := !c + (!x land 1);
        x := !x lsr 1
      done;
      !c

let[@inline] icmp_nat (p : ipred) w a b : bool =
  let m = mask_nat w in
  match p with
  | Eq -> a land m = b land m
  | Ne -> a land m <> b land m
  | Ult -> a land m < b land m
  | Ule -> a land m <= b land m
  | Ugt -> a land m > b land m
  | Uge -> a land m >= b land m
  | Slt -> sext_nat w a < sext_nat w b
  | Sle -> sext_nat w a <= sext_nat w b
  | Sgt -> sext_nat w a > sext_nat w b
  | Sge -> sext_nat w a >= sext_nat w b

(* -- integer ALU at width 64, on [int64]s --

   Canonical 64-bit values are the whole [int64] range, so [norm],
   [sext] and [zext] are the identity and these follow [Pir.Ints] at
   [w = 64] step for step.  Unsigned order flips the sign bits instead
   of calling [Int64.unsigned_compare], and unsigned division is
   written out: a call would box its arguments. *)

let[@inline] ult64 (a : int64) b = Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

(* [Int64.unsigned_div], for [b <> 0] *)
let[@inline] udiv64 a b =
  if b < 0L then if ult64 a b then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical a 1) b) 1 in
    if ult64 (Int64.sub a (Int64.mul q b)) b then q else Int64.add q 1L

(* the high halves of the 128-bit products, through 32-bit limbs *)
let[@inline] mulhi_s64 a b =
  let alo = Int64.logand a 0xFFFFFFFFL and ahi = Int64.shift_right a 32 in
  let blo = Int64.logand b 0xFFFFFFFFL and bhi = Int64.shift_right b 32 in
  let lh = Int64.mul alo bhi and hl = Int64.mul ahi blo in
  let carry =
    Int64.add
      (Int64.add
         (Int64.shift_right_logical (Int64.mul alo blo) 32)
         (Int64.logand lh 0xFFFFFFFFL))
      (Int64.logand hl 0xFFFFFFFFL)
  in
  Int64.add
    (Int64.add (Int64.mul ahi bhi) (Int64.shift_right lh 32))
    (Int64.add (Int64.shift_right hl 32) (Int64.shift_right_logical carry 32))

let[@inline] mulhi_u64 a b =
  let alo = Int64.logand a 0xFFFFFFFFL and ahi = Int64.shift_right_logical a 32 in
  let blo = Int64.logand b 0xFFFFFFFFL and bhi = Int64.shift_right_logical b 32 in
  let lh = Int64.mul alo bhi and hl = Int64.mul ahi blo in
  let carry =
    Int64.add
      (Int64.add
         (Int64.shift_right_logical (Int64.mul alo blo) 32)
         (Int64.logand lh 0xFFFFFFFFL))
      (Int64.logand hl 0xFFFFFFFFL)
  in
  Int64.add
    (Int64.add (Int64.mul ahi bhi) (Int64.shift_right_logical lh 32))
    (Int64.add (Int64.shift_right_logical hl 32) (Int64.shift_right_logical carry 32))

let[@inline] ibin64 (k : ibin) (a : int64) (b : int64) : int64 =
  match k with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b mod 64)
  | LShr -> Int64.shift_right_logical a (Int64.to_int b mod 64)
  | AShr -> Int64.shift_right a (Int64.to_int b mod 64)
  | UDiv -> if b = 0L then -1L else udiv64 a b
  | SDiv -> if b = 0L then -1L else Int64.div a b
  | URem -> if b = 0L then a else Int64.sub a (Int64.mul (udiv64 a b) b)
  | SRem -> if b = 0L then 0L else Int64.rem a b
  | SMin -> if a <= b then a else b
  | SMax -> if a >= b then a else b
  | UMin -> if ult64 b a then b else a
  | UMax -> if ult64 a b then b else a
  | UAddSat ->
      let r = Int64.add a b in
      if ult64 r a then -1L else r
  | SAddSat ->
      let r = Int64.add a b in
      if a >= 0L && b >= 0L && r < 0L then Int64.max_int
      else if a < 0L && b < 0L && r >= 0L then Int64.min_int
      else r
  | USubSat -> if ult64 b a then Int64.sub a b else 0L
  | SSubSat ->
      let r = Int64.sub a b in
      if a >= 0L && b < 0L && r < 0L then Int64.max_int
      else if a < 0L && b >= 0L && r >= 0L then Int64.min_int
      else r
  | AvgrU -> Int64.shift_right_logical (Int64.add (Int64.add a b) 1L) 1
  | AbsDiffU -> if ult64 a b then Int64.sub b a else Int64.sub a b
  | MulHiS -> mulhi_s64 a b
  | MulHiU -> mulhi_u64 a b

let[@inline] iun64 (k : iun) (a : int64) : int64 =
  match k with
  | INot -> Int64.lognot a
  | INeg -> Int64.neg a
  | IAbs -> if a >= 0L then a else Int64.neg a
  | Clz | Ctz | Popcnt ->
      (* on the two 32-bit halves *)
      let lo = Int64.to_int (Int64.logand a 0xFFFFFFFFL)
      and hi = Int64.to_int (Int64.shift_right_logical a 32) in
      Int64.of_int
        (match k with
        | Clz -> if hi <> 0 then iun_nat Clz 32 hi else 32 + iun_nat Clz 32 lo
        | Ctz -> if lo <> 0 then iun_nat Ctz 32 lo else 32 + iun_nat Ctz 32 hi
        | _ -> iun_nat Popcnt 32 lo + iun_nat Popcnt 32 hi)

let[@inline] icmp64 (p : ipred) (a : int64) (b : int64) : bool =
  match p with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Ult -> ult64 a b
  | Ule -> not (ult64 b a)
  | Ugt -> ult64 b a
  | Uge -> not (ult64 a b)
  | Slt -> a < b
  | Sle -> a <= b
  | Sgt -> a > b
  | Sge -> a >= b

(* -- lane kernels --

   Lane [l] of integer lanes is the slot at byte offset [8 * l] (see
   {!Value}).  Every kernel checks the lane counts of its operands
   against its destination before its loops, which read and write
   unchecked; a mismatch, or a value of the wrong class, is ill-typed
   IR and raises [Invalid_argument]. *)

let[@inline] nat b o = Int64.to_int (Value.get64u b o)
let[@inline] set_nat b o x = Value.set64u b o (Int64.of_int x)

let ints what = function
  | Value.VI b -> b
  | v -> Fmt.invalid_arg "Eval.%s: %a" what Value.pp v

(* [b] holds [n] lanes, or the IR is ill-typed *)
let check_lanes what (b : Bytes.t) n =
  if Bytes.length b <> 8 * n then
    Fmt.invalid_arg "Eval.%s: %d lanes where %d are due" what (Value.ilanes b) n

let check_flanes what (a : float array) n =
  if Array.length a <> n then
    Fmt.invalid_arg "Eval.%s: %d lanes where %d are due" what (Array.length a) n

(* The lane loops at widths up to 32.  Each is inlined at every call in
   the kernels below with a constant opcode, so the match of the scalar
   table it inlines folds away: every opcode gets a loop of its own
   from this one text, and its lanes run no dispatch. *)

let[@inline] ibin_loop (k : ibin) w d x y n =
  for l = 0 to n - 1 do
    let o = 8 * l in
    set_nat d o (ibin_nat k w (nat x o) (nat y o))
  done

let[@inline] iun_loop (k : iun) w d x n =
  for l = 0 to n - 1 do
    let o = 8 * l in
    set_nat d o (iun_nat k w (nat x o))
  done

let[@inline] icmp_loop (p : ipred) w d x y n =
  for l = 0 to n - 1 do
    let o = 8 * l in
    Value.set64u d o (if icmp_nat p w (nat x o) (nat y o) then 1L else 0L)
  done

(** [d] gets [x k y] at width [w], lane by lane. *)
let ibin_lanes (k : ibin) w d x y =
  let d = ints "ibin" d and x = ints "ibin" x and y = ints "ibin" y in
  let n = Value.ilanes d in
  check_lanes "ibin" x n;
  check_lanes "ibin" y n;
  if w = 64 then
    for l = 0 to n - 1 do
      let o = 8 * l in
      Value.set64u d o (ibin64 k (Value.get64u x o) (Value.get64u y o))
    done
  else
    match k with
    | Add -> ibin_loop Add w d x y n
    | Sub -> ibin_loop Sub w d x y n
    | Mul -> ibin_loop Mul w d x y n
    | UDiv -> ibin_loop UDiv w d x y n
    | SDiv -> ibin_loop SDiv w d x y n
    | URem -> ibin_loop URem w d x y n
    | SRem -> ibin_loop SRem w d x y n
    | And -> ibin_loop And w d x y n
    | Or -> ibin_loop Or w d x y n
    | Xor -> ibin_loop Xor w d x y n
    | Shl -> ibin_loop Shl w d x y n
    | LShr -> ibin_loop LShr w d x y n
    | AShr -> ibin_loop AShr w d x y n
    | SMin -> ibin_loop SMin w d x y n
    | SMax -> ibin_loop SMax w d x y n
    | UMin -> ibin_loop UMin w d x y n
    | UMax -> ibin_loop UMax w d x y n
    | UAddSat -> ibin_loop UAddSat w d x y n
    | SAddSat -> ibin_loop SAddSat w d x y n
    | USubSat -> ibin_loop USubSat w d x y n
    | SSubSat -> ibin_loop SSubSat w d x y n
    | AvgrU -> ibin_loop AvgrU w d x y n
    | AbsDiffU -> ibin_loop AbsDiffU w d x y n
    | MulHiS -> ibin_loop MulHiS w d x y n
    | MulHiU -> ibin_loop MulHiU w d x y n

(** [d] gets [k x] at width [w], lane by lane. *)
let iun_lanes (k : iun) w d x =
  let d = ints "iun" d and x = ints "iun" x in
  let n = Value.ilanes d in
  check_lanes "iun" x n;
  if w = 64 then
    for l = 0 to n - 1 do
      let o = 8 * l in
      Value.set64u d o (iun64 k (Value.get64u x o))
    done
  else
    match k with
    | INot -> iun_loop INot w d x n
    | INeg -> iun_loop INeg w d x n
    | IAbs -> iun_loop IAbs w d x n
    | Clz -> iun_loop Clz w d x n
    | Ctz -> iun_loop Ctz w d x n
    | Popcnt -> iun_loop Popcnt w d x n

(** [d] gets the mask of [x p y] at width [w]: 1 where it holds, else 0. *)
let icmp_lanes (p : ipred) w d x y =
  let d = ints "icmp" d and x = ints "icmp" x and y = ints "icmp" y in
  let n = Value.ilanes d in
  check_lanes "icmp" x n;
  check_lanes "icmp" y n;
  if w = 64 then
    for l = 0 to n - 1 do
      let o = 8 * l in
      Value.set64u d o (if icmp64 p (Value.get64u x o) (Value.get64u y o) then 1L else 0L)
    done
  else
    match p with
    | Eq -> icmp_loop Eq w d x y n
    | Ne -> icmp_loop Ne w d x y n
    | Ult -> icmp_loop Ult w d x y n
    | Ule -> icmp_loop Ule w d x y n
    | Ugt -> icmp_loop Ugt w d x y n
    | Uge -> icmp_loop Uge w d x y n
    | Slt -> icmp_loop Slt w d x y n
    | Sle -> icmp_loop Sle w d x y n
    | Sgt -> icmp_loop Sgt w d x y n
    | Sge -> icmp_loop Sge w d x y n

(** [d] gets the mask of the raw comparison [x p y] of float lanes. *)
let fcmp_lanes (p : fpred) d x y =
  match (d, x, y) with
  | Value.VI d, Value.VF x, Value.VF y ->
      let n = Value.ilanes d in
      check_flanes "fcmp" x n;
      check_flanes "fcmp" y n;
      for l = 0 to n - 1 do
        let a = Array.unsafe_get x l and b = Array.unsafe_get y l in
        Value.set64u d (8 * l)
          (if
             match p with
             | Oeq -> a = b
             | One -> a < b || a > b
             | Olt -> a < b
             | Ole -> a <= b
             | Ogt -> a > b
             | Oge -> a >= b
           then 1L
           else 0L)
      done
  | _, va, vb -> Fmt.invalid_arg "Eval.fcmp: %a, %a" Value.pp va Value.pp vb

(* as in [Vm]; see [Value.f32_bits] *)
let[@inline] round32 x = Value.f32_of_bits (Value.f32_bits x)

(** [d] gets each lane of [x] cast by [k] from [src] to [dst]:
    [cast_scalar], lane by lane. *)
let cast_lanes (k : cast_kind) (src : Pir.Types.scalar) (dst : Pir.Types.scalar) d x
    =
  let ws = Pir.Types.scalar_bits src and wd = Pir.Types.scalar_bits dst in
  let r32 = dst = Pir.Types.F32 in
  match (k, d, x) with
  | (Trunc | ZExt | SExt), Value.VI d, Value.VI x ->
      let n = Value.ilanes d in
      check_lanes "cast" x n;
      (* sign-extend from [ws] by a shift pair (for [SExt]), then keep
         the low [wd] bits ([ws] for [ZExt]) *)
      let sh = match k with SExt -> 64 - ws | _ -> 0 in
      let keep = match k with ZExt -> ws | _ -> wd in
      let m = if keep >= 64 then -1L else Int64.sub (Int64.shift_left 1L keep) 1L in
      for l = 0 to n - 1 do
        let o = 8 * l in
        Value.set64u d o
          (Int64.logand (Int64.shift_right (Int64.shift_left (Value.get64u x o) sh) sh) m)
      done
  | (SIToFP | UIToFP), Value.VF d, Value.VI x ->
      let n = Array.length d in
      check_lanes "cast" x n;
      let signed = match k with SIToFP -> true | _ -> false in
      for l = 0 to n - 1 do
        let f =
          if ws = 64 then
            let v = Value.get64u x (8 * l) in
            if signed || v >= 0L then Int64.to_float v
            else Int64.to_float v +. 18446744073709551616.0
          else
            let v = nat x (8 * l) in
            float_of_int (if signed then sext_nat ws v else v land mask_nat ws)
        in
        Array.unsafe_set d l (if r32 then round32 f else f)
      done
  | (FPToSI | FPToUI), Value.VI d, Value.VF x ->
      let n = Value.ilanes d in
      check_flanes "cast" x n;
      let signed = match k with FPToSI -> true | _ -> false in
      for l = 0 to n - 1 do
        let f = Float.trunc (Array.unsafe_get x l) in
        let o = 8 * l in
        if f <> f || ((not signed) && f < 0.0) then Value.set64u d o 0L
        else if wd = 64 then Value.set64u d o (Int64.of_float f)
        else set_nat d o (int_of_float f land mask_nat wd)
      done
  | (FPTrunc | FPExt), Value.VF d, Value.VF x ->
      check_flanes "cast" x (Array.length d);
      for l = 0 to Array.length d - 1 do
        let f = Array.unsafe_get x l in
        Array.unsafe_set d l (if r32 then round32 f else f)
      done
  | Bitcast, Value.VI d, Value.VI x ->
      check_lanes "cast" x (Value.ilanes d);
      Bytes.blit x 0 d 0 (Bytes.length d)
  | Bitcast, Value.VF d, Value.VF x ->
      check_flanes "cast" x (Array.length d);
      Array.blit x 0 d 0 (Array.length d)
  | Bitcast, Value.VF d, Value.VI x when ws = wd ->
      let n = Array.length d in
      check_lanes "cast" x n;
      for l = 0 to n - 1 do
        let v = Value.get64u x (8 * l) in
        Array.unsafe_set d l
          (if wd = 32 then Int32.float_of_bits (Int64.to_int32 v)
           else Int64.float_of_bits v)
      done
  | Bitcast, Value.VI d, Value.VF x when ws = wd ->
      let n = Value.ilanes d in
      check_flanes "cast" x n;
      for l = 0 to n - 1 do
        let f = Array.unsafe_get x l in
        Value.set64u d (8 * l)
          (if ws = 32 then Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL
           else Int64.bits_of_float f)
      done
  | _, _, v ->
      Fmt.invalid_arg "Eval.cast: %a %a -> %a" Value.pp v Pir.Types.pp
        (Pir.Types.Scalar src) Pir.Types.pp (Pir.Types.Scalar dst)

(** [d] gets lane [l] of [x] where lane [l] of [mask] is nonzero, of [y]
    elsewhere. *)
let select_lanes d mask x y =
  let mask = ints "select" mask in
  match (d, x, y) with
  | Value.VI d, Value.VI x, Value.VI y ->
      let n = Value.ilanes d in
      check_lanes "select" mask n;
      check_lanes "select" x n;
      check_lanes "select" y n;
      for l = 0 to n - 1 do
        let o = 8 * l in
        Value.set64u d o
          (if Value.get64u mask o <> 0L then Value.get64u x o else Value.get64u y o)
      done
  | Value.VF d, Value.VF x, Value.VF y ->
      let n = Array.length d in
      check_flanes "select" x n;
      check_flanes "select" y n;
      check_lanes "select" mask n;
      for l = 0 to n - 1 do
        Array.unsafe_set d l
          (if Value.get64u mask (8 * l) <> 0L then Array.unsafe_get x l
           else Array.unsafe_get y l)
      done
  | _, va, vb -> Fmt.invalid_arg "Eval.select: %a, %a" Value.pp va Value.pp vb

(* a static shuffle entry: -1 (zero), or a lane of [x] then [y] *)
let[@inline] shuffle_entry idx l na nb =
  let k = Array.unsafe_get idx l in
  if k < -1 || k >= na + nb then
    trap "shuffle of lane %d from two vectors of %d and %d lanes" k na nb;
  k

(** [d] gets, in lane [l], lane [idx.(l)] of [x] followed by [y], or
    zero for an entry of [-1]; an entry past both operands traps. *)
let shuffle_lanes (idx : int array) d x y =
  let n = Array.length idx in
  match (d, x, y) with
  | Value.VI d, Value.VI x, Value.VI y ->
      check_lanes "shuffle" d n;
      let na = Value.ilanes x and nb = Value.ilanes y in
      for l = 0 to n - 1 do
        let k = shuffle_entry idx l na nb in
        Value.set64u d (8 * l)
          (if k = -1 then 0L
           else if k < na then Value.get64u x (8 * k)
           else Value.get64u y (8 * (k - na)))
      done
  | Value.VF d, Value.VF x, Value.VF y ->
      check_flanes "shuffle" d n;
      let na = Array.length x and nb = Array.length y in
      for l = 0 to n - 1 do
        let k = shuffle_entry idx l na nb in
        Array.unsafe_set d l
          (if k = -1 then 0.0
           else if k < na then Array.unsafe_get x k
           else Array.unsafe_get y (k - na))
      done
  | _, va, vb -> Fmt.invalid_arg "Eval.shuffle: %a, %a" Value.pp va Value.pp vb

(** [d] gets, in lane [l], the lane of [x] that lane [l] of [idx] names,
    wrapped modulo the lane count (power-of-two gangs), as
    psim_shuffle_sync specifies. *)
let shuffle_dyn_lanes d x idx =
  let idx = ints "shuffle_dyn" idx in
  let n = Value.ilanes idx in
  match (d, x) with
  | Value.VI d, Value.VI x ->
      check_lanes "shuffle_dyn" d n;
      check_lanes "shuffle_dyn" x n;
      for l = 0 to n - 1 do
        let k = nat idx (8 * l) land (n - 1) mod n in
        Value.set64u d (8 * l) (Value.get64u x (8 * k))
      done
  | Value.VF d, Value.VF x ->
      check_flanes "shuffle_dyn" d n;
      check_flanes "shuffle_dyn" x n;
      for l = 0 to n - 1 do
        let k = nat idx (8 * l) land (n - 1) mod n in
        Array.unsafe_set d l (Array.unsafe_get x k)
      done
  | _, v -> Fmt.invalid_arg "Eval.shuffle_dyn: %a" Value.pp v

(** Every integer lane of [d] gets [x]. *)
let splat_lanes d (x : int64) =
  let d = ints "splat" d in
  for l = 0 to Value.ilanes d - 1 do
    Value.set64u d (8 * l) x
  done

(** [d] gets, per group of 8 lanes of [x] and [y], the sum of the
    unsigned byte differences: x86's psadbw. *)
let psadbw_lanes d x y =
  let d = ints "psadbw" d and x = ints "psadbw" x and y = ints "psadbw" y in
  let n = Value.ilanes x in
  check_lanes "psadbw" y n;
  check_lanes "psadbw" d (n / 8);
  for g = 0 to (n / 8) - 1 do
    let acc = ref 0 in
    for k = 0 to 7 do
      let o = 8 * ((8 * g) + k) in
      acc := !acc + abs ((nat x o land 0xFF) - (nat y o land 0xFF))
    done;
    set_nat d (8 * g) !acc
  done

(* integer reductions: [RAny]/[RAll] at any width, the folds at widths
   up to 32 ([reduce_nat]) or 64 ([reduce64]), in lane order from
   [Pir.Fold]'s identity, or from lane 0 for the min/max kinds *)

let fold_nat op w x acc =
  let acc = ref acc in
  for l = 0 to Value.ilanes x - 1 do
    acc := ibin_nat op w !acc (nat x (8 * l))
  done;
  !acc

(* a min/max fold starts from lane 0 *)
let nonempty x = if Bytes.length x = 0 then invalid_arg "Eval.reduce: no lanes"

let reduce_nat (k : reduce_kind) w x : int =
  let x = ints "reduce" x in
  let n = Value.ilanes x in
  match k with
  | RAny ->
      let l = ref 0 in
      while !l < n && Value.get64u x (8 * !l) = 0L do
        incr l
      done;
      if !l < n then 1 else 0
  | RAll ->
      let l = ref 0 in
      while !l < n && Value.get64u x (8 * !l) <> 0L do
        incr l
      done;
      if !l < n then 0 else 1
  | RAdd -> fold_nat Add w x 0
  | RAnd -> fold_nat And w x (mask_nat w)
  | ROr -> fold_nat Or w x 0
  | RXor -> fold_nat Xor w x 0
  | RSMin ->
      nonempty x;
      fold_nat SMin w x (nat x 0)
  | RSMax ->
      nonempty x;
      fold_nat SMax w x (nat x 0)
  | RUMin ->
      nonempty x;
      fold_nat UMin w x (nat x 0)
  | RUMax ->
      nonempty x;
      fold_nat UMax w x (nat x 0)
  | RFAdd | RFMin | RFMax -> invalid_arg "Eval.reduce: float reduction of integer lanes"

let reduce64 (k : reduce_kind) x : int64 =
  let x = ints "reduce" x in
  let n = Value.ilanes x in
  let op, init =
    match k with
    | RAdd -> (Add, 0L)
    | RAnd -> (And, -1L)
    | ROr -> (Or, 0L)
    | RXor -> (Xor, 0L)
    | RSMin ->
        nonempty x;
        (SMin, Value.get64u x 0)
    | RSMax ->
        nonempty x;
        (SMax, Value.get64u x 0)
    | RUMin ->
        nonempty x;
        (UMin, Value.get64u x 0)
    | RUMax ->
        nonempty x;
        (UMax, Value.get64u x 0)
    | RAny | RAll | RFAdd | RFMin | RFMax -> invalid_arg "Eval.reduce64"
  in
  let acc = ref init in
  for l = 0 to n - 1 do
    acc := ibin64 op !acc (Value.get64u x (8 * l))
  done;
  !acc

let reduce_value (k : reduce_kind) (s : Pir.Types.scalar) (v : Value.t) : Value.t =
  let w = Pir.Types.scalar_bits s in
  match (k, v) with
  | (RAny | RAll), Value.VI _ -> Value.I (Int64.of_int (reduce_nat k w v))
  | _, Value.VI _ when w = 64 -> Value.I (reduce64 k v)
  | _, Value.VI _ -> Value.I (Int64.of_int (reduce_nat k w v))
  | RFAdd, Value.VF a -> Value.F (Array.fold_left (fbin_fn FAdd s) 0.0 a)
  | RFMin, Value.VF a -> Value.F (Array.fold_left Float.min a.(0) a)
  | RFMax, Value.VF a -> Value.F (Array.fold_left Float.max a.(0) a)
  | _ -> Fmt.invalid_arg "Eval.reduce: %a" Value.pp v

(** Lane [k] of [v]; an index outside the vector traps. *)
let extract_lane v k =
  let n = Value.lanes v in
  if k < 0 || k >= n then trap "extract of lane %d from %d-lane vector" k n;
  Value.lane v k

(** [v] with lane [k] replaced by [x]; an index outside the vector
    traps. *)
let insert_lane v x k =
  let n = Value.lanes v in
  if k < 0 || k >= n then trap "insert at lane %d of %d-lane vector" k n;
  Value.set_lane v k x

(* -- vector lifting of the float operations -- *)

let map2f f x y =
  let n = Array.length x in
  let r = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i) (Array.unsafe_get y i))
  done;
  r

let map1f f x =
  let n = Array.length x in
  let r = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.unsafe_set r i (f (Array.unsafe_get x i))
  done;
  r

(* a fresh zero vector of type [ty], for a kernel to fill *)
let vec_of ty = Value.vec (Pir.Types.elem ty) (Pir.Types.lanes ty)

(** Evaluate a pure (non-memory, non-call, non-phi) operation.
    [ty] is the result type; [operand_ty] and [get] resolve operands. *)
let pure_op ~(ty : Pir.Types.t) ~(operand_ty : operand -> Pir.Types.t)
    ~(get : operand -> Value.t) (op : op) : Value.t =
  let scalar_of o = Pir.Types.elem (operand_ty o) in
  match op with
  | Ibin (k, a, b) -> (
      let w = Pir.Types.scalar_bits (scalar_of a) in
      match (get a, get b) with
      | Value.I x, Value.I y -> Value.I (Pir.Fold.ibin k w x y)
      | x, y ->
          let d = vec_of ty in
          ibin_lanes k w d x y;
          d)
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
      | x ->
          let d = vec_of ty in
          iun_lanes k w d x;
          d)
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
      | x, y ->
          let d = vec_of ty in
          icmp_lanes p w d x y;
          d)
  | Fcmp (p, a, b) -> (
      match (get a, get b) with
      | Value.F x, Value.F y -> Value.of_bool (fcmp_scalar p x y)
      | x, y ->
          let d = vec_of ty in
          fcmp_lanes p d x y;
          d)
  | Select (c, a, b) -> (
      match get c with
      | Value.I cv -> if cv <> 0L then get a else get b
      | mask ->
          let d = vec_of ty in
          select_lanes d mask (get a) (get b);
          d)
  | Cast (k, a, _) -> (
      let src = scalar_of a and dst = Pir.Types.elem ty in
      match get a with
      | (Value.I _ | Value.F _) as v -> cast_scalar k src dst v
      | x ->
          let d = vec_of ty in
          cast_lanes k src dst d x;
          d)
  | Splat (a, n) -> (
      match get a with
      | Value.I x ->
          let d = vec_of ty in
          splat_lanes d x;
          d
      | Value.F x -> Value.VF (Array.make n x)
      | v -> Fmt.invalid_arg "Eval.splat: %a" Value.pp v)
  | Shuffle (a, b, idx) ->
      let d = vec_of ty in
      shuffle_lanes idx d (get a) (get b);
      d
  | ShuffleDyn (a, i) ->
      let d = vec_of ty in
      shuffle_dyn_lanes d (get a) (get i);
      d
  | ExtractLane (v, i) -> extract_lane (get v) (Int64.to_int (Value.as_int (get i)))
  | InsertLane (v, x, i) ->
      insert_lane (get v) (get x) (Int64.to_int (Value.as_int (get i)))
  | Reduce (k, v) -> reduce_value k (Pir.Types.elem (operand_ty v)) (get v)
  | FirstLane m ->
      let a = Value.as_ivec (get m) in
      let n = Value.ilanes a in
      let rec find l =
        if l >= n then -1 else if Value.get64u a (8 * l) <> 0L then l else find (l + 1)
      in
      Value.I (Int64.of_int (find 0))
  | Psadbw (a, b) ->
      let d = vec_of ty in
      psadbw_lanes d (get a) (get b);
      d
  | Alloca _ | Load _ | Store _ | Gep _ | Call _ | Phi _ | VLoad _ | VStore _
  | Gather _ | Scatter _ ->
      invalid_arg "Eval.pure_op: not a pure operation"
