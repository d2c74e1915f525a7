(** PIR instructions.

    The instruction set is the LLVM subset that the Parsimony pass
    manipulates, plus the explicit vector operations the pass emits
    (packed/masked loads and stores, gather/scatter, shuffles, lane
    reductions) and a small number of "complex" SIMD operations that
    hand-written kernels use directly (saturating arithmetic, rounded
    average, [psadbw]-style sum of absolute differences — see paper §7). *)

type const =
  | Cint of Types.scalar * int64  (** canonical zero-extended form *)
  | Cfloat of Types.scalar * float
  | Cvec of Types.scalar * int64 array
      (** compile-time integer lane vector (used to materialize indexed
          shapes); floats never appear as lane constants *)
[@@deriving show { with_path = false }, eq]

(** An SSA operand: a virtual register or an immediate constant. *)
type operand = Var of int | Const of const
[@@deriving show { with_path = false }, eq]

type ibin =
  | Add
  | Sub
  | Mul
  | UDiv
  | SDiv
  | URem
  | SRem
  | And
  | Or
  | Xor
  | Shl
  | LShr
  | AShr
  | SMin
  | SMax
  | UMin
  | UMax
  | UAddSat
  | SAddSat
  | USubSat
  | SSubSat
  | AvgrU  (** rounded unsigned average, x86 [pavgb]/[pavgw] *)
  | AbsDiffU  (** unsigned absolute difference *)
  | MulHiS  (** "multiply and return upper half", signed (paper §7) *)
  | MulHiU
[@@deriving show { with_path = false }, eq]

type fbin = FAdd | FSub | FMul | FDiv | FMin | FMax
[@@deriving show { with_path = false }, eq]

type iun = INot | INeg | IAbs | Clz | Ctz | Popcnt
[@@deriving show { with_path = false }, eq]

type fun_ = FNeg | FAbs | FSqrt | FFloor | FCeil
[@@deriving show { with_path = false }, eq]

type ipred = Eq | Ne | Ult | Ule | Ugt | Uge | Slt | Sle | Sgt | Sge
[@@deriving show { with_path = false }, eq]

type fpred = Oeq | One | Olt | Ole | Ogt | Oge
[@@deriving show { with_path = false }, eq]

type cast_kind =
  | Trunc
  | ZExt
  | SExt
  | FPTrunc
  | FPExt
  | FPToSI
  | FPToUI
  | SIToFP
  | UIToFP
  | Bitcast
[@@deriving show { with_path = false }, eq]

type reduce_kind =
  | RAdd
  | RAnd
  | ROr
  | RXor
  | RSMin
  | RSMax
  | RUMin
  | RUMax
  | RFAdd
  | RFMin
  | RFMax
  | RAny  (** mask -> i1: any lane set *)
  | RAll  (** mask -> i1: all lanes set *)
[@@deriving show { with_path = false }, eq]

type op =
  | Ibin of ibin * operand * operand
  | Fbin of fbin * operand * operand
  | Iun of iun * operand
  | Fun of fun_ * operand
  | Icmp of ipred * operand * operand
  | Fcmp of fpred * operand * operand
  | Select of operand * operand * operand
      (** scalar-cond select, or per-lane blend when cond is a mask *)
  | Cast of cast_kind * operand * Types.t
  | Alloca of Types.scalar * int  (** element kind, element count *)
  | Load of operand  (** scalar load through a [Ptr] operand *)
  | Store of operand * operand  (** value, pointer; produces [Void] *)
  | Gep of operand * operand
      (** pointer, element index (any int scalar); scales by element size *)
  | Call of string * operand list
  | Phi of (string * operand) list  (** [(predecessor label, value)] *)
  (* -- vector operations -- *)
  | Splat of operand * int  (** broadcast scalar to [n] lanes *)
  | VLoad of operand * operand option
      (** packed load of [lanes(ty)] consecutive elements; optional mask *)
  | VStore of operand * operand * operand option  (** value, ptr, mask *)
  | Gather of operand * operand * operand option
      (** base pointer, index vector (in elements), mask *)
  | Scatter of operand * operand * operand * operand option
      (** value, base pointer, index vector, mask *)
  | Shuffle of operand * operand * int array
      (** two-input static shuffle; indices address the concatenation of
          both inputs, [-1] produces an undefined (zero) lane *)
  | ShuffleDyn of operand * operand
      (** data vector, per-lane source index vector: any-to-any exchange
          (the IR form of [psim_shuffle_sync]) *)
  | ExtractLane of operand * operand  (** vector, scalar lane index *)
  | InsertLane of operand * operand * operand  (** vector, value, index *)
  | Reduce of reduce_kind * operand
  | FirstLane of operand  (** mask -> i32 index of first set lane, -1 if none *)
  | Psadbw of operand * operand
      (** u8 vectors -> per-8-lane-group sums of absolute differences as
          [Vec (I64, n/8)]; models AVX-512 [vpsadbw] (paper §7) *)
[@@deriving show { with_path = false }, eq]

type instr = { id : int; ty : Types.t; op : op }
[@@deriving show { with_path = false }, eq]

type terminator =
  | Br of string
  | CondBr of operand * string * string
  | Ret of operand option
  | Unreachable
[@@deriving show { with_path = false }, eq]

(* -- Constant and operand helpers -- *)

let ty_of_const = function
  | Cint (s, _) -> Types.Scalar s
  | Cfloat (s, _) -> Types.Scalar s
  | Cvec (s, a) -> Types.Vec (s, Array.length a)

let cint s v = Const (Cint (s, Ints.norm (Types.scalar_bits s) v))
let ci32 v = cint Types.I32 (Int64.of_int v)
let ci64 v = cint Types.I64 (Int64.of_int v)
let cbool b = Const (Cint (Types.I1, if b then 1L else 0L))
let cf32 v = Const (Cfloat (Types.F32, v))
let cf64 v = Const (Cfloat (Types.F64, v))

let cvec s vals =
  let w = Types.scalar_bits s in
  Const (Cvec (s, Array.map (Ints.norm w) vals))

(** The per-lane 0,1,2,... constant used to materialize lane numbers. *)
let iota s n = cvec s (Array.init n Int64.of_int)

let is_const = function Const _ -> true | Var _ -> false

let const_int_value = function
  | Const (Cint (_, v)) -> Some v
  | _ -> None

(** Operands read by an operation, in order. *)
let operands_of_op = function
  | Ibin (_, a, b)
  | Fbin (_, a, b)
  | Icmp (_, a, b)
  | Fcmp (_, a, b)
  | Gep (a, b)
  | ShuffleDyn (a, b)
  | ExtractLane (a, b)
  | Psadbw (a, b) ->
      [ a; b ]
  | Iun (_, a) | Fun (_, a) | Load a | Splat (a, _) | Reduce (_, a) | FirstLane a
    ->
      [ a ]
  | Cast (_, a, _) -> [ a ]
  | Select (a, b, c) | InsertLane (a, b, c) -> [ a; b; c ]
  | Alloca _ -> []
  | Store (v, p) -> [ v; p ]
  | Call (_, args) -> args
  | Phi incoming -> List.map snd incoming
  | VLoad (p, m) -> p :: Option.to_list m
  | VStore (v, p, m) -> v :: p :: Option.to_list m
  | Gather (b, i, m) -> b :: i :: Option.to_list m
  | Scatter (v, b, i, m) -> v :: b :: i :: Option.to_list m
  | Shuffle (a, b, _) -> [ a; b ]

let operands_of_term = function
  | Br _ | Unreachable -> []
  | CondBr (c, _, _) -> [ c ]
  | Ret r -> Option.to_list r

(** Variables read by an operation. *)
let uses_of_op op =
  List.filter_map
    (function Var v -> Some v | Const _ -> None)
    (operands_of_op op)

(** Rebuild an operation with its operands rewritten by [f], applied in
    [operands_of_op] order.  The explicit let-bindings matter: OCaml
    evaluates constructor arguments right to left, so [Ibin (k, f a, f b)]
    would call [f] on [b] first — visible to stateful rewriters (the SLP
    emitter threads a column list through [f]). *)
let map_operands f op =
  match op with
  | Ibin (k, a, b) ->
      let a = f a in
      Ibin (k, a, f b)
  | Fbin (k, a, b) ->
      let a = f a in
      Fbin (k, a, f b)
  | Iun (k, a) -> Iun (k, f a)
  | Fun (k, a) -> Fun (k, f a)
  | Icmp (k, a, b) ->
      let a = f a in
      Icmp (k, a, f b)
  | Fcmp (k, a, b) ->
      let a = f a in
      Fcmp (k, a, f b)
  | Select (a, b, c) ->
      let a = f a in
      let b = f b in
      Select (a, b, f c)
  | Cast (k, a, t) -> Cast (k, f a, t)
  | Alloca _ -> op
  | Load p -> Load (f p)
  | Store (v, p) ->
      let v = f v in
      Store (v, f p)
  | Gep (p, i) ->
      let p = f p in
      Gep (p, f i)
  | Call (n, args) -> Call (n, List.map f args)
  | Phi inc -> Phi (List.map (fun (l, v) -> (l, f v)) inc)
  | Splat (a, n) -> Splat (f a, n)
  | VLoad (p, m) ->
      let p = f p in
      VLoad (p, Option.map f m)
  | VStore (v, p, m) ->
      let v = f v in
      let p = f p in
      VStore (v, p, Option.map f m)
  | Gather (b, i, m) ->
      let b = f b in
      let i = f i in
      Gather (b, i, Option.map f m)
  | Scatter (v, b, i, m) ->
      let v = f v in
      let b = f b in
      let i = f i in
      Scatter (v, b, i, Option.map f m)
  | Shuffle (a, b, idx) ->
      let a = f a in
      Shuffle (a, f b, idx)
  | ShuffleDyn (a, b) ->
      let a = f a in
      ShuffleDyn (a, f b)
  | ExtractLane (v, i) ->
      let v = f v in
      ExtractLane (v, f i)
  | InsertLane (v, x, i) ->
      let v = f v in
      let x = f x in
      InsertLane (v, x, f i)
  | Reduce (k, a) -> Reduce (k, f a)
  | FirstLane a -> FirstLane (f a)
  | Psadbw (a, b) ->
      let a = f a in
      Psadbw (a, f b)

let map_term_operands f = function
  | Br l -> Br l
  | CondBr (c, t, e) -> CondBr (f c, t, e)
  | Ret r -> Ret (Option.map f r)
  | Unreachable -> Unreachable

(** Does this operation read or write memory (or have other side effects
    that forbid elimination / reordering)? *)
let has_side_effects = function
  | Store _ | VStore _ | Scatter _ | Call _ -> true
  | _ -> false
