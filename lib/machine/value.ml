(** Runtime values of the machine model.

    Integers are stored in the canonical zero-extended form of
    [Pir.Ints]; pointers are byte addresses stored as [I].  Vectors store
    per-lane scalars; masks are integer vectors of 0/1.

    Integer vector lanes are unboxed, in one representation for every
    width from [i1] to [i64]: lane [l] of a [VI] is the canonical
    [int64] held in the 8-byte slot at byte offset [8 * l], read and
    written with [get64u] and [set64u].  Those are compiler primitives,
    inlined into every module that names them (a function of this
    module would not be: the dev profile compiles with [-opaque]), so a
    lane read or write allocates nothing, keeps [i64] exact and needs no
    write barrier; a fresh [n]-lane vector is one minor-heap block of
    [8 * n] bytes.  The unchecked primitives are safe only on offsets
    below [Bytes.length]: every lane loop checks its operands' lane
    counts once ([Eval]'s kernels, [Memory]'s accesses). *)

type t =
  | Unit
  | I of int64
  | F of float
  | VI of Bytes.t  (** one 8-byte slot per lane, see above *)
  | VF of float array

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [F32] rounding without leaving float registers: [f32_of_bits
   (f32_bits x)] is what [round_float F32] computes, for the loops that
   must not box a float.  [Vm] and [Eval] each define that one-liner as
   their own [round32]: a function of this module would be called, not
   inlined, from theirs ([-opaque]), and would box its argument and its
   result, four words a call. *)
external f32_bits : float -> int32
  = "caml_int32_bits_of_float" "caml_int32_bits_of_float_unboxed"
[@@unboxed] [@@noalloc]

external f32_of_bits : int32 -> float
  = "caml_int32_float_of_bits" "caml_int32_float_of_bits_unboxed"
[@@unboxed] [@@noalloc]

(** Lane count of integer lanes. *)
let ilanes (b : Bytes.t) = Bytes.length b lsr 3

(** [n] integer lanes, all zero. *)
let ivec n = Bytes.make (8 * n) '\000'

let ivec_of_array (a : int64 array) =
  let b = Bytes.create (8 * Array.length a) in
  for l = 0 to Array.length a - 1 do
    set64u b (8 * l) a.(l)
  done;
  b

let ivec_to_array b = Array.init (ilanes b) (fun l -> get64u b (8 * l))

let pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | I v -> Fmt.pf ppf "%Ld" v
  | F v -> Fmt.pf ppf "%g" v
  | VI a -> Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ",") int64) (ivec_to_array a)
  | VF a -> Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ",") float) a

let to_string v = Fmt.str "%a" pp v

let as_int = function
  | I v -> v
  | v -> Fmt.invalid_arg "Value.as_int: %a" pp v

let as_float = function
  | F v -> v
  | v -> Fmt.invalid_arg "Value.as_float: %a" pp v

let as_ivec = function
  | VI a -> a
  | v -> Fmt.invalid_arg "Value.as_ivec: %a" pp v

let as_fvec = function
  | VF a -> a
  | v -> Fmt.invalid_arg "Value.as_fvec: %a" pp v

let as_bool = function
  | I 0L -> false
  | I _ -> true
  | v -> Fmt.invalid_arg "Value.as_bool: %a" pp v

let of_bool b = I (if b then 1L else 0L)

let lanes = function
  | VI a -> ilanes a
  | VF a -> Array.length a
  | _ -> 1

(** Lane [i] of a vector as a scalar value ([Invalid_argument] past the
    last lane). *)
let lane v i =
  match v with
  | VI a -> I (Bytes.get_int64_ne a (8 * i))
  | VF a -> F a.(i)
  | _ -> Fmt.invalid_arg "Value.lane: %a" pp v

let set_lane v i x =
  match (v, x) with
  | VI a, I x ->
      let a = Bytes.copy a in
      Bytes.set_int64_ne a (8 * i) x;
      VI a
  | VF a, F x ->
      let a = Array.copy a in
      a.(i) <- x;
      VF a
  | _ -> Fmt.invalid_arg "Value.set_lane: %a <- %a" pp v pp x

(* Interning of small integer cells.  Integer values are immutable and
   compared structurally, so sharing one preallocated [I] cell per value
   below 2^16 is unobservable; it keeps memory loads that return a
   [Value.t] ([of_nat], [of_int64]) off the minor heap.  The table is
   filled on first use: building all 65 536 cells up front costs
   milliseconds of every process start.  A slot is filled by a plain
   store, so two domains racing on one slot each get a correct cell and
   the last store wins. *)

let small_cells : t array = Array.make 65536 Unit

let[@inline never] intern v =
  let c = I (Int64.of_int v) in
  small_cells.(v) <- c;
  c

(** [I (Int64.of_int v)], shared when [0 <= v < 2^16]. *)
let[@inline] of_nat v =
  if v >= 0 && v < 65536 then
    let c = Array.unsafe_get small_cells v in
    if c != Unit then c else intern v
  else I (Int64.of_int v)

(** [I v], shared when [0 <= v < 2^16]. *)
let[@inline] of_int64 v =
  if v >= 0L && v < 65536L then of_nat (Int64.to_int v) else I v

(** A fresh all-zero vector of [n] lanes of element kind [s]. *)
let vec (s : Pir.Types.scalar) n =
  if Pir.Types.is_float_scalar s then VF (Array.make n 0.) else VI (ivec n)

(** Default (zero) value of a type. *)
let zero (ty : Pir.Types.t) =
  match ty with
  | Pir.Types.Void -> Unit
  | Pir.Types.Scalar s when Pir.Types.is_float_scalar s -> F 0.
  | Pir.Types.Scalar _ | Pir.Types.Ptr _ -> I 0L
  | Pir.Types.Vec (s, n) -> vec s n

let equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | I x, I y -> Int64.equal x y
  | F x, F y -> x = y || (Float.is_nan x && Float.is_nan y)
  | VI x, VI y -> Bytes.equal x y
  | VF x, VF y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun a b -> a = b || (Float.is_nan a && Float.is_nan b)) x y
  | _ -> false

(** Round a float to the representable precision of [s] ([F32] rounds
    through a 32-bit single). *)
let round_float (s : Pir.Types.scalar) v =
  match s with
  | Pir.Types.F32 -> Int32.float_of_bits (Int32.bits_of_float v)
  | _ -> v
