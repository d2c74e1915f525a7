(** Runtime values of the machine model.

    Integers are stored in the canonical zero-extended form of
    [Pir.Ints]; pointers are byte addresses stored as [I].  Vectors store
    per-lane scalars; masks are integer vectors of 0/1. *)

type t =
  | Unit
  | I of int64
  | F of float
  | VI of int64 array
  | VF of float array

let pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | I v -> Fmt.pf ppf "%Ld" v
  | F v -> Fmt.pf ppf "%g" v
  | VI a -> Fmt.pf ppf "<%a>" Fmt.(array ~sep:(any ",") int64) a
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
  | VI a -> Array.length a
  | VF a -> Array.length a
  | _ -> 1

(** Lane [i] of a vector as a scalar value. *)
let lane v i =
  match v with
  | VI a -> I a.(i)
  | VF a -> F a.(i)
  | _ -> Fmt.invalid_arg "Value.lane: %a" pp v

let set_lane v i x =
  match (v, x) with
  | VI a, I x ->
      let a = Array.copy a in
      a.(i) <- x;
      VI a
  | VF a, F x ->
      let a = Array.copy a in
      a.(i) <- x;
      VF a
  | _ -> Fmt.invalid_arg "Value.set_lane: %a <- %a" pp v pp x

(* Interning tables for small integers.  Integer values are immutable
   and compared structurally, so sharing one preallocated box per value
   below 2^16 is unobservable.  It keeps the paths that box integers
   off the minor heap: the [int64 array] vector lanes ([box64]) and
   memory loads that return a [Value.t] ([of_nat], [of_int64]);
   canonical [i1]/[i8]/[i16] values always hit, [i32]/[i64] values
   usually do.

   Both tables are filled on first use: building all 65 536 boxes and
   cells up front costs several milliseconds of every process start,
   a third of the start-up of a process that never runs the machine.
   A slot is filled by a plain store, so two domains racing on one
   slot each get a correct value and the last store wins; unlike
   [Lazy.force], neither can fail. *)

(* An empty [small64] slot holds this box, which no filled slot ever
   holds.  Slots are compared with it physically: unlike reading the
   box's value, that adds no dependent load to the VM's lane boxing.
   [opaque_identity] keeps every use on the one global box. *)
let unfilled64 : int64 = Sys.opaque_identity (-1L)

let small64 : int64 array = Array.make 65536 unfilled64

(* stored, then read back: a let-bound [Int64.of_int] would be unboxed
   and boxed afresh for the store and for the result *)
let[@inline never] intern64 v =
  small64.(v) <- Int64.of_int v;
  small64.(v)

(** The shared box of [Int64.of_int v], for [0 <= v < 2^16]. *)
let[@inline] box64_small v =
  let b = Array.unsafe_get small64 v in
  if b != unfilled64 then b else intern64 v

(** [Int64.of_int v], through the shared box when [0 <= v < 2^16]: how
    the [int64 array] lanes of vectors avoid a fresh block per lane. *)
let[@inline] box64 v = if v >= 0 && v < 65536 then box64_small v else Int64.of_int v

let small_cells : t array = Array.make 65536 Unit

let[@inline never] intern v =
  let c = I (box64_small v) in
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

(** Build a vector of element kind [s] from per-lane scalar values. *)
let of_lanes (s : Pir.Types.scalar) xs =
  if Pir.Types.is_float_scalar s then VF (Array.map as_float xs)
  else VI (Array.map as_int xs)

(** A fresh all-zero vector of [n] lanes of element kind [s]. *)
let vec (s : Pir.Types.scalar) n =
  if Pir.Types.is_float_scalar s then VF (Array.make n 0.) else VI (Array.make n 0L)

let splat (s : Pir.Types.scalar) n v =
  if Pir.Types.is_float_scalar s then VF (Array.make n (as_float v))
  else VI (Array.make n (as_int v))

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
  | VI x, VI y -> Array.length x = Array.length y && Array.for_all2 Int64.equal x y
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
