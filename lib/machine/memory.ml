(** Byte-addressable linear memory with a bump allocator.

    Address 0 is kept unmapped so it can serve as a null pointer.  All
    accesses are bounds-checked; an out-of-bounds access raises [Fault],
    which differential tests rely on to catch miscompiled masks.

    The memory has an architectural size (1 MiB unless [create] is told
    otherwise, doubled by [alloc] when the break passes it), and that
    size alone decides which accesses fault.  The bytes behind it are
    materialised lazily: [data] holds a zero-initialised prefix of the
    memory that starts empty and doubles whenever [alloc] or an access
    reaches past it, so a run pays only for the bytes it allocates or
    touches.  Bytes past [data] read as zero, exactly as they would if
    they had been materialised. *)

exception Fault of string

type t = {
  mutable data : Bytes.t;  (** materialised prefix; zero past it *)
  mutable limit : int;  (** architectural size: the fault boundary *)
  mutable brk : int;
}

let create ?(size = 1 lsl 20) () = { data = Bytes.empty; limit = size; brk = 64 }

(** Number of materialised bytes. *)
let resident t = Bytes.length t.data

(* Zero-extend [data] to at least [upto] bytes (doubling, capped at the
   architectural size). *)
let materialise t upto =
  let n = Bytes.length t.data in
  if upto > n then begin
    let data = Bytes.extend t.data 0 (min t.limit (max upto (2 * n)) - n) in
    Bytes.fill data n (Bytes.length data - n) '\000';
    t.data <- data
  end

(** Allocate [bytes] bytes, 64-byte aligned; returns the address. *)
let alloc t bytes =
  let addr = (t.brk + 63) / 64 * 64 in
  let brk = addr + bytes in
  if brk > t.limit then t.limit <- max brk (2 * t.limit);
  materialise t brk;
  t.brk <- brk;
  addr

(** Current allocation mark; [release] rolls back to it (used for
    function-frame allocas). *)
let mark t = t.brk
let release t m = t.brk <- m

(* The cold half of [check]: fault outside the architectural size,
   otherwise materialise through the access. *)
let[@inline never] reach t addr len what =
  if addr < 64 || addr + len > t.limit then
    raise (Fault (Fmt.str "%s of %d bytes at address %d out of bounds" what len addr));
  materialise t (addr + len)

let[@inline] check t addr len what =
  if addr < 64 || addr + len > Bytes.length t.data then reach t addr len what

let load_scalar t (s : Pir.Types.scalar) addr : Value.t =
  let len = Pir.Types.scalar_bytes s in
  check t addr len "load";
  match s with
  | I1 -> Value.of_nat (if Bytes.get_uint8 t.data addr <> 0 then 1 else 0)
  | I8 -> Value.of_nat (Bytes.get_uint8 t.data addr)
  | I16 -> Value.of_nat (Bytes.get_uint16_le t.data addr)
  | I32 -> Value.of_nat (Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFF_FFFF)
  | I64 -> Value.of_int64 (Bytes.get_int64_le t.data addr)
  | F32 -> Value.F (Int32.float_of_bits (Bytes.get_int32_le t.data addr))
  | F64 -> Value.F (Int64.float_of_bits (Bytes.get_int64_le t.data addr))

let store_scalar t (s : Pir.Types.scalar) addr (v : Value.t) =
  let len = Pir.Types.scalar_bytes s in
  check t addr len "store";
  match (s, v) with
  | I1, Value.I x -> Bytes.set_uint8 t.data addr (if x = 0L then 0 else 1)
  | I8, Value.I x -> Bytes.set_uint8 t.data addr (Int64.to_int (Int64.logand x 0xFFL))
  | I16, Value.I x -> Bytes.set_uint16_le t.data addr (Int64.to_int (Int64.logand x 0xFFFFL))
  | I32, Value.I x -> Bytes.set_int32_le t.data addr (Int64.to_int32 x)
  | I64, Value.I x -> Bytes.set_int64_le t.data addr x
  | F32, Value.F x -> Bytes.set_int32_le t.data addr (Int32.bits_of_float x)
  | F64, Value.F x -> Bytes.set_int64_le t.data addr (Int64.bits_of_float x)
  | _ -> Fmt.invalid_arg "Memory.store_scalar: %a as %a" Value.pp v Pir.Types.pp (Pir.Types.Scalar s)

(* -- Unboxed scalar accessors --

   Same semantics (bounds checks, canonical zero-extension, rounding)
   as [load_scalar]/[store_scalar] but without boxing each element in a
   [Value.t]; the vector accesses below fill lane arrays with these. *)

let load_int t (s : Pir.Types.scalar) addr : int64 =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 -> if Bytes.get_uint8 t.data addr <> 0 then 1L else 0L
  | I8 -> Int64.of_int (Bytes.get_uint8 t.data addr)
  | I16 -> Int64.of_int (Bytes.get_uint16_le t.data addr)
  | I32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFFFFFFL
  | I64 -> Bytes.get_int64_le t.data addr
  | F32 | F64 -> Fmt.invalid_arg "Memory.load_int: %a" Pir.Types.pp (Pir.Types.Scalar s)

let load_float t (s : Pir.Types.scalar) addr : float =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | F32 -> Int32.float_of_bits (Bytes.get_int32_le t.data addr)
  | F64 -> Int64.float_of_bits (Bytes.get_int64_le t.data addr)
  | _ -> Fmt.invalid_arg "Memory.load_float: %a" Pir.Types.pp (Pir.Types.Scalar s)

let store_int t (s : Pir.Types.scalar) addr (x : int64) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | I1 -> Bytes.set_uint8 t.data addr (if x = 0L then 0 else 1)
  | I8 -> Bytes.set_uint8 t.data addr (Int64.to_int (Int64.logand x 0xFFL))
  | I16 -> Bytes.set_uint16_le t.data addr (Int64.to_int (Int64.logand x 0xFFFFL))
  | I32 -> Bytes.set_int32_le t.data addr (Int64.to_int32 x)
  | I64 -> Bytes.set_int64_le t.data addr x
  | F32 | F64 -> Fmt.invalid_arg "Memory.store_int: %a" Pir.Types.pp (Pir.Types.Scalar s)

let store_float t (s : Pir.Types.scalar) addr (x : float) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | F32 -> Bytes.set_int32_le t.data addr (Int32.bits_of_float x)
  | F64 -> Bytes.set_int64_le t.data addr (Int64.bits_of_float x)
  | _ -> Fmt.invalid_arg "Memory.store_float: %a" Pir.Types.pp (Pir.Types.Scalar s)

(* -- Native-int scalar accessors (widths <= 32) --

   The VM's unboxed register banks hold native [int]s; these accessors
   skip the [int64] round-trip entirely (no boxed intermediates on the
   non-flambda native compiler: 32-bit values move as two 16-bit
   immediate reads/writes).  Loads return the canonical zero-extended
   value, stores mask to the store width — bit-identical to
   [load_int]/[store_int] over the same bytes. *)

let[@inline] load_nat t (s : Pir.Types.scalar) addr : int =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 -> if Bytes.get_uint8 t.data addr <> 0 then 1 else 0
  | I8 -> Bytes.get_uint8 t.data addr
  | I16 -> Bytes.get_uint16_le t.data addr
  | I32 ->
      Bytes.get_uint16_le t.data addr
      lor (Bytes.get_uint16_le t.data (addr + 2) lsl 16)
  | I64 | F32 | F64 ->
      Fmt.invalid_arg "Memory.load_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] store_nat t (s : Pir.Types.scalar) addr (x : int) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | I1 -> Bytes.set_uint8 t.data addr (if x = 0 then 0 else 1)
  | I8 -> Bytes.set_uint8 t.data addr (x land 0xFF)
  | I16 -> Bytes.set_uint16_le t.data addr (x land 0xFFFF)
  | I32 ->
      Bytes.set_uint16_le t.data addr (x land 0xFFFF);
      Bytes.set_uint16_le t.data (addr + 2) ((x lsr 16) land 0xFFFF)
  | I64 | F32 | F64 ->
      Fmt.invalid_arg "Memory.store_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] load_f32 t addr : float =
  check t addr 4 "load";
  Int32.float_of_bits (Bytes.get_int32_le t.data addr)

let[@inline] load_f64 t addr : float =
  check t addr 8 "load";
  Int64.float_of_bits (Bytes.get_int64_le t.data addr)

let[@inline] store_f32 t addr (x : float) =
  check t addr 4 "store";
  Bytes.set_int32_le t.data addr (Int32.bits_of_float x)

let[@inline] store_f64 t addr (x : float) =
  check t addr 8 "store";
  Bytes.set_int64_le t.data addr (Int64.bits_of_float x)

(* -- Vector accesses --

   The one definition of every packed, masked, gather and scatter
   access; both engines call these.  Lane [l] of a gather or scatter is
   at [base + sext iw idxs.(l) * esz] (in [int64], as [Gep] computes
   it); a packed access is the one whose [idxs] is [packed], with lane
   [l] at [base + l * esz].  Lanes run in order, so a faulting lane
   raises after the effects of the lanes before it.  [mask] is [no_mask]
   or one [int64] per lane, as the engines hold an [<n x i1>] value: a
   zero lane neither touches memory nor faults, and a load writes zero
   into it.  A load fills the lanes of a destination vector the caller
   supplies (a fresh one, or a register the VM overwrites in place);
   integer lanes of at most 32 bits share the boxes of [Value.box64]. *)

(* both empty, which no real mask or index vector is *)
let no_mask : int64 array = [||]

let packed : int64 array = [||]

let[@inline] active mask l = mask == no_mask || mask.(l) <> 0L

let[@inline] lane_addr base esz iw idxs l =
  if idxs == packed then base + (l * esz)
  else
    Int64.to_int
      (Int64.add (Int64.of_int base)
         (Int64.mul (Pir.Ints.sext iw idxs.(l)) (Int64.of_int esz)))

let[@inline] load_lane t (s : Pir.Types.scalar) addr : int64 =
  if s = Pir.Types.I64 then load_int t s addr else Value.box64 (load_nat t s addr)

let gather t s ~base ~esz ~iw ~idxs ~mask (dst : Value.t) =
  match dst with
  | Value.VI r ->
      for l = 0 to Array.length r - 1 do
        Array.unsafe_set r l
          (if active mask l then load_lane t s (lane_addr base esz iw idxs l)
           else 0L)
      done
  | Value.VF r ->
      for l = 0 to Array.length r - 1 do
        Array.unsafe_set r l
          (if active mask l then load_float t s (lane_addr base esz iw idxs l)
           else 0.0)
      done
  | v -> Fmt.invalid_arg "Memory.gather: %a" Value.pp v

(* A value of the wrong class for [s] goes through [store_scalar], which
   rejects it at the first active lane. *)
let scatter t s ~base ~esz ~iw ~idxs ~mask (v : Value.t) =
  let n = if idxs == packed then Value.lanes v else Array.length idxs in
  match v with
  | Value.VI x when not (Pir.Types.is_float_scalar s) ->
      for l = 0 to n - 1 do
        if active mask l then store_int t s (lane_addr base esz iw idxs l) x.(l)
      done
  | Value.VF x when Pir.Types.is_float_scalar s ->
      for l = 0 to n - 1 do
        if active mask l then store_float t s (lane_addr base esz iw idxs l) x.(l)
      done
  | v ->
      for l = 0 to n - 1 do
        if active mask l then
          store_scalar t s (lane_addr base esz iw idxs l) (Value.lane v l)
      done

let load_packed t s ~base ~esz ~mask dst =
  gather t s ~base ~esz ~iw:0 ~idxs:packed ~mask dst

let store_packed t s ~base ~esz ~mask v =
  scatter t s ~base ~esz ~iw:0 ~idxs:packed ~mask v

(* -- Bulk helpers used by workload setup and result checking -- *)

(** Allocate and initialize an array of scalars; returns its address. *)
let alloc_array t (s : Pir.Types.scalar) (vals : Value.t array) =
  let esz = Pir.Types.scalar_bytes s in
  let addr = alloc t (esz * Array.length vals) in
  Array.iteri (fun i v -> store_scalar t s (addr + (i * esz)) v) vals;
  addr

let read_array t (s : Pir.Types.scalar) addr n =
  let esz = Pir.Types.scalar_bytes s in
  Array.init n (fun i -> load_scalar t s (addr + (i * esz)))

(** Snapshot of the allocated region, for state comparison in tests. *)
let snapshot t =
  let s = Bytes.make t.brk '\000' in
  Bytes.blit t.data 0 s 0 (min t.brk (Bytes.length t.data));
  s
