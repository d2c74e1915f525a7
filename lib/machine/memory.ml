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

(* -- Byte layout of each scalar kind --

   The one encoding of each kind in memory, little-endian and
   unchecked: every access below checks its bounds and then calls
   these.  An integer kind reads as its canonical zero-extended value
   and stores its low bytes ([I1] as 0 or 1); [I32] moves as two 16-bit
   halves, which boxes nothing on the non-flambda native compiler.
   They are inlined where they are called, so the [int64] or [float]
   they read or write never crosses a call. *)

let[@inline never] not_int (s : Pir.Types.scalar) =
  Fmt.invalid_arg "Memory: %a is not an integer kind" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline never] not_float (s : Pir.Types.scalar) =
  Fmt.invalid_arg "Memory: %a is not a float kind" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] get_int data (s : Pir.Types.scalar) a : int64 =
  match s with
  | I1 -> if Bytes.get_uint8 data a <> 0 then 1L else 0L
  | I8 -> Int64.of_int (Bytes.get_uint8 data a)
  | I16 -> Int64.of_int (Bytes.get_uint16_le data a)
  | I32 ->
      Int64.of_int (Bytes.get_uint16_le data a lor (Bytes.get_uint16_le data (a + 2) lsl 16))
  | I64 -> Bytes.get_int64_le data a
  | F32 | F64 -> not_int s

let[@inline] set_int data (s : Pir.Types.scalar) a (x : int64) =
  match s with
  | I1 -> Bytes.set_uint8 data a (if x = 0L then 0 else 1)
  | I8 -> Bytes.set_uint8 data a (Int64.to_int x land 0xFF)
  | I16 -> Bytes.set_uint16_le data a (Int64.to_int x land 0xFFFF)
  | I32 ->
      let v = Int64.to_int x in
      Bytes.set_uint16_le data a (v land 0xFFFF);
      Bytes.set_uint16_le data (a + 2) ((v lsr 16) land 0xFFFF)
  | I64 -> Bytes.set_int64_le data a x
  | F32 | F64 -> not_int s

let[@inline] get_float data (s : Pir.Types.scalar) a : float =
  match s with
  | F32 -> Int32.float_of_bits (Bytes.get_int32_le data a)
  | F64 -> Int64.float_of_bits (Bytes.get_int64_le data a)
  | I1 | I8 | I16 | I32 | I64 -> not_float s

let[@inline] set_float data (s : Pir.Types.scalar) a (x : float) =
  match s with
  | F32 -> Bytes.set_int32_le data a (Int32.bits_of_float x)
  | F64 -> Bytes.set_int64_le data a (Int64.bits_of_float x)
  | I1 | I8 | I16 | I32 | I64 -> not_float s

(* -- Scalar accesses -- *)

let load_scalar t (s : Pir.Types.scalar) addr : Value.t =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 | I8 | I16 | I32 -> Value.of_nat (Int64.to_int (get_int t.data s addr))
  | I64 -> Value.of_int64 (get_int t.data s addr)
  | F32 | F64 -> Value.F (get_float t.data s addr)

let store_scalar t (s : Pir.Types.scalar) addr (v : Value.t) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match (s, v) with
  | (I1 | I8 | I16 | I32 | I64), Value.I x -> set_int t.data s addr x
  | (F32 | F64), Value.F x -> set_float t.data s addr x
  | _ -> Fmt.invalid_arg "Memory.store_scalar: %a as %a" Value.pp v Pir.Types.pp (Pir.Types.Scalar s)

(* The VM's register banks hold integers of at most 32 bits as native
   [int]s ([load_nat]/[store_nat]), [i64] scalars as [int64]s and floats
   unboxed; these move them without a [Value.t]. *)

let[@inline] load_nat t (s : Pir.Types.scalar) addr : int =
  check t addr (Pir.Types.scalar_bytes s) "load";
  match s with
  | I1 | I8 | I16 | I32 -> Int64.to_int (get_int t.data s addr)
  | I64 | F32 | F64 -> Fmt.invalid_arg "Memory.load_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let[@inline] store_nat t (s : Pir.Types.scalar) addr (x : int) =
  check t addr (Pir.Types.scalar_bytes s) "store";
  match s with
  | I1 | I8 | I16 | I32 -> set_int t.data s addr (Int64.of_int x)
  | I64 | F32 | F64 -> Fmt.invalid_arg "Memory.store_nat: %a" Pir.Types.pp (Pir.Types.Scalar s)

let load_i64 t addr : int64 =
  check t addr 8 "load";
  get_int t.data I64 addr

let store_i64 t addr (x : int64) =
  check t addr 8 "store";
  set_int t.data I64 addr x

let[@inline] load_f32 t addr : float =
  check t addr 4 "load";
  get_float t.data F32 addr

let[@inline] load_f64 t addr : float =
  check t addr 8 "load";
  get_float t.data F64 addr

let[@inline] store_f32 t addr (x : float) =
  check t addr 4 "store";
  set_float t.data F32 addr x

let[@inline] store_f64 t addr (x : float) =
  check t addr 8 "store";
  set_float t.data F64 addr x

(* -- Vector accesses --

   The one definition of every packed, masked, gather and scatter
   access; both engines call these.  Lane [l] of a gather or scatter is
   at [base + sext iw idxs.(l) * esz] (in [int64], as [Gep] computes
   it); a packed access is the one whose [idxs] is [packed], with lane
   [l] at [base + l * esz].  Lanes run in order, so a faulting lane
   raises after the effects of the lanes before it.  [mask] is [no_mask]
   or the [<n x i1>] lanes of a mask value: a zero lane neither touches
   memory nor faults, and a load writes zero into it.  A load fills the
   lanes of a destination vector the caller supplies (a fresh one, or a
   register the VM overwrites in place).  Integer lanes are {!Value}'s
   unboxed slots, float lanes a [float array]; a lane moves through the
   kind's layout above without boxing.  A packed access whose whole
   range is already materialised cannot fault, so it checks its bounds
   once, for the range, and runs one loop for its scalar kind; any
   other access checks, and materialises, lane by lane, so faults, their
   text and their order are the lane-by-lane rule's. *)

(* both empty, which no real mask or index vector is *)
let no_mask = Bytes.empty

let packed = Bytes.empty

let[@inline] active mask l = mask == no_mask || Value.get64u mask (8 * l) <> 0L

let[@inline] lane_addr base esz iw idxs l =
  if idxs == packed then base + (l * esz)
  else
    (* [Pir.Ints.sext iw] as a shift pair, which boxes nothing *)
    let sh = 64 - iw in
    Int64.to_int
      (Int64.add (Int64.of_int base)
         (Int64.mul
            (Int64.shift_right (Int64.shift_left (Value.get64u idxs (8 * l)) sh) sh)
            (Int64.of_int esz)))

(* an access of [n] lanes reads [n] lanes of its indices and mask *)
let check_shape n idxs mask =
  if
    (idxs != packed && Bytes.length idxs < 8 * n)
    || (mask != no_mask && Bytes.length mask < 8 * n)
  then invalid_arg "Memory: fewer index or mask lanes than accessed lanes"

(* a packed access of [n] lanes of [esz] bytes at [base] that lies
   wholly in the materialised bytes: no lane can fault or materialise *)
let[@inline] resident_range t base esz n = base >= 64 && base + (n * esz) <= Bytes.length t.data

(* The packed accesses of a resident range, unchecked.  [gather] and
   [scatter] inline them with a constant kind, so the kind's layout
   folds into a loop of its own. *)

let[@inline] load_range data (s : Pir.Types.scalar) base mask (dst : Value.t) n =
  let esz = Pir.Types.scalar_bytes s in
  match dst with
  | Value.VI r ->
      for l = 0 to n - 1 do
        Value.set64u r (8 * l) (if active mask l then get_int data s (base + (l * esz)) else 0L)
      done
  | Value.VF r ->
      for l = 0 to n - 1 do
        Array.unsafe_set r l (if active mask l then get_float data s (base + (l * esz)) else 0.0)
      done
  | v -> Fmt.invalid_arg "Memory.load_packed: %a" Value.pp v

let[@inline] store_range data (s : Pir.Types.scalar) base mask (v : Value.t) n =
  let esz = Pir.Types.scalar_bytes s in
  match v with
  | Value.VI x ->
      for l = 0 to n - 1 do
        if active mask l then set_int data s (base + (l * esz)) (Value.get64u x (8 * l))
      done
  | Value.VF x ->
      for l = 0 to n - 1 do
        if active mask l then set_float data s (base + (l * esz)) (Array.unsafe_get x l)
      done
  | v -> Fmt.invalid_arg "Memory.store_packed: %a" Value.pp v

let gather t (s : Pir.Types.scalar) ~base ~esz ~iw ~idxs ~mask (dst : Value.t) =
  let n = Value.lanes dst in
  check_shape n idxs mask;
  if idxs == packed && resident_range t base esz n then
    let data = t.data in
    match s with
    | I1 -> load_range data I1 base mask dst n
    | I8 -> load_range data I8 base mask dst n
    | I16 -> load_range data I16 base mask dst n
    | I32 -> load_range data I32 base mask dst n
    | I64 -> load_range data I64 base mask dst n
    | F32 -> load_range data F32 base mask dst n
    | F64 -> load_range data F64 base mask dst n
  else
    let sz = Pir.Types.scalar_bytes s in
    match dst with
    | Value.VI r ->
        for l = 0 to n - 1 do
          Value.set64u r (8 * l)
            (if active mask l then begin
               let a = lane_addr base esz iw idxs l in
               check t a sz "load";
               get_int t.data s a
             end
             else 0L)
        done
    | Value.VF r ->
        for l = 0 to n - 1 do
          Array.unsafe_set r l
            (if active mask l then begin
               let a = lane_addr base esz iw idxs l in
               check t a sz "load";
               get_float t.data s a
             end
             else 0.0)
        done
    | v -> Fmt.invalid_arg "Memory.gather: %a" Value.pp v

let scatter t (s : Pir.Types.scalar) ~base ~esz ~iw ~idxs ~mask (v : Value.t) =
  let n = if idxs == packed then Value.lanes v else Value.ilanes idxs in
  check_shape n idxs mask;
  if Value.lanes v < n then invalid_arg "Memory.scatter: fewer value lanes than indices";
  if idxs == packed && resident_range t base esz n then
    let data = t.data in
    match s with
    | I1 -> store_range data I1 base mask v n
    | I8 -> store_range data I8 base mask v n
    | I16 -> store_range data I16 base mask v n
    | I32 -> store_range data I32 base mask v n
    | I64 -> store_range data I64 base mask v n
    | F32 -> store_range data F32 base mask v n
    | F64 -> store_range data F64 base mask v n
  else
    let sz = Pir.Types.scalar_bytes s in
    match v with
    | Value.VI x ->
        for l = 0 to n - 1 do
          if active mask l then begin
            let a = lane_addr base esz iw idxs l in
            check t a sz "store";
            set_int t.data s a (Value.get64u x (8 * l))
          end
        done
    | Value.VF x ->
        for l = 0 to n - 1 do
          if active mask l then begin
            let a = lane_addr base esz iw idxs l in
            check t a sz "store";
            set_float t.data s a (Array.unsafe_get x l)
          end
        done
    | v -> Fmt.invalid_arg "Memory.scatter: %a" Value.pp v

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
