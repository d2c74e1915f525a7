(** Bytecode compiler: PIR functions to flat register-machine code.

    The tree-walking interpreter pays per executed instruction for work
    that is invariant across executions: the operator dispatch match,
    operand resolution through closures, constant boxing and callee
    lookup.  [compile] pays all of it once per function instead:

    - SSA values are numbered into a flat register frame; operands
      become plain array indices.  Constants get frame slots past
      [next_id], written once when a frame is first created — pooled
      frames keep them (nothing ever writes a constant slot).
    - Registers are *class-allocated* into four banks by their PIR
      type: scalar integers of width <= 32 and pointers live in a
      native [int array], scalar floats in a [float array], [i64]
      scalars in an [int64 array], and everything else (vectors,
      unknowns) in a boxed [Value.t array].  The native banks store
      exactly the value the interpreter would box ([Int64.to_int] is
      lossless below 2^62, and every masked operation at width <= 32
      produces the same low bits under 63-bit and 64-bit wraparound);
      the long bank keeps full 64-bit exactness, with element moves
      (phis, compares, geps, stores) costing nothing and only fresh
      64-bit results boxing.  Results stay bit-identical while the
      scalar hot path allocates at most one word-pair per produced
      [i64] and nothing anywhere else.
    - Hot scalar operations compile to dedicated instruction forms
      ([IBin], [FBin], [GepN], [LdN], ...) dispatched directly by the
      VM loop — no closure call, no boxing.  Vector operations compile
      to forms ([VIBin], [VCast], [VSel], ...) that the VM runs through
      [Eval]'s lane kernels, and vector memory accesses to forms
      ([VLdV], [VStV], [VGaV], [VScV]) that it runs through [Memory]'s
      lane loops: the interpreter runs the same code.  A few rare
      operations compile to closures specialized on operand class;
      anything irregular falls back to [State.exec], the interpreter's
      boxed semantics, reading the banks through the frame's
      class-aware [get].
    - Blocks are concatenated into one instruction array; branch and
      phi targets are absolute program counters resolved at compile
      time.  A block's phi prefix becomes one parallel-copy stub per
      incoming edge, appended after the straight-line code, so block
      bodies contain data instructions only.
    - Callees are classified by [State.callee] at compile time: math
      library entries, and through the [call] callback compiled
      functions and SPMD gangs, are all direct closures by the time the
      code runs.
    - Cycle/fuel/instruction accounting is block-granular: one [Acct]
      pseudo-instruction per block carries the static sums from
      [Cost.schedule_func], which is the same schedule the interpreter
      charges — the two engines produce bit-identical cycle totals.

    Known (intentional) divergence from the interpreter: the unboxed
    banks commit to a value's class at compile time, so *ill-typed* IR
    that the verifier rejects (a use before any definition, a call with
    arguments that contradict the signature, a phi whose incoming type
    differs from its own) can trap earlier than the interpreter's lazy
    per-use checks, and native-int addresses wrap at 2^62 instead of
    2^63.  Well-typed programs — everything the frontends, fuzzer and
    verifier produce — behave identically.

    Execution of the instruction array lives in [Vm]. *)

open Pir.Instr

(* block-granular accounting charged on entry, in the interpreter's
   order ([Interp.enter]): fuel, instrs, vector_instrs, then the phi and
   body cycle sums as two separate float additions *)
type acct = {
  a_ix : int;  (** source-block index (into [c_pent]) for attribution *)
  a_n : int;  (** instructions in the block, phis included *)
  a_vec : int;  (** vector-typed instructions *)
  a_cyc : float array;
      (** charged cycles of the phi prefix, then of body + terminator *)
}

type frame = {
  regs : Value.t array;  (** boxed bank: vectors and everything odd *)
  iregs : int array;  (** native bank: int scalars of width <= 32, pointers *)
  fregs : float array;  (** float bank: [f32]/[f64] scalars, unboxed *)
  lregs : int64 array;
      (** long bank: [i64] scalars at full 64-bit exactness; element
          reads/writes are pointer moves, only fresh results box *)
  get : operand -> Value.t;
      (** class-aware boxed view of the banks; only the fallback
          instructions (compiled through [State.exec]) read it *)
}

(* phi parallel copy, split by register class.  All sources are read
   before any destination is written (phis read simultaneously); the
   scratch arrays are preallocated and safe to reuse because a copy can
   not re-enter the VM mid-flight. *)
type copies = {
  kb_d : int array;
  kb_s : int array;
  kb_t : Value.t array;
  ki_d : int array;
  ki_s : int array;
  ki_t : int array;
  kf_d : int array;
  kf_s : int array;
  kf_t : float array;
  kl_d : int array;
  kl_s : int array;
  kl_t : int64 array;
  (* lane copies: the destination slot holds a private frame array
     (see [c_priv]); the source's lanes are copied through a
     preallocated scratch so parallel-copy read-before-write semantics
     hold even when one pair's destination feeds another's source *)
  kvi_d : int array;
  kvi_s : int array;
  kvi_t : Bytes.t array;
  kvf_d : int array;
  kvf_s : int array;
  kvf_t : float array array;
}

(* where a vector form writes its result: boxed-bank slot [slot], or,
   for a private register ([c_priv]), [lnot] of its slot; [elem] and
   [lanes] shape the fresh vector a non-private result gets *)
type vdst = { slot : int; elem : Pir.Types.scalar; lanes : int }

type inst =
  | Acct of acct
  (* -- native scalar forms: operands/destinations are bank indices -- *)
  | IBin of ibin * int * int * int * int  (** op, width, dst, a, b *)
  | IUn of iun * int * int * int  (** op, width, dst, a *)
  | ICmp of ipred * int * int * int * int  (** pred, width, dst, a, b *)
  | FBin of fbin * bool * int * int * int  (** op, round-to-f32, dst, a, b *)
  | FUn of fun_ * bool * int * int
  | FCmp of fpred * int * int * int  (** pred, dst (int bank), a, b *)
  | SelI of int * int * int * int  (** dst, cond, a, b — all int bank *)
  | SelF of int * int * int * int  (** dst int-bank cond, a b float bank *)
  | MovI of int * int  (** raw copy (int-int bitcast) *)
  | MovF of int * int
  | CastII of cast_kind * int * int * int * int  (** kind, ws, wd, dst, a *)
  | CastIF of bool * int * bool * int * int  (** signed, ws, round32, dst, a *)
  | CastFI of bool * int * int * int  (** signed (fptosi), wd, dst, a *)
  | CastFF of bool * int * int  (** round-to-f32, dst, a *)
  | BcastIF of int * int  (** 32-bit int bits to f32 *)
  | BcastFI of int * int  (** f32 bits to 32-bit int *)
  | GepN of int * int * int * int * int  (** elem size, idx width, dst, base, idx *)
  | AllocaN of int * int  (** byte count, dst *)
  | LdN of Pir.Types.scalar * int * int  (** scalar (int, <= 32 bits), dst, addr *)
  | LdF32 of int * int  (** dst (float bank), addr (int bank) *)
  | LdF64 of int * int
  | StN of Pir.Types.scalar * int * int  (** scalar, value, addr *)
  | StF32 of int * int  (** value (float bank), addr (int bank) *)
  | StF64 of int * int
  (* -- [i64] forms on the long bank: full 64-bit exactness -- *)
  | IBin64 of ibin * int * int * int  (** op, dst, a, b — all long bank *)
  | IUn64 of iun * int * int
  | ICmp64 of ipred * int * int * int  (** pred, dst (int bank), a, b *)
  | Sel64 of int * int * int * int  (** dst, cond (int bank), a, b *)
  | Mov64 of int * int  (** raw copy ([i64] bitcasts, width-64 exts) *)
  | Bcast64IF of int * int  (** [i64] bits to [f64]: dst (float), a (long) *)
  | Bcast64FI of int * int  (** [f64] bits to [i64]: dst (long), a (float) *)
  | Cast64Trunc of int * int * int  (** dst width <= 32: wd, dst (int), a (long) *)
  | CastZ64 of int * int * int  (** zext ws<=32 -> 64: ws, dst (long), a (int) *)
  | CastS64 of int * int * int  (** sext ws<=32 -> 64: ws, dst (long), a (int) *)
  | Cast64IF of bool * bool * int * int
      (** [i64] -> float: signed, round-to-f32, dst (float), a (long) *)
  | CastFI64 of bool * int * int  (** float -> [i64]: signed, dst (long), a (float) *)
  | Gep64 of int * int * int * int  (** elem size, dst, base (int), idx (long) *)
  | Ld64 of int * int  (** dst (long), addr (int) *)
  | St64 of int * int  (** value (long), addr (int) *)
  (* -- vector forms: operands are boxed-bank slots, results go to a
     [vdst].  Lanes run in [Eval]'s kernels (integer and mixed lanes)
     or in [Vm] (float arithmetic), and in [Memory] (accesses); nothing
     is boxed per lane -- *)
  | VIBin of ibin * int * vdst * int * int  (** op, width, dst, a, b *)
  | VIUn of iun * int * vdst * int  (** op, width, dst, a *)
  | VICmp of ipred * int * vdst * int * int  (** mask result *)
  | VFBinN of fbin * bool * int * int * int  (** op, round-to-f32, dst, a, b *)
  | VFUnN of fun_ * bool * int * int
  | VFCmpN of fpred * vdst * int * int  (** raw compares; mask result *)
  | VCast of cast_kind * Pir.Types.scalar * Pir.Types.scalar * vdst * int
      (** kind, source and destination element, dst, a *)
  | VShuffle of int array * vdst * int * int  (** lane table, dst, a, b *)
  | VShuffleDyn of vdst * int * int  (** dst, a, lane-index vector *)
  | VSel of vdst * int * int * int  (** dst, mask, a, b *)
  | VSplatI of vdst * int  (** dst, src (int bank) *)
  | VSplatL of vdst * int  (** dst, src (long bank) *)
  | VSplatF of int * int * int  (** lanes, dst, src (float bank) *)
  | VLdV of int * vdst * int * int
      (** elem bytes, dst (its element is the loaded kind), addr (int
          bank), mask or -1 *)
  | VStV of Pir.Types.scalar * int * int * int * int
      (** elem, elem bytes, value, addr (int bank), mask or -1 *)
  | VRedI of reduce_kind * int * int * int
      (** int reduce, width <= 32 (any width for any/all): kind, width,
          dst (int bank), src *)
  | VRedF of reduce_kind * Pir.Types.scalar * int * int
      (** float reduce: kind, elem, dst (float bank), src *)
  | VGaV of int * int * vdst * int * int * int
      (** gather: elem bytes, index width, dst, base (int bank), index
          vector, mask or -1 *)
  | VScV of Pir.Types.scalar * int * int * int * int * int * int
      (** scatter: elem, elem bytes, index width, value, base (int bank),
          index vector, mask or -1 *)
  (* -- closure forms for vector / rare operations -- *)
  | Op of int * (State.t -> frame -> Value.t)  (** boxed-bank dst, body *)
  | OpI of int * (State.t -> frame -> Value.t)  (** unboxes into int bank *)
  | OpF of int * (State.t -> frame -> Value.t)  (** unboxes into float bank *)
  | OpL of int * (State.t -> frame -> Value.t)  (** unwraps into long bank *)
  | Eff of (State.t -> frame -> unit)  (** void result (stores, ...) *)
  (* -- control -- *)
  | Jmp of int
  | Cbr of int * int * int  (** int-bank condition, then-pc, else-pc *)
  | CbrG of (frame -> Value.t) * int * int  (** boxed condition (rare) *)
  | RetB of int
  | RetI of int
  | RetF of int
  | RetL of int
  | RetU
  | Par of copies  (** phi parallel copy *)
  | ParG of (frame -> Value.t) array * (int * int) array
      (** generic copy for class-mismatched (ill-typed) phis:
          getters, then (class, index) destinations *)
  | TrapI of string

type code = {
  c_fn : Pir.Func.t;
  c_blocks : Pir.Func.block list;  (** spine at compile time (staleness) *)
  c_insts : inst array;
  c_nb : int;  (** boxed bank size *)
  c_ni : int;  (** int bank size *)
  c_nf : int;  (** float bank size *)
  c_nl : int;  (** long bank size *)
  c_cls : int array;  (** slot -> class (0 boxed, 1 int, 2 float, 3 long) *)
  c_idx : int array;  (** slot -> index within its class's bank *)
  c_consts_b : (int * Value.t) list;  (** boxed-bank constant init *)
  c_consts_i : (int * int) list;
  c_consts_f : (int * float) list;
  c_consts_l : (int * int64) list;
  c_params : int array;  (** parameter slots, in order *)
  c_priv : (int * int * bool) array;
      (** private vector registers: (boxed index, lanes, is-float).
          Escape analysis proved every use reads lanes only, so the
          frame preallocates one array per register and the defining
          instruction (dst encoded as [lnot index]) writes lanes in
          place — the hot-loop result allocation disappears. *)
  (* -- attribution, indexed by block.  The only dynamic counter is
     [c_pent], bumped by [Vm]'s Acct dispatch while profiling is on
     (always allocated — one slot per block — so the off path pays
     nothing).  Instructions and cycles per entry are block constants,
     so [Profile.v] derives the rows from the entry count alone. -- *)
  c_pent : int array;  (** block entries (dynamic) *)
  c_pn : int array;  (** accounted instructions per entry (static) *)
  c_psums : float array array;
      (** charged phi-prefix, then body+term cycles per entry (static:
          the schedule's [cs_sums]) *)
  mutable c_pool : frame list;  (** frames reused across calls *)
}

let box_const (c : const) : Value.t =
  match c with
  | Cint (_, x) -> Value.I x
  | Cfloat (s, x) -> Value.F (Value.round_float s x)
  | Cvec (_, a) -> Value.VI (Value.ivec_of_array a)

(* register classes *)
let cls_boxed = 0
let cls_int = 1
let cls_float = 2
let cls_long = 3

let class_of_ty (ty : Pir.Types.t) =
  match ty with
  | Pir.Types.Scalar (Pir.Types.I1 | Pir.Types.I8 | Pir.Types.I16 | Pir.Types.I32)
  | Pir.Types.Ptr _ ->
      cls_int
  | Pir.Types.Scalar (Pir.Types.F32 | Pir.Types.F64) -> cls_float
  | Pir.Types.Scalar Pir.Types.I64 -> cls_long
  | _ -> cls_boxed

(* a vector access's mask: absent, or in the boxed bank; its operand in
   the access's instruction form is [-1] or that slot *)
let boxed_mask sc_ = function None -> true | Some m -> sc_ m = cls_boxed
let mask_slot si = function None -> -1 | Some m -> si m

(* a compiled instruction that traps when (and only when) executed:
   ill-typed unreachable code must fail at the same point as under the
   interpreter, not at compile time *)
let trap_op msg = Eff (fun _ _ -> State.trap "%s" msg)

(** Compile [f], a function of [modul]; [call] runs a callee that is a
    function of [modul]. *)
let compile ~(call : Pir.Func.t -> Value.t list -> Value.t)
    (modul : Pir.Func.modul) (f : Pir.Func.t) : code =
  if f.blocks = [] then
    Fmt.invalid_arg "Func.entry: %s has no blocks" f.fname;
  let operand_ty = Pir.Func.ty_of_operand f in
  (* -- register allocation, phase 1: SSA ids as-is, constants
     deduplicated into slots past [next_id].  A pre-scan materializes
     every constant slot so the class maps below cover all slots. -- *)
  let next_slot = ref (max 1 f.next_id) in
  let const_slots : (const, int) Hashtbl.t = Hashtbl.create 16 in
  let consts = ref [] in
  let reg (o : operand) : int =
    match o with
    | Var v -> v
    | Const c -> (
        match Hashtbl.find_opt const_slots c with
        | Some s -> s
        | None ->
            let s = !next_slot in
            incr next_slot;
            Hashtbl.replace const_slots c s;
            consts := (s, c) :: !consts;
            s)
  in
  let scan o = ignore (reg o : int) in
  let iter_ops (scan : operand -> unit) (op : op) =
    match op with
    | Ibin (_, a, b)
    | Fbin (_, a, b)
    | Icmp (_, a, b)
    | Fcmp (_, a, b)
    | Gep (a, b)
    | Store (a, b)
    | ShuffleDyn (a, b)
    | ExtractLane (a, b)
    | Psadbw (a, b)
    | Shuffle (a, b, _) ->
        scan a;
        scan b
    | Iun (_, a) | Fun (_, a) | Cast (_, a, _) | Load a | Splat (a, _)
    | Reduce (_, a)
    | FirstLane a ->
        scan a
    | Select (a, b, c) | InsertLane (a, b, c) ->
        scan a;
        scan b;
        scan c
    | VLoad (p, m) ->
        scan p;
        Option.iter scan m
    | VStore (v, p, m) ->
        scan v;
        scan p;
        Option.iter scan m
    | Gather (b, ix, m) ->
        scan b;
        scan ix;
        Option.iter scan m
    | Scatter (v, b, ix, m) ->
        scan v;
        scan b;
        scan ix;
        Option.iter scan m
    | Call (_, args) -> List.iter scan args
    | Phi incoming -> List.iter (fun (_, o) -> scan o) incoming
    | Alloca _ -> ()
  in
  let scan_op = iter_ops scan in
  List.iter
    (fun (b : Pir.Func.block) ->
      List.iter (fun (i : instr) -> scan_op i.op) b.instrs;
      match b.term with
      | CondBr (c, _, _) -> scan c
      | Ret (Some o) -> scan o
      | Br _ | Ret None | Unreachable -> ())
    f.blocks;
  (* -- phase 2: class every slot by its PIR type, then assign compact
     per-bank indices -- *)
  let nslots = !next_slot in
  let cls = Array.make nslots cls_boxed in
  let idx = Array.make nslots 0 in
  for v = 0 to f.next_id - 1 do
    match Hashtbl.find_opt f.vty v with
    | Some ty -> cls.(v) <- class_of_ty ty
    | None -> ()
  done;
  List.iter
    (fun (s, c) -> cls.(s) <- class_of_ty (Pir.Instr.ty_of_const c))
    !consts;
  let nb = ref 0 and ni = ref 0 and nf = ref 0 and nl = ref 0 in
  for s = 0 to nslots - 1 do
    if cls.(s) = cls_int then begin
      idx.(s) <- !ni;
      incr ni
    end
    else if cls.(s) = cls_float then begin
      idx.(s) <- !nf;
      incr nf
    end
    else if cls.(s) = cls_long then begin
      idx.(s) <- !nl;
      incr nl
    end
    else begin
      idx.(s) <- !nb;
      incr nb
    end
  done;
  let consts_b = ref []
  and consts_i = ref []
  and consts_f = ref []
  and consts_l = ref [] in
  List.iter
    (fun (s, c) ->
      match (cls.(s), c) with
      | 1, Cint (_, x) -> consts_i := (idx.(s), Int64.to_int x) :: !consts_i
      | 2, Cfloat (sc, x) ->
          consts_f := (idx.(s), Value.round_float sc x) :: !consts_f
      | 3, Cint (_, x) -> consts_l := (idx.(s), x) :: !consts_l
      | _ -> consts_b := (idx.(s), box_const c) :: !consts_b)
    !consts;
  (* -- per-instruction specialization -- *)
  let si o = idx.(reg o) in
  let sc_ o = cls.(reg o) in
  (* escape analysis for vector registers.  A boxed register whose
     value is only ever *lane-read* (by the dedicated vector
     instruction forms, whose operands appear as plain indices) never
     needs a fresh array per definition.  Any use that can retain the
     whole array — a generic getter (closures capture the wrapper and
     may return or store it), a phi copy (pointer copy into another
     register), a return — marks the register as escaping.  Escaping
     registers keep the allocate-per-definition behavior. *)
  let escapes = Array.make nslots false in
  let esc (o : operand) =
    match o with
    | Var v -> if cls.(v) = cls_boxed then escapes.(v) <- true
    | Const _ -> ()
  in
  let getv (o : operand) : frame -> Value.t =
    let s = reg o in
    let i = idx.(s) in
    if cls.(s) = cls_int then fun fr -> Value.I (Int64.of_int fr.iregs.(i))
    else if cls.(s) = cls_float then fun fr -> Value.F fr.fregs.(i)
    else if cls.(s) = cls_long then fun fr -> Value.I fr.lregs.(i)
    else begin
      escapes.(s) <- true;
      fun fr -> fr.regs.(i)
    end
  in
  (* destination wrapper: pick the closure arm that stores into the
     destination's bank (unboxing on the way for the scalar banks) *)
  let wrap_dst (i : instr) (run : State.t -> frame -> Value.t) : inst =
    if i.ty = Pir.Types.Void then Eff (fun it fr -> ignore (run it fr))
    else
      match cls.(i.id) with
      | 1 -> OpI (idx.(i.id), run)
      | 2 -> OpF (idx.(i.id), run)
      | 3 -> OpL (idx.(i.id), run)
      | _ -> Op (idx.(i.id), run)
  in
  (* the destination of a vector form defining [i] *)
  let vdst (i : instr) =
    { slot = idx.(i.id); elem = Pir.Types.elem i.ty; lanes = Pir.Types.lanes i.ty }
  in
  let elem_size_of (p : operand) =
    match operand_ty p with
    | Pir.Types.Ptr s -> Some (s, Pir.Types.scalar_bytes s)
    | _ -> None
  in
  let bad_ptr (p : operand) =
    trap_op
      (Fmt.str "memory op through non-pointer (%a)" Pir.Types.pp
         (operand_ty p))
  in
  let fallback (i : instr) =
    (* irregular operand/destination classes and rare ops reuse the
       interpreter's boxed semantics through the frame's class-aware
       [get]; [Call]/[Phi] never reach here *)
    iter_ops esc i.op;
    wrap_dst i (fun st fr -> State.exec st ~get:fr.get ~oty:operand_ty i)
  in
  let compile_instr (i : instr) : inst =
    let dc = if i.ty = Pir.Types.Void then -1 else cls.(i.id) in
    match i.op with
    | Ibin (k, a, b) ->
        let ta = operand_ty a in
        let w = Pir.Types.scalar_bits (Pir.Types.elem ta) in
        if Pir.Types.is_vector ta && Pir.Types.is_vector (operand_ty b) then begin
          if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed then
            VIBin (k, w, vdst i, si a, si b)
          else fallback i
        end
        else if w <= 32 && sc_ a = cls_int && sc_ b = cls_int && dc = cls_int
        then IBin (k, w, idx.(i.id), si a, si b)
        else if w = 64 && sc_ a = cls_long && sc_ b = cls_long && dc = cls_long
        then IBin64 (k, idx.(i.id), si a, si b)
        else fallback i
    | Fbin (k, a, b) ->
        let ta = operand_ty a in
        if Pir.Types.is_vector ta && Pir.Types.is_vector (operand_ty b) then begin
          if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed then
            VFBinN
              ( k,
                Pir.Types.elem ta = Pir.Types.F32,
                idx.(i.id),
                si a,
                si b )
          else fallback i
        end
        else if Pir.Types.is_vector ta then fallback i
        else if
          sc_ a = cls_float && sc_ b = cls_float && dc = cls_float
        then
          FBin (k, Pir.Types.elem ta = Pir.Types.F32, idx.(i.id), si a, si b)
        else fallback i
    | Iun (k, a) ->
        let ta = operand_ty a in
        if Pir.Types.is_vector ta then begin
          let w = Pir.Types.scalar_bits (Pir.Types.elem ta) in
          if sc_ a = cls_boxed && dc = cls_boxed then VIUn (k, w, vdst i, si a)
          else fallback i
        end
        else begin
          let w = Pir.Types.scalar_bits (Pir.Types.elem ta) in
          if w <= 32 && sc_ a = cls_int && dc = cls_int then
            IUn (k, w, idx.(i.id), si a)
          else if w = 64 && sc_ a = cls_long && dc = cls_long then
            IUn64 (k, idx.(i.id), si a)
          else fallback i
        end
    | Fun (k, a) ->
        let ta = operand_ty a in
        if Pir.Types.is_vector ta then begin
          if sc_ a = cls_boxed && dc = cls_boxed then
            VFUnN (k, Pir.Types.elem ta = Pir.Types.F32, idx.(i.id), si a)
          else fallback i
        end
        else if sc_ a = cls_float && dc = cls_float then
          FUn (k, Pir.Types.elem ta = Pir.Types.F32, idx.(i.id), si a)
        else fallback i
    | Icmp (p, a, b) ->
        let ta = operand_ty a in
        let w = Pir.Types.scalar_bits (Pir.Types.elem ta) in
        if Pir.Types.is_vector ta && Pir.Types.is_vector (operand_ty b) then begin
          if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed then
            VICmp (p, w, vdst i, si a, si b)
          else fallback i
        end
        else if w <= 32 && sc_ a = cls_int && sc_ b = cls_int && dc = cls_int
        then ICmp (p, w, idx.(i.id), si a, si b)
        else if w = 64 && sc_ a = cls_long && sc_ b = cls_long && dc = cls_int
        then ICmp64 (p, idx.(i.id), si a, si b)
        else fallback i
    | Fcmp (p, a, b) ->
        let ta = operand_ty a in
        if Pir.Types.is_vector ta && Pir.Types.is_vector (operand_ty b) then begin
          if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed then
            VFCmpN (p, vdst i, si a, si b)
          else fallback i
        end
        else if Pir.Types.is_vector ta then fallback i
        else if sc_ a = cls_float && sc_ b = cls_float && dc = cls_int then
          FCmp (p, idx.(i.id), si a, si b)
        else fallback i
    | Select (c, a, b) ->
        let tc = operand_ty c in
        if Pir.Types.is_vector tc then begin
          if
            not
              (Pir.Types.is_vector (operand_ty a)
              && Pir.Types.is_vector (operand_ty b))
          then fallback i
          else if
            sc_ c = cls_boxed && sc_ a = cls_boxed && sc_ b = cls_boxed
            && cls.(i.id) = cls_boxed
          then VSel (vdst i, si c, si a, si b)
          else fallback i
        end
        else if sc_ c = cls_int then begin
          if sc_ a = cls_int && sc_ b = cls_int && dc = cls_int then
            SelI (idx.(i.id), si c, si a, si b)
          else if sc_ a = cls_float && sc_ b = cls_float && dc = cls_float
          then SelF (idx.(i.id), si c, si a, si b)
          else if sc_ a = cls_long && sc_ b = cls_long && dc = cls_long then
            Sel64 (idx.(i.id), si c, si a, si b)
          else if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed
          then begin
            (* the chosen wrapper is retained in the destination *)
            esc a;
            esc b;
            let rc = si c and ra = si a and rb = si b in
            Op
              ( idx.(i.id),
                fun _ fr ->
                  if fr.iregs.(rc) <> 0 then fr.regs.(ra) else fr.regs.(rb) )
          end
          else fallback i
        end
        else fallback i
    | Cast (k, a, _) ->
        let ta = operand_ty a in
        if Pir.Types.is_vector ta then begin
          if sc_ a = cls_boxed && dc = cls_boxed then
            VCast (k, Pir.Types.elem ta, Pir.Types.elem i.ty, vdst i, si a)
          else fallback i
        end
        else begin
          let src = Pir.Types.elem ta and dstl = Pir.Types.elem i.ty in
          let ws = Pir.Types.scalar_bits src
          and wd = Pir.Types.scalar_bits dstl in
          let ca = sc_ a in
          let boxed () =
            let ga = getv a in
            wrap_dst i (fun _ fr -> Eval.cast_scalar k src dstl (ga fr))
          in
          match k with
          | (Trunc | ZExt | SExt)
            when ca = cls_int && dc = cls_int && ws <= 32 && wd <= 32 ->
              CastII (k, ws, wd, idx.(i.id), si a)
          | Trunc when ca = cls_long && dc = cls_int && wd <= 32 ->
              Cast64Trunc (wd, idx.(i.id), si a)
          | (Trunc | ZExt | SExt) when ca = cls_long && dc = cls_long ->
              Mov64 (idx.(i.id), si a)
          | ZExt when ca = cls_int && dc = cls_long && ws <= 32 ->
              CastZ64 (ws, idx.(i.id), si a)
          | SExt when ca = cls_int && dc = cls_long && ws <= 32 ->
              CastS64 (ws, idx.(i.id), si a)
          | SIToFP when ca = cls_int && dc = cls_float && ws <= 32 ->
              CastIF (true, ws, dstl = Pir.Types.F32, idx.(i.id), si a)
          | UIToFP when ca = cls_int && dc = cls_float && ws <= 32 ->
              CastIF (false, ws, dstl = Pir.Types.F32, idx.(i.id), si a)
          | SIToFP when ca = cls_long && dc = cls_float ->
              Cast64IF (true, dstl = Pir.Types.F32, idx.(i.id), si a)
          | UIToFP when ca = cls_long && dc = cls_float ->
              Cast64IF (false, dstl = Pir.Types.F32, idx.(i.id), si a)
          | FPToSI when ca = cls_float && dc = cls_int && wd <= 32 ->
              CastFI (true, wd, idx.(i.id), si a)
          | FPToUI when ca = cls_float && dc = cls_int && wd <= 32 ->
              CastFI (false, wd, idx.(i.id), si a)
          | FPToSI when ca = cls_float && dc = cls_long ->
              CastFI64 (true, idx.(i.id), si a)
          | FPToUI when ca = cls_float && dc = cls_long ->
              CastFI64 (false, idx.(i.id), si a)
          | (FPTrunc | FPExt) when ca = cls_float && dc = cls_float ->
              CastFF (dstl = Pir.Types.F32, idx.(i.id), si a)
          | Bitcast when ca = cls_int && dc = cls_int ->
              MovI (idx.(i.id), si a)
          | Bitcast when ca = cls_float && dc = cls_float ->
              MovF (idx.(i.id), si a)
          | Bitcast when ca = cls_long && dc = cls_long ->
              Mov64 (idx.(i.id), si a)
          | Bitcast when ca = cls_int && dc = cls_float && ws = 32 && wd = 32
            ->
              BcastIF (idx.(i.id), si a)
          | Bitcast when ca = cls_float && dc = cls_int && ws = 32 && wd = 32
            ->
              BcastFI (idx.(i.id), si a)
          | Bitcast when ca = cls_long && dc = cls_float && ws = 64 && wd = 64
            ->
              Bcast64IF (idx.(i.id), si a)
          | Bitcast when ca = cls_float && dc = cls_long && ws = 64 && wd = 64
            ->
              Bcast64FI (idx.(i.id), si a)
          | _ -> boxed ()
        end
    | Splat (a, n) ->
        let s = Pir.Types.elem i.ty in
        if cls.(i.id) <> cls_boxed then fallback i
        else if sc_ a = cls_int && Pir.Types.is_int_scalar s then
          VSplatI (vdst i, si a)
        else if sc_ a = cls_long && Pir.Types.is_int_scalar s then
          VSplatL (vdst i, si a)
        else if sc_ a = cls_float && Pir.Types.is_float_scalar s then
          VSplatF (n, idx.(i.id), si a)
        else fallback i
    | Gep (p, ixo) -> (
        match elem_size_of p with
        | None -> bad_ptr p
        | Some (_, esz) ->
            let iw = State.index_bits operand_ty ixo in
            if
              iw <= 32 && sc_ p = cls_int && sc_ ixo = cls_int
              && dc = cls_int
            then GepN (esz, iw, idx.(i.id), si p, si ixo)
            else if
              iw = 64 && sc_ p = cls_int && sc_ ixo = cls_long
              && dc = cls_int
            then Gep64 (esz, idx.(i.id), si p, si ixo)
            else begin
              let esz64 = Int64.of_int esz in
              let gp = getv p and gi = getv ixo in
              wrap_dst i (fun _ fr ->
                  let base = Value.as_int (gp fr) in
                  let off = Pir.Ints.sext iw (Value.as_int (gi fr)) in
                  Value.I (Int64.add base (Int64.mul off esz64)))
            end)
    | Alloca (s, n) ->
        let bytes = Pir.Types.scalar_bytes s * n in
        if dc = cls_int then AllocaN (bytes, idx.(i.id))
        else
          wrap_dst i (fun st _ ->
              Value.I (Int64.of_int (Memory.alloc st.State.mem bytes)))
    | Load p -> (
        match elem_size_of p with
        | None -> bad_ptr p
        | Some (s, _) ->
            if sc_ p <> cls_int then fallback i
            else begin
              let rp = si p in
              match s with
              | (Pir.Types.I1 | Pir.Types.I8 | Pir.Types.I16 | Pir.Types.I32)
                when dc = cls_int && i.ty = Pir.Types.Scalar s ->
                  LdN (s, idx.(i.id), rp)
              | Pir.Types.F32 when dc = cls_float && i.ty = Pir.Types.f32 ->
                  LdF32 (idx.(i.id), rp)
              | Pir.Types.F64 when dc = cls_float && i.ty = Pir.Types.f64 ->
                  LdF64 (idx.(i.id), rp)
              | Pir.Types.I64 when dc = cls_long && i.ty = Pir.Types.i64 ->
                  Ld64 (idx.(i.id), rp)
              | _ ->
                  wrap_dst i (fun st fr ->
                      st.State.stats.scalar_mem <- st.stats.scalar_mem + 1;
                      Memory.load_scalar st.mem s fr.iregs.(rp))
            end)
    | Store (v, p) -> (
        match elem_size_of p with
        | None -> bad_ptr p
        | Some (s, _) ->
            if sc_ p <> cls_int then fallback i
            else begin
              let rp = si p in
              match s with
              | (Pir.Types.I1 | Pir.Types.I8 | Pir.Types.I16 | Pir.Types.I32)
                when sc_ v = cls_int ->
                  StN (s, si v, rp)
              | Pir.Types.F32 when sc_ v = cls_float -> StF32 (si v, rp)
              | Pir.Types.F64 when sc_ v = cls_float -> StF64 (si v, rp)
              | Pir.Types.I64 when sc_ v = cls_long -> St64 (si v, rp)
              | _ ->
                  let gv = getv v in
                  Eff
                    (fun st fr ->
                      st.State.stats.scalar_mem <- st.stats.scalar_mem + 1;
                      Memory.store_scalar st.mem s fr.iregs.(rp) (gv fr))
            end)
    | VLoad (p, mask) -> (
        match elem_size_of p with
        | None -> bad_ptr p
        | Some (s, esz) ->
            if
              sc_ p = cls_int && cls.(i.id) = cls_boxed && boxed_mask sc_ mask
              && Pir.Types.elem i.ty = s
            then VLdV (esz, vdst i, si p, mask_slot si mask)
            else fallback i)
    | VStore (v, p, mask) -> (
        match elem_size_of p with
        | None -> bad_ptr p
        | Some (s, esz) ->
            if sc_ p = cls_int && sc_ v = cls_boxed && boxed_mask sc_ mask then
              VStV (s, esz, si v, si p, mask_slot si mask)
            else fallback i)
    | Gather (b, ixo, mask) -> (
        match elem_size_of b with
        | None -> bad_ptr b
        | Some (s, esz) ->
            let iw = State.index_bits operand_ty ixo in
            if
              sc_ b = cls_int && sc_ ixo = cls_boxed && cls.(i.id) = cls_boxed
              && boxed_mask sc_ mask
              && Pir.Types.elem i.ty = s
            then VGaV (esz, iw, vdst i, si b, si ixo, mask_slot si mask)
            else fallback i)
    | Scatter (v, b, ixo, mask) -> (
        match elem_size_of b with
        | None -> bad_ptr b
        | Some (s, esz) ->
            let iw = State.index_bits operand_ty ixo in
            if
              sc_ b = cls_int && sc_ v = cls_boxed && sc_ ixo = cls_boxed
              && boxed_mask sc_ mask
            then VScV (s, esz, iw, si v, si b, si ixo, mask_slot si mask)
            else fallback i)
    | Reduce (k, v) ->
        let s = Pir.Types.elem (operand_ty v) in
        let w = Pir.Types.scalar_bits s in
        let int_src = Pir.Types.is_int_scalar s in
        if sc_ v = cls_boxed then begin
          match k with
          | (RAny | RAll) when int_src && cls.(i.id) = cls_int ->
              VRedI (k, w, idx.(i.id), si v)
          | (RAdd | RAnd | ROr | RXor | RSMin | RSMax | RUMin | RUMax)
            when int_src && w <= 32 && cls.(i.id) = cls_int ->
              VRedI (k, w, idx.(i.id), si v)
          | (RFAdd | RFMin | RFMax)
            when Pir.Types.is_float_scalar s && cls.(i.id) = cls_float ->
              VRedF (k, s, idx.(i.id), si v)
          | _ ->
              let gv = getv v in
              wrap_dst i (fun _ fr -> Eval.reduce_value k s (gv fr))
        end
        else begin
          let gv = getv v in
          wrap_dst i (fun _ fr -> Eval.reduce_value k s (gv fr))
        end
    | ExtractLane (v, ixo) ->
        if sc_ v = cls_boxed && sc_ ixo = cls_int then begin
          let rv = si v and ri = si ixo in
          wrap_dst i (fun _ fr -> Eval.extract_lane fr.regs.(rv) fr.iregs.(ri))
        end
        else fallback i
    | Call (name, args) -> (
        let gs = Array.of_list (List.map getv args) in
        let collect fr = Array.fold_right (fun g acc -> g fr :: acc) gs [] in
        match State.callee modul name with
        | Math ->
            if i.ty = Pir.Types.Void then
              Eff (fun _ fr -> ignore (Mathlib.eval name (collect fr)))
            else wrap_dst i (fun _ fr -> Mathlib.eval name (collect fr))
        | Func g ->
            let g = call g in
            if i.ty = Pir.Types.Void then
              Eff (fun _ fr -> ignore (g (collect fr)))
            else wrap_dst i (fun _ fr -> g (collect fr))
        | Bad msg -> trap_op msg)
    | Phi _ -> assert false (* phis compile to edge stubs *)
    | Shuffle (a, b, sidx) ->
        if sc_ a = cls_boxed && sc_ b = cls_boxed && dc = cls_boxed then
          VShuffle (sidx, vdst i, si a, si b)
        else fallback i
    | ShuffleDyn (a, ixo) ->
        if sc_ a = cls_boxed && sc_ ixo = cls_boxed && dc = cls_boxed then
          VShuffleDyn (vdst i, si a, si ixo)
        else fallback i
    | InsertLane _ | FirstLane _ | Psadbw _ -> fallback i
  in
  (* -- layout --
     main section: per block [Acct; body...; terminator], in function
     order; edge stubs (phi parallel copies) appended after.  Every
     instruction is exactly one slot, so all offsets are known before
     anything is emitted. *)
  let scheds = Cost.schedule_func Cost.default f in
  let blocks = Array.of_list f.blocks in
  let nblocks = Array.length blocks in
  let nphis_of (b : Pir.Func.block) =
    let rec go n = function
      | ({ op = Phi _; _ } : instr) :: rest -> go (n + 1) rest
      | _ -> n
    in
    go 0 b.instrs
  in
  let entry_traps = nblocks > 0 && nphis_of blocks.(0) > 0 in
  let block_start = Hashtbl.create 16 in
  let pc = ref (if entry_traps then 1 else 0) in
  Array.iter
    (fun (b : Pir.Func.block) ->
      Hashtbl.replace block_start b.bname !pc;
      let nbody = List.length b.instrs - nphis_of b in
      pc := !pc + 1 (* Acct *) + nbody + 1 (* terminator *))
    blocks;
  (* edge stubs, keyed (pred, succ): 2 slots each *)
  let stub_pcs = Hashtbl.create 16 in
  let has_phis = Hashtbl.create 16 in
  Array.iter
    (fun (b : Pir.Func.block) ->
      Hashtbl.replace has_phis b.bname (nphis_of b > 0))
    blocks;
  Array.iter
    (fun (b : Pir.Func.block) ->
      let edge succ =
        if
          (match Hashtbl.find_opt has_phis succ with
          | Some p -> p
          | None -> false)
          && not (Hashtbl.mem stub_pcs (b.bname, succ))
        then begin
          Hashtbl.replace stub_pcs (b.bname, succ) !pc;
          pc := !pc + 2
        end
      in
      match b.term with
      | Br l -> edge l
      | CondBr (_, l1, l2) ->
          edge l1;
          edge l2
      | Ret _ | Unreachable -> ())
    blocks;
  let insts = Array.make (max 1 !pc) RetU in
  let emit = ref 0 in
  let push x =
    insts.(!emit) <- x;
    incr emit
  in
  let target pred succ =
    match Hashtbl.find_opt stub_pcs (pred, succ) with
    | Some p -> p
    | None -> (
        match Hashtbl.find_opt block_start succ with
        | Some p -> p
        | None ->
            Fmt.invalid_arg "Func.find_block: no block %%%s in %s" succ
              f.fname)
  in
  if entry_traps then
    push
      (TrapI
         (Fmt.str "phi in %s has no incoming for predecessor $entry" f.fname));
  Array.iteri
    (fun bix (b : Pir.Func.block) ->
      let sched : Cost.block_sched = Hashtbl.find scheds b.bname in
      push
        (Acct
           {
             a_ix = bix;
             a_n = sched.cs_ninstrs;
             a_vec = sched.cs_nvec;
             a_cyc = sched.cs_sums;
           });
      List.iteri
        (fun j (i : instr) ->
          if j >= sched.cs_nphis then push (compile_instr i))
        b.instrs;
      (match b.term with
      | Br l -> push (Jmp (target b.bname l))
      | CondBr (c, l1, l2) ->
          let pt = target b.bname l1 and pf = target b.bname l2 in
          if sc_ c = cls_int then push (Cbr (si c, pt, pf))
          else push (CbrG (getv c, pt, pf))
      | Ret None -> push RetU
      | Ret (Some o) -> (
          match sc_ o with
          | 1 -> push (RetI (si o))
          | 2 -> push (RetF (si o))
          | 3 -> push (RetL (si o))
          | _ ->
              (* the wrapper outlives the frame *)
              esc o;
              push (RetB (si o)))
      | Unreachable ->
          push (TrapI (Fmt.str "reached unreachable in %s" f.fname))))
    blocks;
  (* edge stubs, in the order their pcs were assigned *)
  let stubs =
    Hashtbl.fold (fun k p acc -> (p, k) :: acc) stub_pcs []
    |> List.sort compare
  in
  (* deferred boxed vector phi pairs per emitted [Par], keyed by its
     pc: (dst ssa id, incoming operand) *)
  let phi_pars = ref [] in
  List.iter
    (fun (_, (pred, succ)) ->
      let b =
        Array.to_list blocks
        |> List.find (fun (b : Pir.Func.block) -> b.Pir.Func.bname = succ)
      in
      let n = nphis_of b in
      let phis = Array.of_list (List.filteri (fun j _ -> j < n) b.instrs) in
      let srcs =
        Array.map
          (fun (i : instr) ->
            match i.op with
            | Phi incoming -> List.assoc_opt pred incoming
            | _ -> assert false)
          phis
      in
      if Array.exists Option.is_none srcs then begin
        push
          (TrapI
             (Fmt.str "phi in %s has no incoming for predecessor %s" f.fname
                pred));
        push (Jmp (Hashtbl.find block_start succ))
      end
      else begin
        let srcs = Array.map Option.get srcs in
        let matched =
          Array.for_all2
            (fun (i : instr) o -> cls.(i.id) = cls.(reg o))
            phis srcs
        in
        if matched then begin
          (* a pointer phi copy retains the source wrapper in the
             destination.  Vector-typed boxed pairs are deferred: after
             the escape fixpoint below, pairs whose destination stayed
             private become lane copies (no retention, no marking) *)
          let deferred = ref [] in
          Array.iteri
            (fun j (i : instr) ->
              if cls.(i.id) = cls_boxed then
                match Hashtbl.find_opt f.vty i.id with
                | Some ty when Pir.Types.is_vector ty ->
                    deferred := (i.id, srcs.(j)) :: !deferred
                | _ ->
                    escapes.(i.id) <- true;
                    esc srcs.(j))
            phis;
          phi_pars := (!emit, !deferred) :: !phi_pars;
          let take c =
            let ds = ref [] and ss = ref [] in
            Array.iteri
              (fun j (i : instr) ->
                if cls.(i.id) = c then begin
                  ds := idx.(i.id) :: !ds;
                  ss := idx.(reg srcs.(j)) :: !ss
                end)
              phis;
            (Array.of_list (List.rev !ds), Array.of_list (List.rev !ss))
          in
          let kb_d, kb_s = take cls_boxed in
          let ki_d, ki_s = take cls_int in
          let kf_d, kf_s = take cls_float in
          let kl_d, kl_s = take cls_long in
          push
            (Par
               {
                 kb_d;
                 kb_s;
                 kb_t = Array.make (Array.length kb_d) Value.Unit;
                 ki_d;
                 ki_s;
                 ki_t = Array.make (Array.length ki_d) 0;
                 kf_d;
                 kf_s;
                 kf_t = Array.make (Array.length kf_d) 0.0;
                 kl_d;
                 kl_s;
                 kl_t = Array.make (Array.length kl_d) 0L;
                 kvi_d = [||];
                 kvi_s = [||];
                 kvi_t = [||];
                 kvf_d = [||];
                 kvf_s = [||];
                 kvf_t = [||];
               });
          push (Jmp (Hashtbl.find block_start succ))
        end
        else begin
          (* ill-typed phi (incoming class differs from the phi's own):
             copy through boxed values, unboxing per destination.  The
             generic setter replaces the destination wrapper, so boxed
             destinations can never be private *)
          Array.iter
            (fun (i : instr) ->
              if cls.(i.id) = cls_boxed then escapes.(i.id) <- true)
            phis;
          let gets = Array.map (fun o -> getv (o : operand)) srcs in
          let dsts =
            Array.map (fun (i : instr) -> (cls.(i.id), idx.(i.id))) phis
          in
          push (ParG (gets, dsts));
          push (Jmp (Hashtbl.find block_start succ))
        end
      end)
    stubs;
  assert (!emit = !pc);
  (* -- escape fixpoint for deferred phi pairs: a pair whose
     destination escaped (any retaining use, a generic-copy edge, or a
     demotion below) reverts to a pointer copy, which retains its
     source — possibly demoting the source's own phi in turn -- *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, pairs) ->
        List.iter
          (fun (d, src) ->
            if escapes.(d) then
              match (src : operand) with
              | Var s when cls.(s) = cls_boxed && not escapes.(s) ->
                  escapes.(s) <- true;
                  changed := true
              | _ -> ())
          pairs)
      !phi_pars
  done;
  (* -- privatization: rewrite the defining instruction of every
     non-escaping vector register to write its preallocated frame
     array in place (dst encoded as [lnot index]).  Lane reads through
     positive operand indices are unaffected: the slot keeps holding
     the same wrapper for the whole frame lifetime. -- *)
  let priv_n = Array.make (max 1 !nb) 0 in
  let priv_f = Array.make (max 1 !nb) false in
  for v = 0 to f.next_id - 1 do
    if cls.(v) = cls_boxed && not escapes.(v) then
      match Hashtbl.find_opt f.vty v with
      | Some ty when Pir.Types.is_vector ty ->
          priv_n.(idx.(v)) <- Pir.Types.lanes ty;
          priv_f.(idx.(v)) <- Pir.Types.is_float_scalar (Pir.Types.elem ty)
      | _ -> ()
  done;
  (* deferred phi pairs that stayed private move from the pointer-copy
     lists into lane copies; their destination slots are preinstalled
     like any other private register *)
  let lane_privs = Hashtbl.create 8 in
  List.iter
    (fun (par_pc, pairs) ->
      let lanes =
        List.filter_map
          (fun (d, src) ->
            if escapes.(d) then None
            else begin
              let sd = idx.(d) and ss = idx.(reg (src : operand)) in
              Hashtbl.replace lane_privs sd (priv_n.(sd), priv_f.(sd));
              Some (sd, ss, priv_n.(sd), priv_f.(sd))
            end)
          pairs
      in
      if lanes <> [] then
        match insts.(par_pc) with
        | Par k ->
            let drop = List.map (fun (sd, _, _, _) -> sd) lanes in
            let keep =
              Array.to_list (Array.mapi (fun j d -> (d, k.kb_s.(j))) k.kb_d)
              |> List.filter (fun (d, _) -> not (List.mem d drop))
            in
            let kb_d = Array.of_list (List.map fst keep) in
            let kb_s = Array.of_list (List.map snd keep) in
            let ints = List.filter (fun (_, _, _, isf) -> not isf) lanes in
            let flts = List.filter (fun (_, _, _, isf) -> isf) lanes in
            insts.(par_pc) <-
              Par
                {
                  k with
                  kb_d;
                  kb_s;
                  kb_t = Array.make (Array.length kb_d) Value.Unit;
                  kvi_d =
                    Array.of_list (List.map (fun (d, _, _, _) -> d) ints);
                  kvi_s =
                    Array.of_list (List.map (fun (_, s, _, _) -> s) ints);
                  kvi_t =
                    Array.of_list
                      (List.map (fun (_, _, n, _) -> Value.ivec n) ints);
                  kvf_d =
                    Array.of_list (List.map (fun (d, _, _, _) -> d) flts);
                  kvf_s =
                    Array.of_list (List.map (fun (_, s, _, _) -> s) flts);
                  kvf_t =
                    Array.of_list
                      (List.map (fun (_, _, n, _) -> Array.make n 0.0) flts);
                }
        | _ -> assert false)
    !phi_pars;
  let privs = ref [] in
  let pdst d =
    if d >= 0 && priv_n.(d) > 0 then begin
      privs := (d, priv_n.(d), priv_f.(d)) :: !privs;
      lnot d
    end
    else d
  in
  let pv (v : vdst) = { v with slot = pdst v.slot } in
  let insts =
    Array.map
      (fun inst ->
        match inst with
        | VIBin (k, w, d, a, b) -> VIBin (k, w, pv d, a, b)
        | VIUn (k, w, d, a) -> VIUn (k, w, pv d, a)
        | VICmp (p, w, d, a, b) -> VICmp (p, w, pv d, a, b)
        | VFBinN (k, r32, d, a, b) -> VFBinN (k, r32, pdst d, a, b)
        | VFUnN (k, r32, d, a) -> VFUnN (k, r32, pdst d, a)
        | VFCmpN (p, d, a, b) -> VFCmpN (p, pv d, a, b)
        | VCast (k, src, dst, d, a) -> VCast (k, src, dst, pv d, a)
        | VShuffle (t, d, a, b) -> VShuffle (t, pv d, a, b)
        | VShuffleDyn (d, a, ix) -> VShuffleDyn (pv d, a, ix)
        | VSel (d, c, a, b) -> VSel (pv d, c, a, b)
        | VSplatI (d, a) -> VSplatI (pv d, a)
        | VSplatL (d, a) -> VSplatL (pv d, a)
        | VSplatF (n, d, a) -> VSplatF (n, pdst d, a)
        | VLdV (esz, d, rp, rm) -> VLdV (esz, pv d, rp, rm)
        | VGaV (esz, iw, d, rb, rix, rm) -> VGaV (esz, iw, pv d, rb, rix, rm)
        | inst -> inst)
      insts
  in
  {
    c_fn = f;
    c_blocks = f.blocks;
    c_insts = insts;
    c_nb = !nb;
    c_ni = !ni;
    c_nf = !nf;
    c_nl = !nl;
    c_cls = cls;
    c_idx = idx;
    c_consts_b = !consts_b;
    c_consts_i = !consts_i;
    c_consts_f = !consts_f;
    c_consts_l = !consts_l;
    c_params = Array.of_list (List.map (fun (v, _) -> v) f.params);
    c_priv =
      Array.of_list
        (Hashtbl.fold
           (fun d (n, isf) acc -> (d, n, isf) :: acc)
           lane_privs !privs);
    c_pent = Array.make (max 1 nblocks) 0;
    c_pn =
      Array.map
        (fun (b : Pir.Func.block) ->
          (Hashtbl.find scheds b.Pir.Func.bname).Cost.cs_ninstrs)
        blocks;
    c_psums =
      Array.map
        (fun (b : Pir.Func.block) ->
          (Hashtbl.find scheds b.Pir.Func.bname).Cost.cs_sums)
        blocks;
    c_pool = [];
  }
