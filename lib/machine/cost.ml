(** Cycle-cost model of an AVX-512-class core.

    The simulator stands in for the paper's Xeon Gold 6258R testbed; the
    absolute numbers are synthetic but the *relative* properties that
    drive the paper's results are preserved:

    - a vector operation has the same throughput cost as its scalar
      counterpart per 512-bit chunk, so ALU speedup scales with lane
      count (paper §2.1);
    - memory operations pay a per-byte bandwidth term, which bounds the
      speedup of memory-bound kernels;
    - gathers and scatters cost on the order of one access per lane —
      "often no faster than performing each individual serialized scalar
      access" (paper §4.2.2);
    - masked vector operations cost the same as unmasked ones (AVX-512
      native predication, paper §2.1);
    - the SLEEF vector [pow] is 2.6x slower than ispc's built-in vector
      [pow] (paper §6), while the two libraries match on every other
      entry point.

    {2 Latency vs. throughput}

    The model distinguishes two per-operation quantities:

    - {e latency}: cycles until the result is available to a dependent
      instruction (the historical cost numbers — a serial execution
      charges exactly these); and
    - {e reciprocal throughput}: issue-slot cycles the operation
      occupies on a superscalar core.  Pipelined compute ops issue
      [issue_width] per cycle ([rthr = lat / issue_width]); divides,
      square roots, gathers/scatters and library calls do not pipeline
      ([rthr = lat]); memory ops pay a small port cost plus a per-byte
      bandwidth term.

    A basic block is charged [max(Σ rthr, critical path latency)] —
    a static list-schedule: the block takes as long as its issue
    resources or its longest dependence chain, whichever binds.  Loop
    latch blocks additionally respect the loop-carried recurrence: an
    iteration can never complete faster than the latency chain feeding
    the header's back-edge phis (the RecMII floor — this is what makes
    multi-accumulator reduction unrolling observable: splitting an FP
    accumulation across independent chains removes the recurrence
    bound).  [schedule_func] computes all of this once per function and
    distributes the block total over its instructions pro-rata to their
    latencies, so per-instruction attribution (profiler, SPMD executor)
    still sums exactly to the block cost. *)

type model = {
  vector_bits : int;
  (* per-op latency (cycles until the result is consumable) *)
  ialu : float;
  imul : float;
  idiv : float;
  falu : float;
  fmul : float;
  fdiv : float;
  fsqrt : float;
  cmp : float;
  select : float;
  cast : float;
  load_base : float;
  store_base : float;
  mem_per_byte : float;
  gather_base : float;
  gather_per_lane : float;
  shuffle : float;
  shuffle_dyn : float;
  splat : float;
  extract : float;
  insert : float;
  reduce_step : float;  (** per log2(lanes) step *)
  branch : float;
  call_overhead : float;
  alloca : float;
  (* throughput side of the split *)
  issue_width : float;
      (** pipelined compute ops issue this many per cycle:
          [rthr = latency / issue_width] *)
  load_rthr : float;  (** load-port occupancy per load (per chunk) *)
  store_rthr : float;  (** store-port occupancy per store (per chunk) *)
  mem_bw_per_byte : float;
      (** sustained-bandwidth term charged against throughput (the
          latency side keeps its own, larger, [mem_per_byte]) *)
}

let default =
  {
    vector_bits = 512;
    ialu = 1.0;
    imul = 3.0;
    idiv = 20.0;
    falu = 2.0;
    fmul = 2.0;
    fdiv = 10.0;
    fsqrt = 12.0;
    cmp = 1.0;
    select = 1.0;
    cast = 1.0;
    load_base = 3.0;
    store_base = 2.0;
    mem_per_byte = 0.25;
    gather_base = 4.0;
    gather_per_lane = 3.5;
    shuffle = 1.0;
    shuffle_dyn = 3.0;
    splat = 1.0;
    extract = 2.0;
    insert = 2.0;
    reduce_step = 2.0;
    branch = 1.0;
    call_overhead = 15.0;
    alloca = 2.0;
    issue_width = 4.0;
    load_rthr = 0.5;
    store_rthr = 1.0;
    mem_bw_per_byte = 0.0625;
  }

(** Stable identifier of a cost model, e.g. ["sim-512bit-1a2b3c4d"].
    Benchmark history records carry it so a regression diff can refuse
    to compare cycle counts produced under different machines.  The
    fingerprint folds every cost field through MD5 (printed at full
    precision), so any tweak to the model flips the id — deterministic
    across OCaml versions, unlike [Hashtbl.hash] on float records. *)
let model_id m =
  let fields =
    [
      m.ialu; m.imul; m.idiv; m.falu; m.fmul; m.fdiv; m.fsqrt; m.cmp; m.select;
      m.cast; m.load_base; m.store_base; m.mem_per_byte; m.gather_base;
      m.gather_per_lane; m.shuffle; m.shuffle_dyn; m.splat; m.extract; m.insert;
      m.reduce_step; m.branch; m.call_overhead; m.alloca; m.issue_width;
      m.load_rthr; m.store_rthr; m.mem_bw_per_byte;
    ]
  in
  let s =
    String.concat ";"
      (string_of_int m.vector_bits :: List.map (Fmt.str "%.17g") fields)
  in
  Fmt.str "sim-%dbit-%s" m.vector_bits
    (String.sub (Digest.to_hex (Digest.string s)) 0 8)

(* extracted SPMD region functions follow the front-end's naming *)
let is_extracted_region name =
  let rec find i =
    i + 6 <= String.length name
    && (String.sub name i 6 = "__psim" || find (i + 1))
  in
  find 0

(** Scalar latency of math library entry points (cycles). *)
let math_cost op =
  match op with
  | "sqrt" -> 15.0
  | "rsqrt" -> 4.0
  | "exp" -> 30.0
  | "log" -> 30.0
  | "pow" -> 70.0
  | "sin" | "cos" -> 35.0
  | "tan" -> 45.0
  | "atan" -> 35.0
  | "atan2" -> 45.0
  | "fmod" -> 25.0
  | _ -> 40.0

(** Per-512b-chunk cost of vector math library calls. *)
let vector_math_cost ~lib op =
  match (lib, op) with
  | "ispc", "pow" -> 110.0
  | "sleef", "pow" -> 286.0 (* 2.6x ispc's built-in pow, per paper §6 *)
  | _, op -> math_cost op

(** Number of machine vector registers a value of type [ty] occupies. *)
let chunks m (ty : Pir.Types.t) =
  match ty with
  | Pir.Types.Vec (Pir.Types.I1, _) -> 1 (* mask register *)
  | Pir.Types.Vec _ ->
      max 1 ((Pir.Types.bits ty + m.vector_bits - 1) / m.vector_bits)
  | _ -> 1

let log2_ceil n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (k * 2) in
  go 0 1

let bytes_of ty = (Pir.Types.bits ty + 7) / 8

(* fraction of lanes enabled by a compile-time-constant mask; dynamic
   masks conservatively count as full *)
let mask_fraction (mask : Pir.Instr.operand option) =
  match mask with
  | Some (Pir.Instr.Const (Pir.Instr.Cvec (_, bits))) ->
      let active = Array.fold_left (fun acc b -> if b <> 0L then acc + 1 else acc) 0 bits in
      float_of_int active /. float_of_int (max 1 (Array.length bits))
  | _ -> 1.0

(** Latency of instruction [i]: cycles until its result is available.
    [operand_ty] resolves operand types (needed where the result type
    under-determines the operation, e.g. stores). *)
let of_instr m ~(operand_ty : Pir.Instr.operand -> Pir.Types.t) (i : Pir.Instr.instr) : float
    =
  let open Pir.Instr in
  let c = chunks m i.ty in
  let fc = float_of_int c in
  match i.op with
  | Ibin ((Mul | MulHiS | MulHiU), _, _) -> m.imul *. fc
  | Ibin ((UDiv | SDiv | URem | SRem), _, _) -> m.idiv *. fc
  | Ibin (_, _, _) -> m.ialu *. fc
  | Fbin ((FMul | FDiv), _, _) as op ->
      (match op with
      | Fbin (FMul, _, _) -> m.fmul *. fc
      | _ -> m.fdiv *. fc)
  | Fbin (_, _, _) -> m.falu *. fc
  | Iun (_, _) -> m.ialu *. fc
  | Fun (FSqrt, _) -> m.fsqrt *. fc
  | Fun (_, _) -> m.falu *. fc
  | Icmp _ | Fcmp _ -> m.cmp *. fc
  | Select _ -> m.select *. fc
  | Cast (_, a, _) -> m.cast *. float_of_int (max c (chunks m (operand_ty a)))
  | Alloca _ -> m.alloca
  | Load _ -> m.load_base +. (m.mem_per_byte *. float_of_int (bytes_of i.ty))
  | Store (v, _) ->
      m.store_base +. (m.mem_per_byte *. float_of_int (bytes_of (operand_ty v)))
  | Gep _ -> m.ialu
  | Call (name, args) ->
      if Pir.Intrinsics.is_math name then math_cost (Pir.Intrinsics.math_op name)
      else if Pir.Intrinsics.is_sleef name then
        let arg_c =
          List.fold_left (fun acc a -> max acc (chunks m (operand_ty a))) 1 args
        in
        vector_math_cost ~lib:"sleef" (Pir.Intrinsics.math_op name)
        *. float_of_int arg_c
      else if Pir.Intrinsics.is_ispc name then
        let arg_c =
          List.fold_left (fun acc a -> max acc (chunks m (operand_ty a))) 1 args
        in
        vector_math_cost ~lib:"ispc" (Pir.Intrinsics.math_op name)
        *. float_of_int arg_c
      else if Pir.Intrinsics.is_psim name then
        (* horizontal API calls are rewritten by the vectorizer; in the
           SPMD reference executor they model one cross-lane step *)
        m.shuffle_dyn
      else if is_extracted_region name then
        (* calls to extracted SPMD region functions are re-inlined by the
           back-end (paper §4.1); charge loop overhead only *)
        2.0
      else m.call_overhead
  | Phi _ -> 0.0
  | Splat _ -> m.splat *. fc
  | VLoad (_, mask) ->
      (m.load_base *. fc)
      +. (m.mem_per_byte *. float_of_int (bytes_of i.ty) *. mask_fraction mask)
  | VStore (v, _, mask) ->
      (* masked stores only move their active bytes (write combining) *)
      let tv = operand_ty v in
      (m.store_base *. float_of_int (chunks m tv))
      +. m.mem_per_byte
         *. float_of_int (bytes_of tv)
         *. mask_fraction mask
  | Gather _ ->
      m.gather_base +. (m.gather_per_lane *. float_of_int (Pir.Types.lanes i.ty))
  | Scatter (v, _, _, _) ->
      m.gather_base
      +. m.gather_per_lane *. float_of_int (Pir.Types.lanes (operand_ty v))
  | Shuffle _ -> m.shuffle *. fc
  | ShuffleDyn _ -> m.shuffle_dyn *. fc
  | ExtractLane _ -> m.extract
  | InsertLane _ -> m.insert *. fc
  | Reduce (_, v) ->
      m.reduce_step *. float_of_int (log2_ceil (Pir.Types.lanes (operand_ty v)))
  | FirstLane _ -> m.extract
  | Psadbw (a, _) -> 2.0 *. float_of_int (chunks m (operand_ty a))

let of_terminator m (t : Pir.Instr.terminator) =
  match t with
  | Pir.Instr.Br _ | Pir.Instr.CondBr _ -> m.branch
  | Pir.Instr.Ret _ | Pir.Instr.Unreachable -> 0.0

(** Reciprocal throughput of [i]: issue-slot cycles it occupies.
    Pipelined compute ops cost [latency / issue_width]; divides, square
    roots, gathers/scatters and library calls serialize ([rthr = lat]);
    memory ops pay port occupancy plus sustained bandwidth. *)
let rthr_of_instr m ~operand_ty (i : Pir.Instr.instr) : float =
  let open Pir.Instr in
  let lat = of_instr m ~operand_ty i in
  let fc = float_of_int (chunks m i.ty) in
  match i.op with
  | Ibin ((UDiv | SDiv | URem | SRem), _, _)
  | Fbin (FDiv, _, _)
  | Fun (FSqrt, _)
  | Gather _ | Scatter _ | Call _ ->
      lat (* unpipelined *)
  | Phi _ -> 0.0
  | Load _ -> m.load_rthr +. (m.mem_bw_per_byte *. float_of_int (bytes_of i.ty))
  | Store (v, _) ->
      m.store_rthr +. (m.mem_bw_per_byte *. float_of_int (bytes_of (operand_ty v)))
  | VLoad (_, mask) ->
      (m.load_rthr *. fc)
      +. m.mem_bw_per_byte
         *. float_of_int (bytes_of i.ty)
         *. mask_fraction mask
  | VStore (v, _, mask) ->
      let tv = operand_ty v in
      (m.store_rthr *. float_of_int (chunks m tv))
      +. m.mem_bw_per_byte
         *. float_of_int (bytes_of tv)
         *. mask_fraction mask
  | _ -> lat /. m.issue_width

let rthr_of_terminator m (t : Pir.Instr.terminator) =
  of_terminator m t /. m.issue_width

(* -- static block schedule --

   Computed once per function and shared verbatim by the interpreter and
   the bytecode VM, so both engines charge bit-identical cycles. *)

type block_sched = {
  cs_nphis : int;  (** length of the phi prefix *)
  cs_sums : float array;
      (** the charged costs of the phi prefix, then of the rest of the
          block and its terminator: what every executor charges per
          block entry *)
  cs_ninstrs : int;  (** total instructions (phis included) *)
  cs_nvec : int;  (** vector-typed instructions *)
}

(* longest-latency completion time of each SSA value defined in the
   instruction sequence [instrs], with values defined elsewhere (params,
   other blocks, this block's phis) ready at time 0.  [start] seeds
   earlier definitions (used to chain header + latch for recurrences). *)
let chain_times m ~operand_ty (start : (int, float) Hashtbl.t) instrs =
  let ready (o : Pir.Instr.operand) =
    match o with
    | Pir.Instr.Var v -> ( match Hashtbl.find_opt start v with Some t -> t | None -> 0.0)
    | Pir.Instr.Const _ -> 0.0
  in
  List.iter
    (fun (i : Pir.Instr.instr) ->
      match i.op with
      | Pir.Instr.Phi _ -> Hashtbl.replace start i.id 0.0
      | op ->
          let r =
            List.fold_left
              (fun acc o -> Float.max acc (ready o))
              0.0
              (Pir.Instr.operands_of_op op)
          in
          Hashtbl.replace start i.id (r +. of_instr m ~operand_ty i))
    instrs;
  start

(* schedule total of one block in isolation:
   max(issue resources, critical path) *)
let block_base m ~operand_ty (b : Pir.Func.block) =
  let times = chain_times m ~operand_ty (Hashtbl.create 16) b.instrs in
  let path =
    List.fold_left
      (fun acc (i : Pir.Instr.instr) ->
        match Hashtbl.find_opt times i.id with
        | Some t -> Float.max acc t
        | None -> acc)
      0.0 b.instrs
  in
  let res =
    List.fold_left
      (fun acc i -> acc +. rthr_of_instr m ~operand_ty i)
      (rthr_of_terminator m b.term) b.instrs
  in
  Float.max res path

(* loop-carried recurrence floor for a latch block [l] branching back to
   header [h]: the longest latency chain from a header phi, through one
   iteration (header body then latch), to the operand the phi takes from
   the back edge.  Zero when [h] has no phis fed from [l]. *)
let recurrence m ~operand_ty (h : Pir.Func.block) (l : Pir.Func.block) =
  let start = Hashtbl.create 16 in
  let times =
    if h == l then chain_times m ~operand_ty start h.instrs
    else chain_times m ~operand_ty (chain_times m ~operand_ty start h.instrs) l.instrs
  in
  List.fold_left
    (fun acc (i : Pir.Instr.instr) ->
      match i.op with
      | Pir.Instr.Phi incoming -> (
          match List.assoc_opt l.bname incoming with
          | Some (Pir.Instr.Var v) -> (
              match Hashtbl.find_opt times v with
              | Some t -> Float.max acc t
              | None -> acc)
          | _ -> acc)
      | _ -> acc)
    0.0 h.instrs

(** Static schedule of every block of [f]: the block-granular cycle
    sums and instruction counts the engines account with.  Both
    execution engines must consume the same schedule, so cycle totals
    agree bit-for-bit across engines. *)
let schedule_func m (f : Pir.Func.t) : (string, block_sched) Hashtbl.t =
  let operand_ty = Pir.Func.ty_of_operand f in
  (* base totals per block *)
  let base = Hashtbl.create 16 in
  List.iter
    (fun (b : Pir.Func.block) ->
      Hashtbl.replace base b.bname (block_base m ~operand_ty b))
    f.blocks;
  (* raise latch blocks to the loop-carried recurrence floor: for a back
     edge latch->header, one iteration (header + latch) can not beat the
     recurrence chain.  A back edge is an unconditional branch (or a
     self-loop) to a phi-carrying block that does not appear later in
     the function (the front end and vectorizer emit headers first). *)
  let order = Hashtbl.create 16 in
  List.iteri (fun k (b : Pir.Func.block) -> Hashtbl.replace order b.bname k) f.blocks;
  let find_block name =
    List.find_opt (fun (b : Pir.Func.block) -> b.bname = name) f.blocks
  in
  let totals = Hashtbl.copy base in
  List.iter
    (fun (l : Pir.Func.block) ->
      let back_target =
        match l.term with
        | Pir.Instr.Br t -> Some t
        | Pir.Instr.CondBr (_, t1, t2) ->
            (* self-loops only: a conditional latch targeting itself *)
            if t1 = l.bname then Some t1
            else if t2 = l.bname then Some t2
            else None
        | _ -> None
      in
      match back_target with
      | Some t
        when (match (Hashtbl.find_opt order t, Hashtbl.find_opt order l.bname) with
             | Some th, Some tl -> th <= tl
             | _ -> false) -> (
          match find_block t with
          | Some h
            when List.exists
                   (fun (i : Pir.Instr.instr) ->
                     match i.op with
                     | Pir.Instr.Phi incoming ->
                         List.mem_assoc l.bname incoming
                     | _ -> false)
                   h.instrs ->
              let rec_floor = recurrence m ~operand_ty h l in
              let header_total =
                if h == l then 0.0
                else match Hashtbl.find_opt base h.bname with Some x -> x | None -> 0.0
              in
              let cur = Hashtbl.find totals l.bname in
              Hashtbl.replace totals l.bname
                (Float.max cur (rec_floor -. header_total))
          | _ -> ())
      | _ -> ())
    f.blocks;
  (* distribute each block's total over its instructions and terminator
     pro-rata to latency; an entry charges the shares' sums *)
  let scheds = Hashtbl.create 16 in
  List.iter
    (fun (b : Pir.Func.block) ->
      let all = Array.of_list b.instrs in
      let lats = Array.map (of_instr m ~operand_ty) all in
      let term_lat = of_terminator m b.term in
      let lat_total = Array.fold_left ( +. ) term_lat lats in
      let total = Hashtbl.find totals b.bname in
      let scale = if lat_total > 0.0 then total /. lat_total else 0.0 in
      (* Quantize every charged cost to the 2^-16 dyadic grid.  All
         engine cycle accounting (global counters and per-block
         attribution alike) adds sums and multiples of these atoms, and
         sums of multiples of 2^-16 stay exactly representable up to
         2^36 cycles, so float accumulation is exact and
         order-independent: a run's cycle total equals the sum of its
         per-block attributions bit for bit, whichever engine charged
         them and in whatever order the profiler re-adds them. *)
      let quantize x = Float.round (x *. 65536.0) /. 65536.0 in
      let costs = Array.map (fun l -> quantize (l *. scale)) lats in
      let term = quantize (term_lat *. scale) in
      let n = Array.length all in
      let nphis =
        let i = ref 0 in
        while
          !i < n && match all.(!i).op with Pir.Instr.Phi _ -> true | _ -> false
        do
          incr i
        done;
        !i
      in
      let phi_sum = ref 0.0 and body_sum = ref term in
      Array.iteri
        (fun j c ->
          if j < nphis then phi_sum := !phi_sum +. c
          else body_sum := !body_sum +. c)
        costs;
      let nvec =
        Array.fold_left
          (fun k (i : Pir.Instr.instr) -> if Pir.Types.is_vector i.ty then k + 1 else k)
          0 all
      in
      Hashtbl.replace scheds b.bname
        {
          cs_nphis = nphis;
          cs_sums = [| !phi_sum; !body_sum |];
          cs_ninstrs = n;
          cs_nvec = nvec;
        })
    f.blocks;
  scheds

(** Unroll factor that hides the latency of reduction operation [i]: how
    many independent accumulator chains keep the issue resources busy
    while one chain's result is in flight ([lat / rthr], clamped to
    [2, 8]).  The reduction-unrolling transform in [lib/core] keys on
    this. *)
let reduction_unroll_factor m ~operand_ty (i : Pir.Instr.instr) : int =
  let lat = of_instr m ~operand_ty i in
  let rthr = Float.max 0.125 (rthr_of_instr m ~operand_ty i) in
  max 2 (min 8 (int_of_float (Float.ceil (lat /. rthr))))
