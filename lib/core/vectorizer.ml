(** The Parsimony IR-to-IR vectorization pass (paper §4.2).

    Input: an SPMD-annotated scalar function produced by the front-end
    (gang size [G], optional partial-gang variant).  Output: a plain
    function of the same name and signature in which the whole gang
    executes as one thread over [G]-lane vector values.

    The pass is standalone — it needs nothing from the surrounding
    pipeline except structured control flow — mirroring the paper's
    claim that it "can be placed anywhere in the optimization pipeline".

    Pipeline per function:

    + recover the structured region tree ([Panalysis.Regions]);
    + shape analysis ([Pshapes.Shapes]) over the verified transformation
      rules ([Psmt.Rules]);
    + instruction transformation (this module): indexed values stay
      scalar (their offsets are metadata), varying values widen to
      vectors, control flow is linearized under masks, loops get active
      masks and per-lane exit blending, memory operations are classified
      into scalar / packed / packed+shuffle / gather–scatter forms. *)

open Pir

exception Unvectorizable of string

let fail fmt = Fmt.kstr (fun s -> raise (Unvectorizable s)) fmt

let src = Logs.Src.create "parsimony" ~doc:"Parsimony vectorizer"

module Log = (val Logs.src_log src : Logs.LOG)

type report = {
  func : string;
  mutable scalar_kept : int;  (** instructions left scalar via indexed shapes *)
  mutable vectorized : int;
  mutable packed_loads : int;
  mutable packed_stores : int;
  mutable strided_shuffles : int;  (** strided accesses served by packed+shuffle *)
  mutable gathers : int;
  mutable scatters : int;
  mutable uniform_branches_kept : int;
  mutable analysis_uniform_branches : int;
      (** branches kept scalar only because the dataflow divergence
          analysis proved the condition uniform (shape analysis saw
          varying); subset of [uniform_branches_kept] *)
  mutable linearized_branches : int;
  mutable uniform_loops : int;
  mutable masked_loops : int;
  mutable serialized_calls : int;
  mutable uniform_store_warnings : int;
  mutable reclassified_loads : int;
      (** gathers turned into packed loads by analysis feedback *)
  mutable reclassified_stores : int;
      (** scatters turned into packed stores by analysis feedback *)
  mutable rule_hits : (string * int) list;
}

let empty_report func =
  {
    func;
    scalar_kept = 0;
    vectorized = 0;
    packed_loads = 0;
    packed_stores = 0;
    strided_shuffles = 0;
    gathers = 0;
    scatters = 0;
    uniform_branches_kept = 0;
    analysis_uniform_branches = 0;
    linearized_branches = 0;
    uniform_loops = 0;
    masked_loops = 0;
    serialized_calls = 0;
    uniform_store_warnings = 0;
    reclassified_loads = 0;
    reclassified_stores = 0;
    rule_hits = [];
  }

let pp_report ppf r =
  Fmt.pf ppf
    "%s: scalar=%d vector=%d packed(ld/st)=%d/%d shuffle-strided=%d \
     gather=%d scatter=%d branches(kept/lin)=%d/%d loops(uni/masked)=%d/%d"
    r.func r.scalar_kept r.vectorized r.packed_loads r.packed_stores
    r.strided_shuffles r.gathers r.scatters r.uniform_branches_kept
    r.linearized_branches r.uniform_loops r.masked_loops

(* -- small helpers -- *)

let log2_exact n =
  let rec go k = if 1 lsl k = n then Some k else if 1 lsl k > n then None else go (k + 1) in
  go 0

let all_ones_mask gang = Instr.cvec Types.I1 (Array.make gang 1L)

let vectorize_func ?(opts = Options.default) (f : Func.t) : Func.t * report =
  let spmd =
    match f.spmd with
    | Some s -> s
    | None -> fail "%s: not an SPMD function" f.fname
  in
  if f.ret <> Types.Void then fail "%s: SPMD functions must return void" f.fname;
  let gang = spmd.Func.gang_size in
  (* optimization remarks for this function; [emit] is a no-op
     (including argument formatting) unless a remark mode is active *)
  let rpassed fmt = Pobs.Remarks.(emit Passed ~pass:"parsimony" ~func:f.fname) fmt in
  let rmissed fmt = Pobs.Remarks.(emit Missed ~pass:"parsimony" ~func:f.fname) fmt in
  let ranalysis fmt =
    Pobs.Remarks.(emit Analysis ~pass:"parsimony" ~func:f.fname) fmt
  in
  let info = Pshapes.Shapes.analyze f in
  (* dataflow divergence facts on the scalar function: strictly more
     precise than the shape analysis on branch conditions (e.g. phis
     whose incomings all agree), consulted when classifying ifs *)
  let dv =
    if opts.Options.analysis_feedback then Some (Pdataflow.Divergence.analyze f)
    else None
  in
  let report = empty_report f.fname in
  (* sorted by rule name: Hashtbl fold order varies with internal
     hashing, and remark/JSON output must be stable across runs *)
  report.rule_hits <-
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) info.Pshapes.Shapes.rule_hits []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  if Pobs.Remarks.active () then
    List.iter
      (fun (rule, n) -> ranalysis "shape rule %s fired %d time(s)" rule n)
      report.rule_hits;
  (* def table of the original function, for address-pattern matching *)
  let defs : (int, Instr.instr) Hashtbl.t = Hashtbl.create 64 in
  Func.iter_instrs f (fun _ i -> Hashtbl.replace defs i.id i);
  (* pointers rooted at allocas use the SoA layout (see Pshapes): element
     j of thread i lives at base + (j * G + i) * esz *)
  let is_alloca_rooted (o : Instr.operand) =
    match o with
    | Instr.Var v -> Hashtbl.mem info.Pshapes.Shapes.alloca_rooted v
    | _ -> false
  in
  let shape_of (o : Instr.operand) : Pshapes.Shapes.shape =
    if opts.Options.shape_analysis then Pshapes.Shapes.shape_of info o
    else
      match o with
      | Instr.Const _ -> Pshapes.Shapes.uniform gang
      | Instr.Var v -> (
          (* ablation mode: every instruction result is varying, except
             allocas (their layout must stay known) and parameters *)
          match Hashtbl.find_opt defs v with
          | None -> Pshapes.Shapes.uniform gang (* parameter *)
          | Some { op = Instr.Alloca _; _ } -> Pshapes.Shapes.shape_of info o
          | Some _ -> Pshapes.Shapes.Varying)
  in
  let is_uniform o = Pshapes.Shapes.is_uniform (shape_of o) in
  (* the transformed function *)
  let nf = Func.create f.fname ~params:f.params ~ret:Types.Void in
  let b = Builder.create nf in
  let map : (int, Instr.operand) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace map v (Instr.Var v)) f.params;
  let map_set id o = Hashtbl.replace map id o in
  let mapped (o : Instr.operand) : Instr.operand =
    match o with
    | Instr.Const _ -> o
    | Instr.Var v -> (
        match Hashtbl.find_opt map v with
        | Some o' -> o'
        | None -> fail "%s: value %%%d used before mapped" f.fname v)
  in
  (* scalar kind a value of [ty] widens to *)
  let widen_elem (ty : Types.t) =
    match ty with
    | Types.Ptr _ -> Types.I64
    | Types.Scalar s -> s
    | _ -> fail "widen_elem: %s" (Types.to_string ty)
  in
  (* materialize an operand of the original function as a G-lane vector *)
  let materialize (o : Instr.operand) : Instr.operand =
    match (o, shape_of o) with
    | _, Pshapes.Shapes.Varying -> mapped o
    | Instr.Const (Instr.Cint (s, v)), _ -> Instr.cvec s (Array.make gang v)
    | Instr.Const (Instr.Cfloat _), _ -> Builder.splat b o gang
    | Instr.Const (Instr.Cvec _), _ -> o
    | Instr.Var v, Pshapes.Shapes.Indexed offs ->
        let base = mapped (Instr.Var v) in
        let ty = Func.ty_of_var f v in
        let ek = widen_elem ty in
        let vec = Builder.splat b base gang in
        if Array.for_all (fun x -> x = 0L) offs then vec
        else begin
          let w = Types.scalar_bits ek in
          if Types.is_float_scalar ek then
            fail "%s: float value with non-uniform indexed shape" f.fname;
          Builder.ibin b Instr.Add vec
            (Instr.cvec ek (Array.map (Ints.norm w) offs))
        end
  in
  let materialize_mask (o : Instr.operand) : Instr.operand =
    match shape_of o with
    | Pshapes.Shapes.Varying -> mapped o
    | _ -> (
        match o with
        | Instr.Const (Instr.Cint (Types.I1, v)) ->
            Instr.cvec Types.I1 (Array.make gang v)
        | _ -> Builder.splat b (mapped o) gang)
  in
  (* mask combinators; [None] = all lanes active *)
  let and_mask m cv =
    match m with None -> cv | Some m -> Builder.and_ b m cv
  in
  let not_mask cv = Builder.not_ b cv in
  let mask_operand m = match m with None -> all_ones_mask gang | Some m -> m in
  (* -- memory access classification -- *)
  let elem_of_ptr (o : Instr.operand) =
    match Func.ty_of_operand f o with
    | Types.Ptr s -> s
    | ty -> fail "memory access through %s" (Types.to_string ty)
  in
  (* given a pointer operand, produce the vector of lane addresses *)
  let address_vector (p : Instr.operand) = materialize p in
  (* byte offsets -> element picks, when all are multiples of the size *)
  let picks_of_offsets offs esz =
    if Array.for_all (fun o -> Int64.rem o (Int64.of_int esz) = 0L) offs then
      Some (Array.map (fun o -> Int64.div o (Int64.of_int esz)) offs)
    else None
  in
  let is_stride1 picks =
    let ok = ref true in
    Array.iteri
      (fun l p -> if p <> Int64.add picks.(0) (Int64.of_int l) then ok := false)
      picks;
    !ok
  in
  (* recursive shuffle network over consecutive loaded vectors: produce a
     G-lane vector whose lane l is element [picks.(l)] of the
     concatenation of [vs] *)
  let rec combine_picks (vs : Instr.operand list) (picks : int array) :
      Instr.operand =
    (* [picks.(l)] indexes the concatenation of [vs] (each [gang] lanes);
       picks must be non-decreasing when more than two vectors are
       involved (the caller guarantees this). *)
    match vs with
    | [] -> fail "combine_picks: no vectors"
    | [ v ] -> Builder.shuffle b v v (Array.map (fun p -> min p (gang - 1)) picks)
    | [ v0; v1 ] -> Builder.shuffle b v0 v1 picks
    | _ ->
        let n = List.length vs in
        let half = (n + 1) / 2 in
        (* lanes below [split] are served by the left vectors *)
        let split =
          let s = ref (Array.length picks) in
          Array.iteri (fun l p -> if p >= half * gang && l < !s then s := l) picks;
          !s
        in
        let left_picks =
          Array.init (Array.length picks) (fun l ->
              if l < split then picks.(l) else 0)
        in
        let right_picks =
          Array.init (Array.length picks) (fun l ->
              if l >= split then picks.(l) - (half * gang) else 0)
        in
        let lv = combine_picks (List.filteri (fun i _ -> i < half) vs) left_picks in
        let rv = combine_picks (List.filteri (fun i _ -> i >= half) vs) right_picks in
        (* merge: lanes below split from lv, at or above from rv, both in
           lane position *)
        Builder.shuffle b lv rv
          (Array.init (Array.length picks) (fun l ->
               if l < split then l else gang + l))
  in
  (* zero vector of the widened form of [ty]: a constant for ints/masks,
     a splat for floats *)
  let zero_vector_for (ty : Types.t) : Instr.operand =
    let ek = widen_elem ty in
    if Types.is_float_scalar ek then
      Builder.splat b (Instr.Const (Instr.Cfloat (ek, 0.0))) gang
    else Instr.cvec ek (Array.make gang 0L)
  in
  let monotone picks =
    let ok = ref true in
    Array.iteri (fun l p -> if l > 0 && Int64.compare picks.(l - 1) p > 0 then ok := false) picks;
    !ok
  in
  (* load a strided/irregular pattern with packed loads + shuffles;
     requires an all-active mask (the extra elements touched must be
     loadable, which the workload guarantees via row padding) *)
  let emit_shuffle_load base_ptr picks =
    (* chunk origins are aligned to multiples of the gang size relative
       to the base pointer, so neighbouring strided accesses (stencil
       taps, interleaved channels) load identical chunks and downstream
       CSE merges them *)
    let minp = Array.fold_left min picks.(0) picks in
    let minp =
      Int64.mul (Int64.of_int gang)
        (Int64.div
           (if Int64.compare minp 0L < 0 then Int64.sub minp (Int64.of_int (gang - 1)) else minp)
           (Int64.of_int gang))
    in
    let base_ptr =
      if minp = 0L then base_ptr
      else Builder.gep b base_ptr (Instr.ci64 (Int64.to_int minp))
    in
    let rel = Array.map (fun p -> Int64.to_int (Int64.sub p minp)) picks in
    let span = Array.fold_left max 0 rel + 1 in
    let nvec = (span + gang - 1) / gang in
    let vs =
      List.init nvec (fun j ->
          let p =
            if j = 0 then base_ptr else Builder.gep b base_ptr (Instr.ci64 (j * gang))
          in
          Builder.vload b p gang)
    in
    report.strided_shuffles <- report.strided_shuffles + 1;
    combine_picks vs rel
  in
  (* store a strided pattern with shuffles + masked packed stores;
     chunk origins are gang-aligned so interleaved channel stores hit
     identical chunks and store coalescing can merge them *)
  let emit_shuffle_store value base_ptr picks =
    let minp = Array.fold_left min picks.(0) picks in
    let minp =
      Int64.mul (Int64.of_int gang)
        (Int64.div
           (if Int64.compare minp 0L < 0 then Int64.sub minp (Int64.of_int (gang - 1)) else minp)
           (Int64.of_int gang))
    in
    let base_ptr =
      if minp = 0L then base_ptr
      else Builder.gep b base_ptr (Instr.ci64 (Int64.to_int minp))
    in
    let rel = Array.map (fun p -> Int64.to_int (Int64.sub p minp)) picks in
    let span = Array.fold_left max 0 rel + 1 in
    let nvec = (span + gang - 1) / gang in
    report.strided_shuffles <- report.strided_shuffles + 1;
    for j = 0 to nvec - 1 do
      (* inverse permutation for memory elements [j*G, (j+1)*G) *)
      let inv = Array.make gang (-1) in
      Array.iteri
        (fun l m -> if m >= j * gang && m < (j + 1) * gang then inv.(m - (j * gang)) <- l)
        rel;
      let mask_bits = Array.map (fun i -> if i >= 0 then 1L else 0L) inv in
      if Array.exists (fun x -> x = 1L) mask_bits then begin
        let idx = Array.map (fun i -> max i 0) inv in
        let shuffled = Builder.shuffle b value value idx in
        let p =
          if j = 0 then base_ptr else Builder.gep b base_ptr (Instr.ci64 (j * gang))
        in
        Builder.vstore b ~mask:(Instr.cvec Types.I1 mask_bits) shuffled p;
        report.packed_stores <- report.packed_stores + 1
      end
    done
  in
  (* null pointer of a given element kind, for absolute-address gathers *)
  let null_ptr s = Builder.cast b Instr.Bitcast (Instr.ci64 0) (Types.Ptr s) in
  let emit_load mask (i : Instr.instr) (p : Instr.operand) : Instr.operand =
    let s = elem_of_ptr p in
    let esz = Types.scalar_bytes s in
    match (shape_of p, p) with
    | Pshapes.Shapes.Indexed offs, _ -> (
        let base = mapped p in
        match picks_of_offsets offs esz with
        | Some picks when is_stride1 picks ->
            let base =
              if picks.(0) = 0L then base
              else Builder.gep b base (Instr.ci64 (Int64.to_int picks.(0)))
            in
            report.packed_loads <- report.packed_loads + 1;
            rpassed "load %%%d: contiguous indexed address -> packed vector load"
              i.Instr.id;
            Builder.vload b ?mask base gang
        | Some picks ->
            let minp = Array.fold_left min picks.(0) picks in
            let span =
              Int64.to_int (Int64.sub (Array.fold_left max picks.(0) picks) minp) + 1
            in
            if
              mask = None
              && opts.Options.stride_shuffle_bound > 0
              && span <= opts.Options.stride_shuffle_bound * gang
              && (monotone picks || span <= 2 * gang)
            then begin
              rpassed
                "load %%%d: strided indexed address (span %d <= bound %d*G) -> \
                 packed loads + shuffle"
                i.Instr.id span opts.Options.stride_shuffle_bound;
              emit_shuffle_load base picks
            end
            else begin
              report.gathers <- report.gathers + 1;
              rmissed
                "load %%%d: strided indexed address (span %d%s) not \
                 shuffle-eligible -> gather"
                i.Instr.id span
                (if mask <> None then ", masked" else "");
              Builder.gather b ?mask base (Instr.cvec Types.I64 picks)
            end
        | None ->
            (* byte offsets not element-aligned: absolute addresses *)
            report.gathers <- report.gathers + 1;
            rmissed
              "load %%%d: indexed offsets not element-aligned -> gather via \
               absolute addresses"
              i.Instr.id;
            let addrs = address_vector p in
            let idx =
              match log2_exact esz with
              | Some 0 -> addrs
              | Some k ->
                  Builder.ibin b Instr.LShr addrs
                    (Instr.cvec Types.I64 (Array.make gang (Int64.of_int k)))
              | None -> fail "element size %d not a power of two" esz
            in
            Builder.gather b ?mask (null_ptr s) idx)
    | Pshapes.Shapes.Varying, Instr.Var v -> (
        match Hashtbl.find_opt defs v with
        | Some { op = Instr.Gep (pb, pidx); _ } when is_uniform pb ->
            (* gather through a uniform base + varying index: the common
               a[x[i]] pattern *)
            report.gathers <- report.gathers + 1;
            rmissed
              "load %%%d: varying index over uniform base (a[x[i]] pattern) \
               -> gather"
              i.Instr.id;
            Builder.gather b ?mask (mapped pb) (materialize pidx)
        | _ ->
            report.gathers <- report.gathers + 1;
            rmissed "load %%%d: varying address -> gather via absolute addresses"
              i.Instr.id;
            let addrs = address_vector p in
            let idx =
              match log2_exact esz with
              | Some 0 -> addrs
              | Some k ->
                  Builder.ibin b Instr.LShr addrs
                    (Instr.cvec Types.I64 (Array.make gang (Int64.of_int k)))
              | None -> fail "element size %d not a power of two" esz
            in
            Builder.gather b ?mask (null_ptr s) idx)
    | Pshapes.Shapes.Varying, Instr.Const _ -> fail "varying constant pointer"
  in
  (* choose one lane for a racy store to a uniform address: the highest
     active lane, matching the reference executor's round-robin order *)
  let last_active_lane mask =
    match mask with
    | None -> Instr.ci32 (gang - 1)
    | Some m ->
        let rev = Array.init gang (fun l -> gang - 1 - l) in
        let mrev = Builder.shuffle b m m rev in
        let fl = Builder.first_lane b mrev in
        Builder.ibin b Instr.Sub (Instr.ci32 (gang - 1)) fl
  in
  let emit_guarded_scalar_store mask value_scalar ptr_scalar =
    match mask with
    | None -> Builder.store b value_scalar ptr_scalar
    | Some m ->
        let any = Builder.reduce b Instr.RAny m in
        let bdo = Builder.fresh_block b "ustore" in
        let bdone = Builder.fresh_block b "ustore.done" in
        Builder.condbr b any bdo.bname bdone.bname;
        Builder.position b bdo;
        Builder.store b value_scalar ptr_scalar;
        Builder.br b bdone.bname;
        Builder.position b bdone
  in
  let emit_store mask (i : Instr.instr) (v : Instr.operand) (p : Instr.operand) =
    let s = elem_of_ptr p in
    let esz = Types.scalar_bytes s in
    match shape_of p with
    | Pshapes.Shapes.Indexed offs when Array.for_all (fun x -> x = 0L) offs ->
        (* store to a uniform address: racy unless one thread is active *)
        report.uniform_store_warnings <- report.uniform_store_warnings + 1;
        Log.warn (fun m ->
            m "%s: store to uniform address is racy; emitting single-lane store"
              f.fname);
        rmissed
          "store %%%d: uniform address is racy across the gang -> single-lane \
           guarded scalar store"
          i.Instr.id;
        let value =
          if Pshapes.Shapes.is_uniform (shape_of v) then mapped v
          else
            let vv = materialize v in
            let lane = last_active_lane mask in
            Builder.extract b vv lane
        in
        emit_guarded_scalar_store mask value (mapped p)
    | Pshapes.Shapes.Indexed offs -> (
        let base = mapped p in
        match picks_of_offsets offs esz with
        | Some picks when is_stride1 picks ->
            let base =
              if picks.(0) = 0L then base
              else Builder.gep b base (Instr.ci64 (Int64.to_int picks.(0)))
            in
            report.packed_stores <- report.packed_stores + 1;
            rpassed "store %%%d: contiguous indexed address -> packed vector store"
              i.Instr.id;
            Builder.vstore b ?mask (materialize v) base
        | Some picks ->
            let minp = Array.fold_left min picks.(0) picks in
            let span =
              Int64.to_int (Int64.sub (Array.fold_left max picks.(0) picks) minp) + 1
            in
            if
              mask = None
              && opts.Options.stride_shuffle_bound > 0
              && span <= opts.Options.stride_shuffle_bound * gang
            then begin
              rpassed
                "store %%%d: strided indexed address (span %d <= bound %d*G) -> \
                 shuffle + packed stores"
                i.Instr.id span opts.Options.stride_shuffle_bound;
              emit_shuffle_store (materialize v) base picks
            end
            else begin
              report.scatters <- report.scatters + 1;
              rmissed
                "store %%%d: strided indexed address (span %d%s) not \
                 shuffle-eligible -> scatter"
                i.Instr.id span
                (if mask <> None then ", masked" else "");
              Builder.scatter b ?mask (materialize v) base
                (Instr.cvec Types.I64 picks)
            end
        | None ->
            report.scatters <- report.scatters + 1;
            rmissed
              "store %%%d: indexed offsets not element-aligned -> scatter via \
               absolute addresses"
              i.Instr.id;
            let addrs = address_vector p in
            let idx =
              match log2_exact esz with
              | Some 0 -> addrs
              | Some k ->
                  Builder.ibin b Instr.LShr addrs
                    (Instr.cvec Types.I64 (Array.make gang (Int64.of_int k)))
              | None -> fail "element size %d not a power of two" esz
            in
            Builder.scatter b ?mask (materialize v) (null_ptr s) idx)
    | Pshapes.Shapes.Varying -> (
        match p with
        | Instr.Var pv -> (
            match Hashtbl.find_opt defs pv with
            | Some { op = Instr.Gep (pb, pidx); _ } when is_uniform pb ->
                report.scatters <- report.scatters + 1;
                rmissed
                  "store %%%d: varying index over uniform base -> scatter"
                  i.Instr.id;
                Builder.scatter b ?mask (materialize v) (mapped pb)
                  (materialize pidx)
            | _ ->
                report.scatters <- report.scatters + 1;
                rmissed
                  "store %%%d: varying address -> scatter via absolute addresses"
                  i.Instr.id;
                let addrs = address_vector p in
                let idx =
                  match log2_exact esz with
                  | Some 0 -> addrs
                  | Some k ->
                      Builder.ibin b Instr.LShr addrs
                        (Instr.cvec Types.I64 (Array.make gang (Int64.of_int k)))
                  | None -> fail "element size %d not a power of two" esz
                in
                Builder.scatter b ?mask (materialize v) (null_ptr s) idx)
        | Instr.Const _ -> fail "varying constant pointer")
  in
  (* serialize a call lane by lane (paper §4.2.3: "calls to scalar
     functions that cannot be inlined are transformed into a serial loop
     of scalar calls by each active thread individually") *)
  let emit_serialized_call mask (i : Instr.instr) name args =
    report.serialized_calls <- report.serialized_calls + 1;
    rmissed
      "call %%%d: no vector version of %s -> serialized over %d lane(s)%s"
      i.Instr.id name gang
      (if mask <> None then " under mask" else "");
    let arg_vecs =
      List.map
        (fun a ->
          if Pshapes.Shapes.is_uniform (shape_of a) then `Scalar (mapped a)
          else `Vector (materialize a))
        args
    in
    let has_result = i.ty <> Types.Void in
    let result = ref (if has_result then Some (zero_vector_for i.ty) else None) in
    for l = 0 to gang - 1 do
      let scalar_args =
        List.map
          (function
            | `Scalar o -> o
            | `Vector v -> Builder.extract b v (Instr.ci32 l))
          arg_vecs
      in
      let do_call () =
        if has_result then begin
          let r = Builder.call b i.ty name scalar_args in
          let cur = Option.get !result in
          result := Some (Builder.insert b cur r (Instr.ci32 l))
        end
        else Builder.call_unit b name scalar_args
      in
      match mask with
      | None -> do_call ()
      | Some m ->
          let ml = Builder.extract b m (Instr.ci32 l) in
          let bdo = Builder.fresh_block b "sercall" in
          let bnext = Builder.fresh_block b "sercall.next" in
          let before = Builder.current b in
          Builder.condbr b ml bdo.bname bnext.bname;
          Builder.position b bdo;
          let saved = !result in
          do_call ();
          let after_call = !result in
          Builder.br b bnext.bname;
          Builder.position b bnext;
          if has_result then
            let phi =
              Builder.phi b
                (Types.widen i.ty gang)
                [
                  (bdo.bname, Option.get after_call);
                  (before.bname, Option.get saved);
                ]
            in
            result := Some phi
    done;
    if has_result then map_set i.id (Option.get !result)
  in
  (* -- per-instruction transformation -- *)
  let emit_instr mask (i : Instr.instr) =
    let open Instr in
    if i.ty = Types.Void then begin
      match i.op with
      | Store (v, p) -> emit_store mask i v p
      | Call (n, _) when n = Intrinsics.gang_sync ->
          (* the whole gang executes in lockstep in the vectorized
             function: horizontal synchronization is free *)
          ranalysis "call %%%d: gang_sync is free in lockstep execution"
            i.Instr.id
      | Call (n, args) -> emit_serialized_call mask i n args
      | _ -> fail "%s: unexpected void instruction" f.fname
    end
    else
      match (i.op, shape_of (Var i.id)) with
      (* -- Parsimony intrinsics -- *)
      | Call (n, []), Pshapes.Shapes.Indexed _ when n = Intrinsics.lane_num ->
          (* base of the lane vector is zero; offsets are metadata *)
          map_set i.id (ci64 0)
      | Call (n, []), Pshapes.Shapes.Varying when n = Intrinsics.lane_num ->
          map_set i.id (iota Types.I64 gang)
      | Call (n, [ v; idx ]), _ when n = Intrinsics.shuffle ->
          report.vectorized <- report.vectorized + 1;
          let vv = materialize v and vi = materialize idx in
          map_set i.id (Builder.shuffle_dyn b vv vi)
      | Call (n, [ x; y ]), _ when n = Intrinsics.sad_u8 ->
          report.vectorized <- report.vectorized + 1;
          let vx = materialize x and vy = materialize y in
          let s = Builder.psadbw b vx vy in
          (* broadcast each 8-lane group's sum back to its lanes *)
          let r = Builder.shuffle b s s (Array.init gang (fun l -> l / 8)) in
          map_set i.id r
      (* -- indexed results stay scalar: same operation on the bases -- *)
      | Alloca (s, n), _ ->
          (* every thread gets a private copy, struct-of-arrays layout *)
          report.scalar_kept <- report.scalar_kept + 1;
          map_set i.id (Builder.alloca b s (n * gang))
      | Gep (p, idx), sh when is_alloca_rooted p -> (
          (* SoA addressing: scale the element index by the gang size *)
          match sh with
          | Pshapes.Shapes.Indexed _ ->
              report.scalar_kept <- report.scalar_kept + 1;
              let idx' = mapped idx in
              let idx64 =
                let ity = Func.ty_of_operand f idx in
                if Types.elem ity = Types.I64 then idx'
                else Builder.cast b Instr.SExt idx' Types.i64
              in
              let scaled = Builder.mul b idx64 (Instr.ci64 gang) in
              map_set i.id (Builder.gep b (mapped p) scaled)
          | Pshapes.Shapes.Varying ->
              (* per-lane element indices: build the address vector
                 explicitly (base + (idx*G + lane) * esz) *)
              report.vectorized <- report.vectorized + 1;
              let esz = Types.scalar_bytes (elem_of_ptr p) in
              let pv = materialize p in
              let iv = materialize idx in
              let iv =
                let ity = Func.ty_of_operand f idx in
                if Types.elem ity = Types.I64 then iv
                else
                  Builder.ins b (Types.Vec (Types.I64, gang))
                    (Cast (SExt, iv, Types.Vec (Types.I64, gang)))
              in
              let scaled =
                Builder.ibin b Mul iv
                  (cvec Types.I64 (Array.make gang (Int64.of_int (esz * gang))))
              in
              map_set i.id (Builder.ibin b Add pv scaled))
      | Phi _, _ -> fail "%s: phi outside join/header handling" f.fname
      | op, Pshapes.Shapes.Indexed _ ->
          report.scalar_kept <- report.scalar_kept + 1;
          let op' = map_operands mapped op in
          map_set i.id (Builder.ins b i.ty op')
      (* -- varying results widen to vectors -- *)
      | Ibin (k, x, y), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id
            (Builder.ins b (Types.widen i.ty gang)
               (Ibin (k, materialize x, materialize y)))
      | Fbin (k, x, y), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id
            (Builder.ins b (Types.widen i.ty gang)
               (Fbin (k, materialize x, materialize y)))
      | Iun (k, x), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id
            (Builder.ins b (Types.widen i.ty gang) (Iun (k, materialize x)))
      | Fun (k, x), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id
            (Builder.ins b (Types.widen i.ty gang) (Fun (k, materialize x)))
      | Icmp (k, x, y), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id (Builder.icmp b k (materialize x) (materialize y))
      | Fcmp (k, x, y), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id (Builder.fcmp b k (materialize x) (materialize y))
      | Select (c, x, y), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          let c' =
            if Pshapes.Shapes.is_uniform (shape_of c) then mapped c
            else materialize_mask c
          in
          map_set i.id
            (Builder.ins b (Types.widen i.ty gang)
               (Select (c', materialize x, materialize y)))
      | Cast (k, x, _), Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          let target = Types.widen i.ty gang in
          map_set i.id (Builder.ins b target (Cast (k, materialize x, target)))
      | Load p, Pshapes.Shapes.Varying ->
          report.vectorized <- report.vectorized + 1;
          map_set i.id (emit_load mask i p)
      | Gep (p, idx), Pshapes.Shapes.Varying ->
          (* varying pointer: materialize lane addresses explicitly *)
          report.vectorized <- report.vectorized + 1;
          let esz = Types.scalar_bytes (elem_of_ptr p) in
          let pv = materialize p in
          let iv = materialize idx in
          (* normalize the index vector to i64 *)
          let iv =
            let ity = Func.ty_of_operand f idx in
            if Types.elem ity = Types.I64 then iv
            else
              Builder.ins b (Types.Vec (Types.I64, gang))
                (Cast (SExt, iv, Types.Vec (Types.I64, gang)))
          in
          let scaled =
            Builder.ibin b Mul iv
              (cvec Types.I64 (Array.make gang (Int64.of_int esz)))
          in
          map_set i.id (Builder.ibin b Add pv scaled)
      | Call (name, args), Pshapes.Shapes.Varying
        when Intrinsics.has_vector_version name ->
          report.vectorized <- report.vectorized + 1;
          let vname = Intrinsics.vector_math_name ~lib:opts.Options.math_lib name in
          let vargs = List.map materialize args in
          map_set i.id (Builder.call b (Types.widen i.ty gang) vname vargs)
      | Call (name, args), Pshapes.Shapes.Varying ->
          emit_serialized_call mask i name args
      | op, _ ->
          fail "%s: cannot transform %s" f.fname
            (Fmt.str "%a" Printer.pp_op op)
  in
  (* phi prefix of a block *)
  let phis_of (blk : Func.block) =
    List.filter
      (fun (i : Instr.instr) -> match i.op with Instr.Phi _ -> true | _ -> false)
      blk.instrs
  in
  let non_phis_of (blk : Func.block) =
    List.filter
      (fun (i : Instr.instr) -> match i.op with Instr.Phi _ -> false | _ -> true)
      blk.instrs
  in
  let var_of (o : Instr.operand) =
    match o with Instr.Var v -> v | Instr.Const _ -> -1
  in
  (* the original incoming value a join phi receives along one arm of an
     if: the incoming whose label lies in this arm's blocks, or — for an
     empty arm — the incoming attached to the branch block (which is in
     neither arm) *)
  let pick_phi_incoming (phi : Instr.instr) ~arm_blocks ~other_blocks =
    let incoming = match phi.op with Instr.Phi inc -> inc | _ -> assert false in
    match List.find_opt (fun (l, _) -> List.mem l arm_blocks) incoming with
    | Some (_, v) -> v
    | None -> (
        match
          List.find_opt (fun (l, _) -> not (List.mem l other_blocks)) incoming
        with
        | Some (_, v) -> v
        | None -> fail "%s: join phi %%%d has no incoming for arm" f.fname phi.id)
  in
  (* map an original phi incoming to a new-function operand, respecting
     the phi's shape (scalar base when indexed, vector when varying) *)
  let phi_incoming_value (phi : Instr.instr) (o : Instr.operand) =
    match shape_of (Instr.Var phi.id) with
    | Pshapes.Shapes.Indexed _ -> mapped o
    | Pshapes.Shapes.Varying -> materialize o
  in
  let phi_new_ty (phi : Instr.instr) =
    match shape_of (Instr.Var phi.id) with
    | Pshapes.Shapes.Indexed _ -> phi.ty
    | Pshapes.Shapes.Varying -> Types.widen phi.ty gang
  in
  let rec emit_regions mask (rs : Panalysis.Regions.region list) =
    List.iter (emit_region mask) rs
  and emit_region mask (r : Panalysis.Regions.region) =
    match r with
    | Panalysis.Regions.Basic blk ->
        List.iter
          (fun (i : Instr.instr) ->
            match i.op with
            | Instr.Phi _ ->
                if not (Hashtbl.mem map i.id) then
                  fail "%s: unhandled phi %%%d in %s" f.fname i.id blk.bname
            | _ -> emit_instr mask i)
          blk.instrs
    | Panalysis.Regions.If { cond; then_; else_; join } ->
        let join_blk = Func.find_block f join in
        let jphis = phis_of join_blk in
        (* analysis feedback: the divergence analysis may prove uniform a
           condition the local shape analysis classified varying.  Only
           safe at full mask — under a partial mask the inactive lanes of
           the vectorized condition may hold garbage (masked loads
           zero-fill), so extracting lane 0 could diverge from the
           active lanes. *)
        let analysis_uniform =
          (not (is_uniform cond))
          && mask = None
          && (match dv with
             | Some d -> Pdataflow.Divergence.is_uniform d cond
             | None -> false)
        in
        if
          opts.Options.uniform_branches && (is_uniform cond || analysis_uniform)
        then begin
          if analysis_uniform then begin
            report.analysis_uniform_branches <-
              report.analysis_uniform_branches + 1;
            ranalysis
              "branch joining at %s: divergence analysis proved \
               varying-shaped condition uniform -> scalar branch kept"
              join
          end
          else
            ranalysis
              "branch joining at %s: uniform condition -> scalar branch kept"
              join;
          emit_uniform_if ~extract_cond:analysis_uniform mask cond then_ else_
            jphis
        end
        else begin
          rpassed
            "branch joining at %s: %s condition -> linearized under mask%s"
            join
            (if is_uniform cond then "uniform (uniform_branches off)"
             else "varying")
            (if opts.Options.boscc then " with branch-on-superword-condition"
             else "");
          emit_linearized_if mask cond then_ else_ jphis
        end
    | Panalysis.Regions.Loop { header; cond; body; exit = _ } ->
        (* masked loops require the shape analysis to have forced the
           loop-carried values varying, which it only does for varying
           exit conditions — so uniform-condition loops always stay
           scalar (the uniform_branches ablation applies to ifs) *)
        if is_uniform cond then begin
          ranalysis
            "loop at %s: uniform exit condition -> scalar loop structure kept"
            header.Func.bname;
          emit_uniform_loop mask header cond body
        end
        else begin
          rpassed
            "loop at %s: varying exit condition -> masked loop with per-lane \
             exit blending"
            header.Func.bname;
          emit_masked_loop mask header cond body
        end
  and emit_uniform_if ?(extract_cond = false) mask cond then_ else_ jphis =
    report.uniform_branches_kept <- report.uniform_branches_kept + 1;
    (* analysis-proven uniform conditions are still materialized as
       vectors (all lanes equal); branch on lane 0 *)
    let c =
      if extract_cond then Builder.extract b (mapped cond) (Instr.ci32 0)
      else mapped cond
    in
    let bt = Builder.fresh_block b "then" in
    let be = Builder.fresh_block b "else" in
    let bj = Builder.fresh_block b "join" in
    Builder.condbr b c bt.bname be.bname;
    let names regions =
      List.map
        (fun (bb : Func.block) -> bb.bname)
        (Panalysis.Regions.blocks_of_regions regions)
    in
    let then_names = names then_ and else_names = names else_ in
    let emit_arm entry regions ~arm_blocks ~other_blocks =
      Builder.position b entry;
      emit_regions mask regions;
      (* materialize this arm's contribution to each join phi *)
      let contribs =
        List.map
          (fun (phi : Instr.instr) ->
            phi_incoming_value phi (pick_phi_incoming phi ~arm_blocks ~other_blocks))
          jphis
      in
      let endb = Builder.current b in
      Builder.br b bj.bname;
      (endb, contribs)
    in
    let then_end, then_contribs =
      emit_arm bt then_ ~arm_blocks:then_names ~other_blocks:else_names
    in
    let else_end, else_contribs =
      emit_arm be else_ ~arm_blocks:else_names ~other_blocks:then_names
    in
    Builder.position b bj;
    List.iter2
      (fun (phi : Instr.instr) (tv, ev) ->
        let r =
          Builder.phi b (phi_new_ty phi)
            [ (then_end.bname, tv); (else_end.bname, ev) ]
        in
        map_set phi.id r)
      jphis
      (List.combine then_contribs else_contribs)
  and emit_linearized_if mask cond then_ else_ jphis =
    report.linearized_branches <- report.linearized_branches + 1;
    let cv = materialize_mask cond in
    let m_then = and_mask mask cv in
    let m_else = and_mask mask (not_mask cv) in
    let names regions =
      List.map
        (fun (bb : Func.block) -> bb.bname)
        (Panalysis.Regions.blocks_of_regions regions)
    in
    let then_names = names then_ and else_names = names else_ in
    let emit_arm arm_mask regions ~arm_blocks ~other_blocks =
      (* returns the operand contributed to each join phi by this arm *)
      let emit_body () =
        emit_regions (Some arm_mask) regions;
        List.map
          (fun (phi : Instr.instr) ->
            phi_incoming_value phi (pick_phi_incoming phi ~arm_blocks ~other_blocks))
          jphis
      in
      if opts.Options.boscc && regions <> [] then begin
        (* values from the skipped path are never selected (mask empty);
           default zero vectors are materialized before the branch so
           they dominate the skip edge *)
        let defaults =
          List.map
            (fun (phi : Instr.instr) ->
              match shape_of (Instr.Var phi.id) with
              | Pshapes.Shapes.Indexed _ -> None
              | Pshapes.Shapes.Varying -> Some (zero_vector_for phi.ty))
            jphis
        in
        let any = Builder.reduce b Instr.RAny arm_mask in
        let bdo = Builder.fresh_block b "boscc" in
        let bskip = Builder.fresh_block b "boscc.skip" in
        let before = Builder.current b in
        Builder.condbr b any bdo.bname bskip.bname;
        Builder.position b bdo;
        let vals = emit_body () in
        let endb = Builder.current b in
        Builder.br b bskip.bname;
        Builder.position b bskip;
        List.map2
          (fun ((phi : Instr.instr), default) v ->
            match default with
            | None -> v (* scalar value: identical on both arms *)
            | Some zero ->
                Builder.phi b (phi_new_ty phi)
                  [ (endb.bname, v); (before.bname, zero) ])
          (List.combine jphis defaults)
          vals
      end
      else emit_body ()
    in
    let then_vals =
      emit_arm m_then then_ ~arm_blocks:then_names ~other_blocks:else_names
    in
    let else_vals =
      emit_arm m_else else_ ~arm_blocks:else_names ~other_blocks:then_names
    in
    List.iter2
      (fun (phi : Instr.instr) (tv, ev) ->
        match shape_of (Instr.Var phi.id) with
        | Pshapes.Shapes.Indexed _ ->
            if tv = ev then map_set phi.id tv
            else
              (* a uniform condition that was linearized anyway (the
                 uniform_branches ablation): select between the scalar
                 bases with the scalar condition *)
              map_set phi.id
                (Builder.ins b phi.ty (Instr.Select (mapped cond, tv, ev)))
        | Pshapes.Shapes.Varying ->
            let r =
              Builder.ins b
                (Types.widen phi.ty gang)
                (Instr.Select (cv, tv, ev))
            in
            map_set phi.id r)
      jphis
      (List.combine then_vals else_vals)
  and emit_uniform_loop mask header cond body =
    report.uniform_loops <- report.uniform_loops + 1;
    let hphis = phis_of header in
    let body_block_names =
      List.map
        (fun (bb : Func.block) -> bb.bname)
        (header :: Panalysis.Regions.blocks_of_regions body)
    in
    let init_of (phi : Instr.instr) =
      let incoming = match phi.op with Instr.Phi inc -> inc | _ -> assert false in
      snd (List.find (fun (l, _) -> not (List.mem l body_block_names)) incoming)
    in
    let upd_of (phi : Instr.instr) =
      let incoming = match phi.op with Instr.Phi inc -> inc | _ -> assert false in
      snd (List.find (fun (l, _) -> List.mem l body_block_names) incoming)
    in
    (* inits evaluated in the preheader *)
    let inits = List.map (fun p -> phi_incoming_value p (init_of p)) hphis in
    let pre = Builder.current b in
    let hdr = Builder.fresh_block b "loop.hdr" in
    let bodyb = Builder.fresh_block b "loop.body" in
    let exitb = Builder.fresh_block b "loop.exit" in
    Builder.br b hdr.bname;
    Builder.position b hdr;
    List.iter2
      (fun (phi : Instr.instr) init ->
        let r = Builder.phi b (phi_new_ty phi) [ (pre.bname, init) ] in
        map_set phi.id r)
      hphis inits;
    List.iter (emit_instr mask) (non_phis_of header);
    Builder.condbr b (mapped cond) bodyb.bname exitb.bname;
    Builder.position b bodyb;
    emit_regions mask body;
    let upds = List.map (fun p -> phi_incoming_value p (upd_of p)) hphis in
    let latch = Builder.current b in
    Builder.br b hdr.bname;
    List.iter2
      (fun (phi : Instr.instr) upd ->
        Builder.add_incoming b hdr (var_of (mapped (Instr.Var phi.id))) [ (latch.bname, upd) ])
      hphis upds;
    Builder.position b exitb
  and emit_masked_loop mask header cond body =
    report.masked_loops <- report.masked_loops + 1;
    let hphis = phis_of header in
    let body_blocks = Panalysis.Regions.blocks_of_regions body in
    let loop_block_names =
      List.map (fun (bb : Func.block) -> bb.bname) (header :: body_blocks)
    in
    let init_of (phi : Instr.instr) =
      let incoming = match phi.op with Instr.Phi inc -> inc | _ -> assert false in
      snd (List.find (fun (l, _) -> not (List.mem l loop_block_names)) incoming)
    in
    let upd_of (phi : Instr.instr) =
      let incoming = match phi.op with Instr.Phi inc -> inc | _ -> assert false in
      snd (List.find (fun (l, _) -> List.mem l loop_block_names) incoming)
    in
    (* live-outs: header definitions used outside the loop (per-lane exit
       blending; see Shapes for why they are varying) *)
    let header_def_ids =
      List.filter_map
        (fun (i : Instr.instr) -> if i.ty <> Types.Void then Some i.id else None)
        header.instrs
    in
    let used_outside id =
      List.exists
        (fun (blk : Func.block) ->
          (not (List.mem blk.bname loop_block_names))
          && (List.exists
                (fun (i : Instr.instr) -> List.mem id (Instr.uses_of_op i.op))
                blk.instrs
             || List.exists
                  (fun o -> o = Instr.Var id)
                  (Instr.operands_of_term blk.term)))
        f.blocks
    in
    let live_outs = List.filter used_outside header_def_ids in
    (* preheader values *)
    let inits = List.map (fun p -> phi_incoming_value p (init_of p)) hphis in
    let entry_mask = mask_operand mask in
    let acc_inits =
      List.map (fun id -> zero_vector_for (Func.ty_of_var f id)) live_outs
    in
    let pre = Builder.current b in
    let hdr = Builder.fresh_block b "vloop.hdr" in
    let bodyb = Builder.fresh_block b "vloop.body" in
    let exitb = Builder.fresh_block b "vloop.exit" in
    Builder.br b hdr.bname;
    Builder.position b hdr;
    List.iter2
      (fun (phi : Instr.instr) init ->
        let r = Builder.phi b (phi_new_ty phi) [ (pre.bname, init) ] in
        map_set phi.id r)
      hphis inits;
    let am =
      Builder.phi b (Types.mask gang) [ (pre.bname, entry_mask) ]
    in
    let accs =
      List.map2
        (fun id init ->
          (id, Builder.phi b (Types.widen (Func.ty_of_var f id) gang) [ (pre.bname, init) ]))
        live_outs acc_inits
    in
    List.iter (emit_instr (Some am)) (non_phis_of header);
    let cv = materialize_mask cond in
    let newly = Builder.and_ b am (not_mask cv) in
    let acc_nexts =
      List.map
        (fun (id, acc) ->
          let cur = materialize (Instr.Var id) in
          (id, acc, Builder.ins b (Func.ty_of_operand nf cur) (Instr.Select (newly, cur, acc))))
        accs
    in
    let am_next = Builder.and_ b am cv in
    let any = Builder.reduce b Instr.RAny am_next in
    Builder.condbr b any bodyb.bname exitb.bname;
    Builder.position b bodyb;
    emit_regions (Some am_next) body;
    let upds = List.map (fun p -> phi_incoming_value p (upd_of p)) hphis in
    let latch = Builder.current b in
    Builder.br b hdr.bname;
    List.iter2
      (fun (phi : Instr.instr) upd ->
        Builder.add_incoming b hdr (var_of (mapped (Instr.Var phi.id))) [ (latch.bname, upd) ])
      hphis upds;
    Builder.add_incoming b hdr (var_of am) [ (latch.bname, am_next) ];
    List.iter
      (fun (_, acc, acc_next) ->
        Builder.add_incoming b hdr (var_of acc) [ (latch.bname, acc_next) ])
      acc_nexts;
    Builder.position b exitb;
    (* after the loop, uses of header values see the exit-blended copies *)
    List.iter (fun (id, _, acc_next) -> map_set id acc_next) acc_nexts
  in
  (* entry mask: full gangs run all lanes; the partial variant masks
     lanes at or beyond [num_threads - gang_num * G] (Listing 6's
     [thread_id < N] guard) *)
  let entry_mask =
    if not spmd.Func.partial then None
    else begin
      match List.rev f.params with
      | (nt, _) :: (gn, _) :: _ ->
          let start =
            Builder.mul b (Instr.Var gn) (Instr.ci64 gang)
          in
          let rem = Builder.sub b (Instr.Var nt) start in
          let lanes = Instr.iota Types.I64 gang in
          let remv = Builder.splat b rem gang in
          Some (Builder.icmp b Instr.Slt lanes remv)
      | _ -> fail "%s: partial SPMD function needs gang/thread params" f.fname
    end
  in
  emit_regions entry_mask info.Pshapes.Shapes.regions;
  Builder.ret_void b;
  Builder.finish b;
  rpassed
    "function vectorized at gang %d: %d vector / %d scalar-kept instr(s), \
     branches %d kept / %d linearized, loops %d uniform / %d masked"
    gang report.vectorized report.scalar_kept report.uniform_branches_kept
    report.linearized_branches report.uniform_loops report.masked_loops;
  (nf, report)

(* classification counters land in the metrics registry per vectorized
   function, so one [Pobs.Metrics.snapshot] totals the pass's decisions
   across a whole sweep (the scorecard layer reads the same report
   per-kernel; this is the fleet-wide aggregate) *)
let m_funcs = Pobs.Metrics.counter "parsimony.functions_vectorized"

let m_instrs =
  Pobs.Metrics.counter "parsimony.instrs"
    ~help:"SPMD instructions by outcome (vectorized/scalar_kept)"

let m_mem =
  Pobs.Metrics.counter "parsimony.mem_ops"
    ~help:"memory accesses by final class (packed/shuffle/gather/scatter)"

let m_branches =
  Pobs.Metrics.counter "parsimony.branches"
    ~help:"branches by outcome (uniform_kept/linearized)"

let m_loops = Pobs.Metrics.counter "parsimony.loops"

let m_serialized = Pobs.Metrics.counter "parsimony.serialized_calls"

let m_reclassified =
  Pobs.Metrics.counter "parsimony.reclassified"
    ~help:"gathers/scatters converted to packed forms by analysis feedback"

let publish_report (r : report) =
  if Pobs.Metrics.enabled () then begin
    let open Pobs.Metrics in
    incr m_funcs;
    add ~labels:[ ("outcome", "vectorized") ] m_instrs r.vectorized;
    add ~labels:[ ("outcome", "scalar_kept") ] m_instrs r.scalar_kept;
    add ~labels:[ ("class", "packed") ] m_mem (r.packed_loads + r.packed_stores);
    add ~labels:[ ("class", "shuffle") ] m_mem r.strided_shuffles;
    add ~labels:[ ("class", "gather") ] m_mem r.gathers;
    add ~labels:[ ("class", "scatter") ] m_mem r.scatters;
    add ~labels:[ ("outcome", "uniform_kept") ] m_branches r.uniform_branches_kept;
    add ~labels:[ ("outcome", "linearized") ] m_branches r.linearized_branches;
    add ~labels:[ ("outcome", "uniform") ] m_loops r.uniform_loops;
    add ~labels:[ ("outcome", "masked") ] m_loops r.masked_loops;
    add m_serialized r.serialized_calls;
    add ~labels:[ ("kind", "load") ] m_reclassified r.reclassified_loads;
    add ~labels:[ ("kind", "store") ] m_reclassified r.reclassified_stores
  end

(** Vectorize every SPMD-annotated function of [m] in place, replacing
    each with its vector version (same name, spmd annotation cleared). *)
let run_module ?opts (m : Func.modul) : report list =
  let eff_opts = Option.value ~default:Options.default opts in
  let reports = ref [] in
  m.funcs <-
    List.map
      (fun f ->
        match f.Func.spmd with
        | None -> f
        | Some _ ->
            let nf, rep =
              Pobs.Trace.with_span ~cat:"pass"
                ~args:[ ("func", f.Func.fname) ]
                "vectorize"
                (fun () ->
                  try vectorize_func ?opts f
                  with Unvectorizable reason as e ->
                    Pobs.Remarks.(
                      emit Missed ~pass:"parsimony" ~func:f.Func.fname)
                      "function not vectorized: %s" reason;
                    raise e)
            in
            if eff_opts.Options.analysis_feedback then begin
              let st =
                Pobs.Trace.with_span ~cat:"pass"
                  ~args:[ ("func", f.Func.fname) ]
                  "reclassify"
                  (fun () -> Reclassify.run_func ~opts:eff_opts nf)
              in
              rep.reclassified_loads <-
                st.Reclassify.loads_packed + st.Reclassify.loads_shuffled;
              rep.reclassified_stores <-
                st.Reclassify.stores_packed + st.Reclassify.stores_shuffled;
              (* keep the classification counters describing the final
                 IR: each reclassified access stops being a
                 gather/scatter and becomes packed (or packed+shuffle) *)
              rep.gathers <- rep.gathers - rep.reclassified_loads;
              rep.scatters <- rep.scatters - rep.reclassified_stores;
              rep.packed_loads <- rep.packed_loads + st.Reclassify.loads_packed;
              rep.packed_stores <-
                rep.packed_stores + st.Reclassify.stores_packed;
              rep.strided_shuffles <-
                rep.strided_shuffles + st.Reclassify.loads_shuffled
                + st.Reclassify.stores_shuffled;
              rep.rule_hits <-
                List.fold_left
                  (fun acc (rule, n) ->
                    match List.assoc_opt rule acc with
                    | Some m -> (rule, m + n) :: List.remove_assoc rule acc
                    | None -> (rule, n) :: acc)
                  rep.rule_hits st.Reclassify.rule_hits
                |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            end;
            if eff_opts.Options.reduce_unroll then
              ignore
                (Pobs.Trace.with_span ~cat:"pass"
                   ~args:[ ("func", f.Func.fname) ]
                   "reduce-unroll"
                   (fun () -> Reduce_unroll.run_func nf));
            publish_report rep;
            reports := rep :: !reports;
            nf)
      m.funcs;
  List.rev !reports
