(** Shape analysis (paper §4.2.2).

    Every SSA value of an SPMD function is classified as either

    - [Indexed offsets]: representable as a thread-invariant scalar base
      plus the given compile-time per-lane offsets.  The base is what the
      transformed function will compute in a scalar register; the offsets
      are compiler metadata.  *Uniform* values are indexed with all-zero
      offsets; *strided* values are indexed with [i*stride] offsets — the
      broader indexed category captures more patterns than either.

    - [Varying]: everything else; stored as a vector value in the
      transformed IR.

    The analysis runs an optimistic iterative dataflow: unknown values
    start at bottom, transfer functions consult the verified
    transformation rules of [Psmt.Rules] (with [Psmt.Facts] tracked per
    base), and speculation on loop-carried values is recomputed until a
    fixpoint, as the paper describes.

    The fixpoint is sparse.  It visits instructions in passes over block
    order, each pass seeing the updates of the instructions before it,
    but a pass re-runs an instruction's transfer only when one of its
    operands changed after its last transfer (or, for a phi, when fact
    widening switches on after pass 6).  Transfers are pure, so a
    skipped transfer would have changed nothing, and every pass ends in
    the state a full sweep would reach.

    Divergence constraints are folded in through the region tree:

    - phis at the join of a varying-condition [if] become [Varying]
      (they turn into per-lane selects) unless both arms carry the
      identical value;
    - in a loop whose exit condition is varying, loop-carried phis and
      any header-defined value live past the loop become [Varying]
      (they need per-lane exit blending). *)

type shape = Indexed of int64 array | Varying

let uniform gang = Indexed (Array.make gang 0L)
let lane_iota gang = Indexed (Array.init gang Int64.of_int)
let is_uniform = function Indexed o -> Array.for_all (fun x -> x = 0L) o | Varying -> false

let is_indexed = function Indexed _ -> true | Varying -> false

(** Constant stride if the offsets form an arithmetic progression. *)
let stride_of = function
  | Varying -> None
  | Indexed o ->
      if Array.length o < 2 then Some 0L
      else
        let d = Int64.sub o.(1) o.(0) in
        let ok = ref true in
        Array.iteri (fun i x -> if Int64.sub x o.(0) <> Int64.mul (Int64.of_int i) d then ok := false) o;
        if !ok then Some d else None

let pp_shape ppf = function
  | Varying -> Fmt.string ppf "varying"
  | Indexed o when Array.for_all (fun x -> x = 0L) o -> Fmt.string ppf "uniform"
  | Indexed o -> Fmt.pf ppf "indexed<%a>" Fmt.(array ~sep:(any ",") int64) o

type info = {
  gang : int;
  shapes : (int, shape) Hashtbl.t;
  facts : (int, Psmt.Facts.t) Hashtbl.t;
  rule_hits : (string, int) Hashtbl.t;  (** which rules fired, for reports *)
  regions : Panalysis.Regions.region list;  (** the function's region tree *)
  alloca_rooted : (int, unit) Hashtbl.t;
      (** pointers rooted at an alloca (SoA-laid-out private storage) *)
}

let shape_of info (o : Pir.Instr.operand) : shape =
  match o with
  | Pir.Instr.Const _ -> uniform info.gang
  | Pir.Instr.Var v -> (
      match Hashtbl.find_opt info.shapes v with Some s -> s | None -> Varying)

let facts_of info (o : Pir.Instr.operand) : Psmt.Facts.t =
  match o with
  | Pir.Instr.Const (Pir.Instr.Cint (s, v)) ->
      Psmt.Facts.of_const (Pir.Types.scalar_bits s) v
  | Pir.Instr.Const _ -> Psmt.Facts.top
  | Pir.Instr.Var v ->
      Option.value ~default:Psmt.Facts.top (Hashtbl.find_opt info.facts v)

(* -- internal analysis state -- *)

type cell = Bot | Known of shape

let join_shape a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Known Varying, _ | _, Known Varying -> Known Varying
  | Known (Indexed x), Known (Indexed y) -> if x = y then a else Known Varying

let width_of_ty (ty : Pir.Types.t) =
  match ty with
  | Pir.Types.Ptr _ -> 64
  | Pir.Types.Scalar s | Pir.Types.Vec (s, _) -> Pir.Types.scalar_bits s
  | Pir.Types.Void -> 64

exception Not_spmd of string

(* Passes of one dataflow run: fact widening switches on after
   [widen_after], and a run that still changes after [max_passes] is
   abandoned (everything varying).  At most [max_rounds] forcing rounds
   follow the first run. *)
let widen_after = 6
let max_passes = 60
let max_rounds = 20

(** Analyze an SPMD-annotated scalar function. *)
let analyze (f : Pir.Func.t) : info =
  let open Pir.Instr in
  let gang =
    match f.spmd with
    | Some s -> s.Pir.Func.gang_size
    | None -> raise (Not_spmd f.fname)
  in
  let regions = Panalysis.Regions.of_func f in
  (* every all-zero offset vector is this one; nothing mutates offsets *)
  let uniform_shape = uniform gang in
  let uniform_cell = Known uniform_shape in
  let is_zero o = Array.for_all (fun x -> x = 0L) o in
  (* positions: the value-producing instructions, in block order *)
  let defs =
    Pir.Func.fold_instrs f [] (fun acc _ i ->
        if i.ty <> Pir.Types.Void then i :: acc else acc)
    |> List.rev |> Array.of_list
  in
  let npos = Array.length defs in
  (* dense per-SSA-id state, sized by the largest id in use: nothing
     enforces [next_id] on hand-built IR *)
  let nids =
    let m = ref (f.next_id - 1) in
    let see = function Var v -> m := max !m v | Const _ -> () in
    List.iter (fun (v, _) -> m := max !m v) f.params;
    List.iter
      (fun (b : Pir.Func.block) ->
        List.iter
          (fun i ->
            m := max !m i.id;
            List.iter see (operands_of_op i.op))
          b.instrs;
        List.iter see (operands_of_term b.term))
      f.blocks;
    !m + 1
  in
  let cells = Array.make nids Bot in
  let fcts = Array.make nids Psmt.Facts.top in
  let forced = Array.make nids false in
  (* users.(v): positions whose transfer reads v *)
  let users = Array.make nids [] in
  Array.iteri
    (fun pos i ->
      List.iter (fun v -> users.(v) <- pos :: users.(v)) (uses_of_op i.op))
    defs;
  (* pointers rooted at an alloca: allocas and geps off rooted pointers *)
  let rooted = Array.make nids false in
  let rec root v =
    if not rooted.(v) then begin
      rooted.(v) <- true;
      List.iter
        (fun pos ->
          match defs.(pos).op with
          | Gep (Var p, _) when p = v -> root defs.(pos).id
          | _ -> ())
        users.(v)
    end
  in
  Array.iter (fun i -> match i.op with Alloca _ -> root i.id | _ -> ()) defs;
  let is_alloca_rooted = function Var v -> rooted.(v) | Const _ -> false in
  let cell_of_operand = function Const _ -> uniform_cell | Var v -> cells.(v) in
  let facts_of_operand = function
    | Const (Cint (s, v)) -> Psmt.Facts.of_const (Pir.Types.scalar_bits s) v
    | Const _ -> Psmt.Facts.top
    | Var v -> fcts.(v)
  in
  let is_uniform_cell = function Known s -> is_uniform s | Bot -> false in
  let widen_mode = ref false in
  (* the rule that fired in each position's last transfer *)
  let last_rule = Array.make npos None in
  (* transfer function: shape and base-facts of one instruction *)
  let transfer pos (i : instr) : cell * Psmt.Facts.t =
    let w = width_of_ty i.ty in
    match i.op with
    | Ibin (k, a, b) -> (
        match (cell_of_operand a, cell_of_operand b) with
        | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
        | Known Varying, _ | _, Known Varying -> (Known Varying, Psmt.Facts.top)
        | Known (Indexed oa), Known (Indexed ob) -> (
            let arg_a = { Psmt.Rules.offsets = oa; facts = facts_of_operand a } in
            let arg_b = { Psmt.Rules.offsets = ob; facts = facts_of_operand b } in
            let fr = Psmt.Facts.ibin k w arg_a.facts arg_b.facts in
            match Psmt.Rules.try_apply ~w k arg_a arg_b with
            | Some (rule, offsets) ->
                last_rule.(pos) <- Some rule;
                (Known (Indexed (Array.map (Pir.Ints.norm w) offsets)), fr)
            | None ->
                (* no rule: still fine if both operands are uniform —
                   the same scalar op on the bases is the value *)
                if is_zero oa && is_zero ob then (uniform_cell, fr)
                else (Known Varying, Psmt.Facts.top)))
    | Iun (k, a) -> (
        match cell_of_operand a with
        | Bot -> (Bot, Psmt.Facts.top)
        | Known Varying -> (Known Varying, Psmt.Facts.top)
        | Known (Indexed oa) -> (
            match k with
            | INot | INeg ->
                (* not(b+o) = not(b) + (-o); neg(b+o) = neg(b) + (-o) *)
                ( Known (Indexed (Array.map (fun o -> Pir.Ints.neg w o) oa)),
                  Psmt.Facts.top )
            | _ ->
                if is_zero oa then (uniform_cell, Psmt.Facts.top)
                else (Known Varying, Psmt.Facts.top)))
    | Fbin (_, a, b) | Fcmp (_, a, b) | Icmp (_, a, b) -> (
        match (cell_of_operand a, cell_of_operand b) with
        | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
        | Known sa, Known sb ->
            if is_uniform sa && is_uniform sb then (uniform_cell, Psmt.Facts.top)
            else (Known Varying, Psmt.Facts.top))
    | Fun (_, a) -> (
        match cell_of_operand a with
        | Bot -> (Bot, Psmt.Facts.top)
        | Known s ->
            if is_uniform s then (uniform_cell, Psmt.Facts.top)
            else (Known Varying, Psmt.Facts.top))
    | Select (c, a, b) -> (
        match (cell_of_operand c, cell_of_operand a, cell_of_operand b) with
        | Bot, _, _ | _, Bot, _ | _, _, Bot -> (Bot, Psmt.Facts.top)
        | Known sc, ca, cb ->
            if is_uniform sc then
              match join_shape ca cb with
              | Known (Indexed _) as s ->
                  (s, Psmt.Facts.join (facts_of_operand a) (facts_of_operand b))
              | s -> (s, Psmt.Facts.top)
            else (Known Varying, Psmt.Facts.top))
    | Cast (k, a, _) -> (
        match cell_of_operand a with
        | Bot -> (Bot, Psmt.Facts.top)
        | Known Varying -> (Known Varying, Psmt.Facts.top)
        | Known (Indexed oa) as ca -> (
            let src_w = width_of_ty (Pir.Func.ty_of_operand f a) in
            let fa = facts_of_operand a in
            let fr = Psmt.Facts.cast k ~ws:src_w ~wd:w fa in
            match k with
            | Trunc ->
                (* modular arithmetic: offsets renormalize at the
                   destination width, unconditionally sound *)
                (Known (Indexed (Array.map (Pir.Ints.norm w) oa)), fr)
            | ZExt ->
                (* sound when base + max offset cannot wrap at the
                   source width *)
                let max_off = Psmt.Rules.max_offset src_w oa in
                if Psmt.Facts.max_plus_fits fa max_off src_w then (ca, fr)
                else if is_zero oa then (uniform_cell, fr)
                else (Known Varying, Psmt.Facts.top)
            | SExt ->
                (* sound when base + max offset stays in the
                   non-negative signed range at the source width *)
                let max_off = Psmt.Rules.max_offset src_w oa in
                if Psmt.Facts.max_plus_fits fa max_off (src_w - 1) then (ca, fr)
                else if is_zero oa then (uniform_cell, fr)
                else (Known Varying, Psmt.Facts.top)
            | _ ->
                if is_zero oa then (uniform_cell, Psmt.Facts.top)
                else (Known Varying, Psmt.Facts.top)))
    | Alloca (s, _) ->
        (* private per-thread storage is laid out struct-of-arrays
           (element j of thread i lives at base + (j*G + i) * esz), so
           accesses at a uniform index are packed loads/stores — the
           swizzling ispc performs on varying arrays (paper §4.2.3
           notes AoS layouts would gather/scatter) *)
        let esz = Pir.Types.scalar_bytes s in
        ( Known (Indexed (Array.init gang (fun i -> Int64.of_int (i * esz)))),
          { Psmt.Facts.top with Psmt.Facts.align = 6 } )
    | Gep (p, idx) when is_alloca_rooted p -> (
        (* SoA addressing: uniform indices preserve the lane-strided
           shape; anything else needs per-lane addresses *)
        match (cell_of_operand p, cell_of_operand idx) with
        | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
        | (Known (Indexed _) as cp), Known s when is_uniform s -> (cp, Psmt.Facts.top)
        | _ -> (Known Varying, Psmt.Facts.top))
    | Gep (p, idx) -> (
        match (cell_of_operand p, cell_of_operand idx) with
        | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
        | Known (Indexed op_), Known (Indexed oi) ->
            let esz =
              match Pir.Func.ty_of_operand f p with
              | Pir.Types.Ptr s -> Int64.of_int (Pir.Types.scalar_bytes s)
              | _ -> 1L
            in
            (* pointer offsets are tracked in bytes *)
            ( Known
                (Indexed
                   (Array.init gang (fun l ->
                        Pir.Ints.add 64 op_.(l) (Int64.mul oi.(l) esz)))),
              Psmt.Facts.top )
        | _ -> (Known Varying, Psmt.Facts.top))
    | Load p -> (
        match cell_of_operand p with
        | Bot -> (Bot, Psmt.Facts.top)
        | Known s when is_uniform s ->
            (* same address in every thread: stays a scalar load *)
            (uniform_cell, Psmt.Facts.top)
        | Known _ -> (Known Varying, Psmt.Facts.top))
    | Store _ | VStore _ | Scatter _ -> (uniform_cell, Psmt.Facts.top)
    | Call (name, args) ->
        if name = Pir.Intrinsics.lane_num then
          (Known (lane_iota gang), Psmt.Facts.of_const 64 0L)
        else if name = Pir.Intrinsics.gang_sync then (uniform_cell, Psmt.Facts.top)
        else if
          Pir.Intrinsics.is_math name
          && List.for_all (fun a -> is_uniform_cell (cell_of_operand a)) args
        then (uniform_cell, Psmt.Facts.top)
        else if
          Pir.Intrinsics.is_math name
          && List.exists (fun a -> cell_of_operand a = Bot) args
        then (Bot, Psmt.Facts.top)
        else (Known Varying, Psmt.Facts.top)
    | Phi incoming ->
        let c =
          List.fold_left (fun acc (_, o) -> join_shape acc (cell_of_operand o)) Bot incoming
        in
        let fr =
          match incoming with
          | [] -> Psmt.Facts.top
          | (_, o) :: rest ->
              List.fold_left
                (fun fs (_, o) -> Psmt.Facts.join fs (facts_of_operand o))
                (facts_of_operand o) rest
        in
        (c, if !widen_mode then Psmt.Facts.widen fr else fr)
    | Splat _ | VLoad _ | Gather _ | Shuffle _ | ShuffleDyn _ | ExtractLane _
    | InsertLane _ | Reduce _ | FirstLane _ | Psadbw _ ->
        (* explicit vector operations only appear in already-vectorized
           code; treat as varying if they somehow occur *)
        (Known Varying, Psmt.Facts.top)
  in
  let phi_positions =
    List.filter (fun pos -> match defs.(pos).op with Phi _ -> true | _ -> false)
      (List.init npos Fun.id)
  in
  (* the worklist: a min-heap of [pass * npos + position], so a pass
     visits its instructions in block order.  A position is queued at
     most once per pass, and only the current and the next pass are
     ever queued. *)
  let heap = Array.make ((2 * npos) + 1) 0 in
  let hsize = ref 0 in
  let queued = Array.make npos (-1) in
  let push key =
    let i = ref !hsize in
    incr hsize;
    while !i > 0 && heap.((!i - 1) / 2) > key do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- key
  in
  let pop () =
    let top = heap.(0) in
    decr hsize;
    let key = heap.(!hsize) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !hsize && heap.(l + 1) < heap.(l) then l + 1 else l in
      if c < !hsize && heap.(c) < key then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- key;
    top
  in
  let enqueue pass pos =
    let key = (pass * npos) + pos in
    if queued.(pos) <> key then begin
      queued.(pos) <- key;
      push key
    end
  in
  (* one dataflow run to fixpoint from bottom, under the current forcing
     set; every position is transferred in pass 1 *)
  let run_dataflow () =
    Array.fill cells 0 nids Bot;
    Array.fill fcts 0 nids Psmt.Facts.top;
    List.iter (fun (v, _) -> cells.(v) <- uniform_cell) f.params;
    Array.fill queued 0 npos (-1);
    hsize := 0;
    for pos = 0 to npos - 1 do
      enqueue 1 pos
    done;
    let pass = ref 0 in
    let changed = ref true in
    while !changed && !pass < max_passes do
      incr pass;
      widen_mode := !pass > widen_after;
      changed := false;
      if !pass = widen_after + 1 then List.iter (enqueue !pass) phi_positions;
      while !hsize > 0 && heap.(0) < (!pass + 1) * npos do
        let pos = pop () - (!pass * npos) in
        let i = defs.(pos) in
        last_rule.(pos) <- None;
        let c, fr =
          if forced.(i.id) then (Known Varying, Psmt.Facts.top) else transfer pos i
        in
        let c0 = cells.(i.id) in
        (* monotone update: never climb back above the join *)
        let c = join_shape c0 c in
        if c <> c0 || not (Psmt.Facts.equal fr fcts.(i.id)) then begin
          cells.(i.id) <- c;
          fcts.(i.id) <- fr;
          changed := true;
          (* later positions see the change in this pass, the others in
             the next *)
          List.iter
            (fun u -> enqueue (if u > pos then !pass else !pass + 1) u)
            users.(i.id)
        end
      done
    done;
    if !changed then
      (* did not converge: conservatively mark everything varying *)
      Array.iter (fun i -> cells.(i.id) <- Known Varying) defs
  in
  (* divergence forcing: constraints from varying conditionals and
     varying-exit loops, each forcing a set of values varying *)
  let operand_varying = function
    | Const _ -> false
    | Var v -> ( match cells.(v) with Known Varying -> true | _ -> false)
  in
  let force ids =
    List.fold_left
      (fun any v ->
        if forced.(v) then any
        else begin
          forced.(v) <- true;
          true
        end)
      false ids
  in
  let rec collect_constraints regions : (unit -> bool) list =
    List.concat_map
      (fun (r : Panalysis.Regions.region) ->
        match r with
        | Panalysis.Regions.Basic _ -> []
        | Panalysis.Regions.If { cond; then_; else_; join } ->
            (* join phis become per-lane selects unless both arms carry
               the identical value *)
            let phis =
              List.filter_map
                (fun (i : instr) ->
                  match i.op with
                  | Phi ((_, v) :: rest)
                    when not (List.for_all (fun (_, o) -> equal_operand v o) rest) ->
                      Some i.id
                  | _ -> None)
                (Pir.Func.find_block f join).instrs
            in
            let constr () = operand_varying cond && force phis in
            (constr :: collect_constraints then_) @ collect_constraints else_
        | Panalysis.Regions.Loop { header; cond; body; _ } ->
            (* loop-carried phis, and any loop definition used outside
               the loop: both need per-lane exit blending *)
            let targets =
              lazy
                (let loop_blocks = header :: Panalysis.Regions.blocks_of_regions body in
                 let in_loop = Array.make nids false in
                 List.iter
                   (fun (b : Pir.Func.block) ->
                     List.iter (fun (i : instr) -> in_loop.(i.id) <- true) b.instrs)
                   loop_blocks;
                 let names = Hashtbl.create 8 in
                 List.iter
                   (fun (b : Pir.Func.block) -> Hashtbl.replace names b.bname ())
                   loop_blocks;
                 let live_outs = ref [] in
                 let use = function
                   | Var u when in_loop.(u) -> live_outs := u :: !live_outs
                   | _ -> ()
                 in
                 List.iter
                   (fun (b : Pir.Func.block) ->
                     if not (Hashtbl.mem names b.bname) then begin
                       List.iter (fun (i : instr) -> List.iter use (operands_of_op i.op)) b.instrs;
                       List.iter use (operands_of_term b.term)
                     end)
                   f.blocks;
                 List.filter_map
                   (fun (i : instr) -> match i.op with Phi _ -> Some i.id | _ -> None)
                   header.instrs
                 @ !live_outs)
            in
            let constr () = operand_varying cond && force (Lazy.force targets) in
            constr :: collect_constraints body)
      regions
  in
  let constraints = collect_constraints regions in
  (* each round is a fresh fixpoint under the constraints forced so far *)
  let rec iterate n =
    run_dataflow ();
    let changed = List.fold_left (fun acc c -> c () || acc) false constraints in
    if changed && n < max_rounds then iterate (n + 1)
  in
  iterate 0;
  (* export *)
  let info =
    {
      gang;
      shapes = Hashtbl.create 64;
      facts = Hashtbl.create 64;
      rule_hits = Hashtbl.create 16;
      regions;
      alloca_rooted = Hashtbl.create 8;
    }
  in
  Array.iteri
    (fun pos (i : instr) ->
      Hashtbl.replace info.shapes i.id
        (match cells.(i.id) with
        | Bot ->
            (* unreachable / dead value: any classification is sound *)
            uniform_shape
        | Known s -> s);
      Hashtbl.replace info.facts i.id fcts.(i.id);
      if rooted.(i.id) then Hashtbl.replace info.alloca_rooted i.id ();
      match last_rule.(pos) with
      | Some r ->
          Hashtbl.replace info.rule_hits r
            (1 + Option.value ~default:0 (Hashtbl.find_opt info.rule_hits r))
      | None -> ())
    defs;
  List.iter
    (fun (v, _) ->
      Hashtbl.replace info.shapes v uniform_shape;
      Hashtbl.replace info.facts v Psmt.Facts.top)
    f.params;
  info
