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
  | Known (Indexed x), Known (Indexed y) ->
      if x = y then Known (Indexed x) else Known Varying

let width_of_ty (ty : Pir.Types.t) =
  match ty with
  | Pir.Types.Ptr _ -> 64
  | Pir.Types.Scalar s | Pir.Types.Vec (s, _) -> Pir.Types.scalar_bits s
  | Pir.Types.Void -> 64

exception Not_spmd of string

(** Analyze an SPMD-annotated scalar function. *)
let analyze (f : Pir.Func.t) : info =
  let gang =
    match f.spmd with
    | Some s -> s.Pir.Func.gang_size
    | None -> raise (Not_spmd f.fname)
  in
  let regions = Panalysis.Regions.of_func f in
  let alloca_rooted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let info =
    {
      gang;
      shapes = Hashtbl.create 64;
      facts = Hashtbl.create 64;
      rule_hits = Hashtbl.create 16;
      regions;
      alloca_rooted;
    }
  in
  let cells : (int, cell) Hashtbl.t = Hashtbl.create 64 in
  let fcts : (int, Psmt.Facts.t) Hashtbl.t = Hashtbl.create 64 in
  let forced : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let cell_of_operand (o : Pir.Instr.operand) =
    match o with
    | Pir.Instr.Const _ -> Known (uniform gang)
    | Pir.Instr.Var v -> Option.value ~default:Bot (Hashtbl.find_opt cells v)
  in
  let facts_of_operand (o : Pir.Instr.operand) =
    match o with
    | Pir.Instr.Const (Pir.Instr.Cint (s, v)) ->
        Psmt.Facts.of_const (Pir.Types.scalar_bits s) v
    | Pir.Instr.Const _ -> Psmt.Facts.top
    | Pir.Instr.Var v -> Option.value ~default:Psmt.Facts.top (Hashtbl.find_opt fcts v)
  in
  (* parameters: thread-invariant by construction (captured by the
     front-end, identical for every thread of the gang) *)
  List.iter
    (fun (v, _) ->
      Hashtbl.replace cells v (Known (uniform gang));
      Hashtbl.replace fcts v Psmt.Facts.top)
    f.params;
  let widen_mode = ref false in
  let is_uniform_cell = function Known s -> is_uniform s | Bot -> false in
  let () =
    let changed = ref true in
    while !changed do
      changed := false;
      Pir.Func.iter_instrs f (fun _ i ->
          if not (Hashtbl.mem alloca_rooted i.Pir.Instr.id) then
            match i.Pir.Instr.op with
            | Pir.Instr.Alloca _ ->
                Hashtbl.replace alloca_rooted i.Pir.Instr.id ();
                changed := true
            | Pir.Instr.Gep (Pir.Instr.Var p, _) when Hashtbl.mem alloca_rooted p ->
                Hashtbl.replace alloca_rooted i.Pir.Instr.id ();
                changed := true
            | _ -> ())
    done
  in
  let is_alloca_rooted (o : Pir.Instr.operand) =
    match o with
    | Pir.Instr.Var v -> Hashtbl.mem alloca_rooted v
    | _ -> false
  in
  (* transfer function: shape and base-facts of one instruction *)
  let transfer (i : Pir.Instr.instr) : cell * Psmt.Facts.t =
    let open Pir.Instr in
    let w = width_of_ty i.ty in
    let var_forced = Hashtbl.mem forced i.id in
    let res =
      match i.op with
      | Ibin (k, a, b) -> (
          match (cell_of_operand a, cell_of_operand b) with
          | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
          | Known Varying, _ | _, Known Varying ->
              (Known Varying, Psmt.Facts.top)
          | Known (Indexed oa), Known (Indexed ob) -> (
              let arg_a = { Psmt.Rules.offsets = oa; facts = facts_of_operand a } in
              let arg_b = { Psmt.Rules.offsets = ob; facts = facts_of_operand b } in
              let fr = Psmt.Facts.ibin k w arg_a.facts arg_b.facts in
              match Psmt.Rules.try_apply ~w k arg_a arg_b with
              | Some (rule, offsets) ->
                  Hashtbl.replace info.rule_hits rule
                    (1 + Option.value ~default:0 (Hashtbl.find_opt info.rule_hits rule));
                  (Known (Indexed (Array.map (Pir.Ints.norm w) offsets)), fr)
              | None ->
                  (* no rule: still fine if both operands are uniform —
                     the same scalar op on the bases is the value *)
                  if Array.for_all (fun x -> x = 0L) oa && Array.for_all (fun x -> x = 0L) ob
                  then (Known (uniform gang), fr)
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
                  if Array.for_all (fun x -> x = 0L) oa then
                    (Known (uniform gang), Psmt.Facts.top)
                  else (Known Varying, Psmt.Facts.top)))
      | Fbin (_, a, b) | Fcmp (_, a, b) -> (
          match (cell_of_operand a, cell_of_operand b) with
          | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
          | Known sa, Known sb ->
              if is_uniform sa && is_uniform sb then
                (Known (uniform gang), Psmt.Facts.top)
              else (Known Varying, Psmt.Facts.top))
      | Fun (_, a) -> (
          match cell_of_operand a with
          | Bot -> (Bot, Psmt.Facts.top)
          | Known s ->
              if is_uniform s then (Known (uniform gang), Psmt.Facts.top)
              else (Known Varying, Psmt.Facts.top))
      | Icmp (_, a, b) -> (
          match (cell_of_operand a, cell_of_operand b) with
          | Bot, _ | _, Bot -> (Bot, Psmt.Facts.top)
          | Known sa, Known sb ->
              if is_uniform sa && is_uniform sb then
                (Known (uniform gang), Psmt.Facts.top)
              else (Known Varying, Psmt.Facts.top))
      | Select (c, a, b) -> (
          match (cell_of_operand c, cell_of_operand a, cell_of_operand b) with
          | Bot, _, _ | _, Bot, _ | _, _, Bot -> (Bot, Psmt.Facts.top)
          | Known sc, Known sa, Known sb ->
              if is_uniform sc then
                match join_shape (Known sa) (Known sb) with
                | Known (Indexed o) ->
                    ( Known (Indexed o),
                      Psmt.Facts.join (facts_of_operand a) (facts_of_operand b) )
                | s -> (s, Psmt.Facts.top)
              else (Known Varying, Psmt.Facts.top))
      | Cast (k, a, _) -> (
          match cell_of_operand a with
          | Bot -> (Bot, Psmt.Facts.top)
          | Known Varying -> (Known Varying, Psmt.Facts.top)
          | Known (Indexed oa) -> (
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
                  if Psmt.Facts.max_plus_fits fa max_off src_w then
                    (Known (Indexed oa), fr)
                  else if Array.for_all (fun x -> x = 0L) oa then
                    (Known (uniform gang), fr)
                  else (Known Varying, Psmt.Facts.top)
              | SExt ->
                  (* sound when base + max offset stays in the
                     non-negative signed range at the source width *)
                  let max_off = Psmt.Rules.max_offset src_w oa in
                  if Psmt.Facts.max_plus_fits fa max_off (src_w - 1) then
                    (Known (Indexed oa), fr)
                  else if Array.for_all (fun x -> x = 0L) oa then
                    (Known (uniform gang), fr)
                  else (Known Varying, Psmt.Facts.top)
              | _ ->
                  if Array.for_all (fun x -> x = 0L) oa then
                    (Known (uniform gang), Psmt.Facts.top)
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
          | Known (Indexed op_), Known s when is_uniform s ->
              (Known (Indexed op_), Psmt.Facts.top)
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
              (Known (uniform gang), Psmt.Facts.top)
          | Known _ -> (Known Varying, Psmt.Facts.top))
      | Store _ | VStore _ | Scatter _ -> (Known (uniform gang), Psmt.Facts.top)
      | Call (name, args) ->
          if name = Pir.Intrinsics.lane_num then
            (Known (lane_iota gang), Psmt.Facts.of_const 64 0L)
          else if name = Pir.Intrinsics.gang_sync then
            (Known (uniform gang), Psmt.Facts.top)
          else if
            Pir.Intrinsics.is_math name
            && List.for_all (fun a -> is_uniform_cell (cell_of_operand a)) args
          then (Known (uniform gang), Psmt.Facts.top)
          else if
            Pir.Intrinsics.is_math name
            && List.exists (fun a -> cell_of_operand a = Bot) args
          then (Bot, Psmt.Facts.top)
          else (Known Varying, Psmt.Facts.top)
      | Phi incoming ->
          let c =
            List.fold_left
              (fun acc (_, o) -> join_shape acc (cell_of_operand o))
              Bot incoming
          in
          let fr =
            List.fold_left
              (fun acc (_, o) ->
                match acc with
                | None -> Some (facts_of_operand o)
                | Some fs -> Some (Psmt.Facts.join fs (facts_of_operand o)))
              None incoming
            |> Option.value ~default:Psmt.Facts.top
          in
          let fr = if !widen_mode then Psmt.Facts.widen fr else fr in
          (c, fr)
      | Splat _ | VLoad _ | Gather _ | Shuffle _ | ShuffleDyn _ | ExtractLane _
      | InsertLane _ | Reduce _ | FirstLane _ | Psadbw _ ->
          (* explicit vector operations only appear in already-vectorized
             code; treat as varying if they somehow occur *)
          (Known Varying, Psmt.Facts.top)
    in
    if var_forced then (Known Varying, Psmt.Facts.top) else res
  in
  (* one dataflow run to fixpoint under the current forcing set *)
  let run_dataflow () =
    Hashtbl.reset cells;
    Hashtbl.reset fcts;
    List.iter
      (fun (v, _) ->
        Hashtbl.replace cells v (Known (uniform gang));
        Hashtbl.replace fcts v Psmt.Facts.top)
      f.params;
    let pass = ref 0 in
    let changed = ref true in
    while !changed && !pass < 60 do
      incr pass;
      widen_mode := !pass > 6;
      changed := false;
      List.iter
        (fun (b : Pir.Func.block) ->
          List.iter
            (fun (i : Pir.Instr.instr) ->
              if i.ty <> Pir.Types.Void then begin
                let c, fr = transfer i in
                let c0 = Option.value ~default:Bot (Hashtbl.find_opt cells i.id) in
                let f0 =
                  Option.value ~default:Psmt.Facts.top (Hashtbl.find_opt fcts i.id)
                in
                (* monotone update: never climb back above the join *)
                let c = join_shape c0 c in
                if c <> c0 || not (Psmt.Facts.equal fr f0) then begin
                  Hashtbl.replace cells i.id c;
                  Hashtbl.replace fcts i.id fr;
                  changed := true
                end
              end)
            b.instrs)
        f.blocks
    done;
    if !changed then
      (* did not converge: conservatively mark everything varying *)
      List.iter
        (fun (b : Pir.Func.block) ->
          List.iter
            (fun (i : Pir.Instr.instr) ->
              if i.ty <> Pir.Types.Void then Hashtbl.replace cells i.id (Known Varying))
            b.instrs)
        f.blocks
  in
  (* divergence forcing loop: add constraints from varying conditionals
     and varying-exit loops until stable *)
  let shape_cell v = Option.value ~default:Bot (Hashtbl.find_opt cells v) in
  let operand_varying (o : Pir.Instr.operand) =
    match o with
    | Pir.Instr.Const _ -> false
    | Pir.Instr.Var v -> (
        match shape_cell v with Known Varying -> true | _ -> false)
  in
  let defined_in_blocks blocks =
    let s = Hashtbl.create 32 in
    List.iter
      (fun (b : Pir.Func.block) ->
        List.iter (fun (i : Pir.Instr.instr) -> Hashtbl.replace s i.id ()) b.instrs)
      blocks;
    s
  in
  let rec collect_constraints regions : (unit -> bool) list =
    List.concat_map
      (fun (r : Panalysis.Regions.region) ->
        match r with
        | Panalysis.Regions.Basic _ -> []
        | Panalysis.Regions.If { cond; then_; else_; join } ->
            let join_block = Pir.Func.find_block f join in
            let constr () =
              if operand_varying cond then
                List.fold_left
                  (fun acc (i : Pir.Instr.instr) ->
                    match i.op with
                    | Pir.Instr.Phi incoming
                      when not (Hashtbl.mem forced i.id) ->
                        let vals = List.map snd incoming in
                        let identical =
                          match vals with
                          | v :: rest -> List.for_all (Pir.Instr.equal_operand v) rest
                          | [] -> true
                        in
                        if not identical then begin
                          if Sys.getenv_opt "PSHAPES_DEBUG" <> None then
                            Fmt.epr "[shapes] forcing if-join phi %%%d@." i.id;
                          Hashtbl.replace forced i.id ();
                          true
                        end
                        else acc
                    | _ -> acc)
                  false join_block.instrs
              else false
            in
            (constr :: collect_constraints then_) @ collect_constraints else_
        | Panalysis.Regions.Loop { header; cond; body; _ } ->
            let body_blocks = Panalysis.Regions.blocks_of_regions body in
            let loop_defs = defined_in_blocks (header :: body_blocks) in
            let constr () =
              if operand_varying cond then begin
                let any = ref false in
                (* loop-carried phis *)
                List.iter
                  (fun (i : Pir.Instr.instr) ->
                    match i.op with
                    | Pir.Instr.Phi _ when not (Hashtbl.mem forced i.id) ->
                        if Sys.getenv_opt "PSHAPES_DEBUG" <> None then
                          Fmt.epr "[shapes] forcing loop phi %%%d (cond varying)@." i.id;
                        Hashtbl.replace forced i.id ();
                        any := true
                    | _ -> ())
                  header.instrs;
                (* header-defined values live past the loop need per-lane
                   exit blending: force any loop definition that is used
                   by an instruction outside the loop *)
                let loop_block_names =
                  List.map
                    (fun (b : Pir.Func.block) -> b.bname)
                    (header :: body_blocks)
                in
                let force_use u =
                  if Hashtbl.mem loop_defs u && not (Hashtbl.mem forced u) then begin
                    if Sys.getenv_opt "PSHAPES_DEBUG" <> None then
                      Fmt.epr "[shapes] forcing live-out %%%d@." u;
                    Hashtbl.replace forced u ();
                    any := true
                  end
                in
                List.iter
                  (fun (b : Pir.Func.block) ->
                    if not (List.mem b.bname loop_block_names) then begin
                      List.iter
                        (fun (i : Pir.Instr.instr) ->
                          List.iter force_use (Pir.Instr.uses_of_op i.op))
                        b.instrs;
                      List.iter
                        (function Pir.Instr.Var u -> force_use u | _ -> ())
                        (Pir.Instr.operands_of_term b.term)
                    end)
                  f.blocks;
                !any
              end
              else false
            in
            constr :: collect_constraints body)
      regions
  in
  let constraints = collect_constraints regions in
  let rec iterate n =
    run_dataflow ();
    if Sys.getenv_opt "PSHAPES_NOFORCE" <> None then ()
    else
      let changed = List.fold_left (fun acc c -> if c () then true else acc) false constraints in
      if changed && n < 20 then iterate (n + 1)
  in
  iterate 0;
  (* export *)
  Pir.Func.iter_instrs f (fun _ i ->
      if i.ty <> Pir.Types.Void then begin
        (match shape_cell i.id with
        | Bot ->
            (* unreachable / dead value: any classification is sound *)
            Hashtbl.replace info.shapes i.id (uniform gang)
        | Known s -> Hashtbl.replace info.shapes i.id s);
        Hashtbl.replace info.facts i.id
          (Option.value ~default:Psmt.Facts.top (Hashtbl.find_opt fcts i.id))
      end);
  List.iter
    (fun (v, _) ->
      Hashtbl.replace info.shapes v (uniform gang);
      Hashtbl.replace info.facts v Psmt.Facts.top)
    f.params;
  info
