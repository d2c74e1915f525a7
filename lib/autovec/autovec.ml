(** Classic loop auto-vectorization — the baseline the paper compares
    against (LLVM's default loop + SLP pipeline at -O3).

    This is intentionally a faithful model of what production loop
    vectorizers can and cannot do on serial code (paper §2):

    - only innermost, single-block, unit-step counted loops vectorize;
    - memory legality needs provable independence: distinct [restrict]
      parameters, or same-base accesses with equal affine offsets;
    - loop-carried dependences (Listing 1's [a[i+1] = a[i]]) reject
      vectorization;
    - internal control flow rejects vectorization (pure conditionals
      that lowered to selects are fine — LLVM if-converts those too);
    - simple add/min/max reductions are supported;
    - the vector factor follows the widest-type rule
      ([machine bits / widest element]), the behavior that motivates
      Parsimony's per-region gang size (paper §1);
    - a scalar remainder loop handles the tail.

    The serial semantics also mean no horizontal operations can ever be
    expressed — the fundamental limitation Parsimony's SPMD model
    removes. *)

open Pir

type reason =
  | Not_innermost
  | Control_flow
  | No_induction
  | Unsupported_phi
  | Non_unit_step
  | Bad_bound
  | May_alias of string
  | Loop_carried of string
  | Unsupported_instr of string
  | Live_out of int
  | Too_narrow

let reason_to_string = function
  | Not_innermost -> "not an innermost loop"
  | Control_flow -> "internal control flow"
  | No_induction -> "no unit-step induction variable"
  | Unsupported_phi -> "unsupported loop-carried value"
  | Non_unit_step -> "induction step is not 1"
  | Bad_bound -> "unsupported loop bound"
  | May_alias s -> "possible aliasing: " ^ s
  | Loop_carried s -> "loop-carried dependence: " ^ s
  | Unsupported_instr s -> "unsupported instruction: " ^ s
  | Live_out v -> Fmt.str "unsupported loop live-out %%%d" v
  | Too_narrow -> "vector factor below 2"

type loop_result = { header : string; outcome : (int, reason) result }

type report = { func : string; loops : loop_result list }

let vectorized_loops r =
  List.filter_map
    (fun l -> match l.outcome with Ok vf -> Some (l.header, vf) | _ -> None)
    r.loops

exception Reject of reason

let reject r = raise (Reject r)

(* -- helpers -- *)

let machine_bits = 512

type offset = OInv of Instr.operand | OIv of int64
(* address index classes: loop-invariant, or iv + constant *)

type access = {
  akind : [ `Load | `Store ];
  base : Instr.operand;  (** loop-invariant pointer *)
  off : offset;
  order : int;  (** position in the body, for same-iteration ordering *)
}

(* a loop-invariant operand: constant, parameter, or defined outside *)
let invariant ~in_loop (o : Instr.operand) =
  match o with
  | Instr.Const _ -> true
  | Instr.Var v -> not (Hashtbl.mem in_loop v)

let noalias_param (f : Func.t) (o : Instr.operand) =
  match o with
  | Instr.Var v -> List.mem v f.noalias
  | _ -> false

let is_param (f : Func.t) (o : Instr.operand) =
  match o with
  | Instr.Var v -> List.mem_assoc v f.params
  | _ -> false

(* -- per-loop analysis -- *)

type reduction = {
  rphi : int;
  rinit : Instr.operand;
  rupdate : int;  (** id of the update instruction *)
  rkind : Instr.reduce_kind;
}

type plan = {
  vf : int;
  iv : Panalysis.Loops.ivar;
  bound : Instr.operand;
  signed_cmp : bool;
  reductions : reduction list;
  body_block : Func.block;
  header_block : Func.block;
  preheader : string;
  exit : string;
  latch : string;
}

let analyze_loop (f : Func.t) (cfg : Panalysis.Cfg.t) (loops : Panalysis.Loops.t)
    (l : Panalysis.Loops.loop) : plan =
  (* innermost, and shaped header + single body block *)
  if
    not
      (List.for_all
         (fun n -> n = l.Panalysis.Loops.header || not (Panalysis.Loops.is_header loops n))
         l.body)
  then reject Not_innermost;
  let header_block = Panalysis.Cfg.block cfg l.header in
  let body_names = List.filter (fun n -> n <> l.header) l.body in
  let body_block =
    match body_names with
    | [ n ] -> Panalysis.Cfg.block cfg n
    | _ -> reject Control_flow
  in
  (match Func.successors body_block with
  | [ h ] when h = l.header -> ()
  | _ -> reject Control_flow);
  let exit =
    match l.exits with
    | [ (n, x) ] when n = l.header -> x
    | _ -> reject Control_flow
  in
  let preheader =
    match
      List.filter (fun p -> not (List.mem p l.body)) (Panalysis.Cfg.preds cfg l.header)
    with
    | [ p ] -> p
    | _ -> reject Control_flow
  in
  (* in-loop definitions *)
  let in_loop = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.instr) -> Hashtbl.replace in_loop i.id ())
    (header_block.instrs @ body_block.instrs);
  (* induction variable *)
  let ivs = Panalysis.Loops.induction_vars cfg l in
  let iv =
    match List.filter (fun iv -> iv.Panalysis.Loops.step = 1L) ivs with
    | [ iv ] -> iv
    | [] -> reject (if ivs = [] then No_induction else Non_unit_step)
    | iv :: _ -> iv
  in
  (* bound: header terminator is icmp lt iv, bound *)
  let bound, signed_cmp =
    match header_block.term with
    | Instr.CondBr (Instr.Var c, t, _) when List.mem t l.body -> (
        let cond_instr =
          List.find_opt (fun (i : Instr.instr) -> i.id = c) header_block.instrs
        in
        match cond_instr with
        | Some { op = Instr.Icmp (Instr.Slt, Instr.Var v, b); _ } when v = iv.phi ->
            if invariant ~in_loop b then (b, true) else reject Bad_bound
        | Some { op = Instr.Icmp (Instr.Ult, Instr.Var v, b); _ } when v = iv.phi ->
            if invariant ~in_loop b then (b, false) else reject Bad_bound
        | _ -> reject Bad_bound)
    | _ -> reject Bad_bound
  in
  (* other header phis must be recognizable reductions *)
  let phis =
    List.filter
      (fun (i : Instr.instr) ->
        match i.op with Instr.Phi _ -> true | _ -> false)
      header_block.instrs
  in
  let body_uses = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.instr) ->
      List.iter
        (fun u ->
          Hashtbl.replace body_uses u
            (i.id :: Option.value ~default:[] (Hashtbl.find_opt body_uses u)))
        (Instr.uses_of_op i.op))
    (header_block.instrs @ body_block.instrs);
  let reductions =
    List.filter_map
      (fun (p : Instr.instr) ->
        if p.id = iv.phi then None
        else
          match p.op with
          | Instr.Phi incoming -> (
              let init =
                match
                  List.find_opt (fun (lb, _) -> not (List.mem lb l.body)) incoming
                with
                | Some (_, v) -> v
                | None -> reject Unsupported_phi
              in
              let upd =
                match
                  List.find_opt (fun (lb, _) -> List.mem lb l.body) incoming
                with
                | Some (_, Instr.Var u) -> u
                | _ -> reject Unsupported_phi
              in
              let upd_instr =
                match
                  List.find_opt
                    (fun (i : Instr.instr) -> i.id = upd)
                    body_block.instrs
                with
                | Some i -> i
                | None -> reject Unsupported_phi
              in
              let rkind =
                match upd_instr.op with
                | Instr.Ibin (Instr.Add, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RAdd
                | Instr.Fbin (Instr.FAdd, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RFAdd
                | Instr.Ibin (Instr.SMin, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RSMin
                | Instr.Ibin (Instr.SMax, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RSMax
                | Instr.Ibin (Instr.UMin, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RUMin
                | Instr.Ibin (Instr.UMax, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RUMax
                | Instr.Fbin (Instr.FMin, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RFMin
                | Instr.Fbin (Instr.FMax, a, b)
                  when a = Instr.Var p.id || b = Instr.Var p.id ->
                    Instr.RFMax
                | _ -> reject Unsupported_phi
              in
              (* the phi feeds only its update; the update feeds only the
                 phi (plus uses after the loop) *)
              let uses_of v =
                Option.value ~default:[] (Hashtbl.find_opt body_uses v)
              in
              if List.exists (fun u -> u <> upd) (uses_of p.id) then
                reject Unsupported_phi;
              if List.exists (fun u -> u <> p.id) (uses_of upd) then
                reject Unsupported_phi;
              Some { rphi = p.id; rinit = init; rupdate = upd; rkind })
          | _ -> None)
      phis
  in
  (* iv and reduction live-outs are fine (handled by the remainder loop
     structure); anything else defined in the loop must not escape *)
  Func.iter_instrs f (fun b i ->
      if not (List.mem b.bname l.body) then
        List.iter
          (fun u ->
            if Hashtbl.mem in_loop u && u <> iv.phi then
              if not (List.exists (fun r -> r.rphi = u) reductions) then
                reject (Live_out u))
          (Instr.uses_of_op i.op));
  (* classify instructions and memory accesses; compute widest type.
     The widest-type rule counts loaded/stored elements and the compute
     feeding stored values, but not induction or address arithmetic
     (which stays scalar), matching LLVM's VF selection. *)
  let widest = ref 8 in
  let see_ty (ty : Types.t) =
    match ty with
    | Types.Scalar s when s <> Types.I1 ->
        widest := max !widest (Types.scalar_bits s)
    | _ -> ()
  in
  let body_defs = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.instr) -> Hashtbl.replace body_defs i.id i)
    body_block.instrs;
  let counted = Hashtbl.create 32 in
  let rec count_value (o : Instr.operand) =
    match o with
    | Instr.Const _ -> ()
    | Instr.Var v when v = iv.phi || not (Hashtbl.mem in_loop v) -> ()
    | Instr.Var v -> (
        if not (Hashtbl.mem counted v) then begin
          Hashtbl.replace counted v ();
          match Hashtbl.find_opt body_defs v with
          | None -> ()
          | Some i -> (
              see_ty i.ty;
              match i.op with
              | Instr.Load _ -> () (* memory width already counted *)
              | op -> List.iter count_value (Instr.operands_of_op op))
        end)
  in
  List.iter
    (fun (i : Instr.instr) ->
      match i.op with
      | Instr.Load _ -> see_ty i.ty
      | Instr.Store (v, _) ->
          see_ty (Func.ty_of_operand f v);
          count_value v
      | _ -> ())
    body_block.instrs;
  List.iter (fun r -> count_value (Instr.Var r.rupdate)) reductions;
  let rec iv_expr (o : Instr.operand) : offset option =
    (* iv, iv + c, c + iv, iv' (= iv + 1) *)
    match o with
    | Instr.Var v when v = iv.phi -> Some (OIv 0L)
    | Instr.Var v when v = iv.next -> Some (OIv iv.step)
    | Instr.Var v -> (
        match
          List.find_opt (fun (i : Instr.instr) -> i.id = v) body_block.instrs
        with
        | Some { op = Instr.Ibin (Instr.Add, Instr.Var p, Instr.Const (Instr.Cint (_, c))); _ }
          when p = iv.phi ->
            Some (OIv c)
        | Some { op = Instr.Ibin (Instr.Add, Instr.Const (Instr.Cint (_, c)), Instr.Var p); _ }
          when p = iv.phi ->
            Some (OIv c)
        | Some
            { op = Instr.Cast ((Instr.SExt | Instr.ZExt | Instr.Trunc), inner, _); _ }
          -> (
            (* casts of iv expressions are common (index widening) *)
            match iv_expr inner with Some o -> Some o | None -> None)
        | _ -> if invariant ~in_loop o then Some (OInv o) else None)
    | Instr.Const _ -> Some (OInv o)
  in
  let accesses = ref [] in
  let order = ref 0 in
  List.iter
    (fun (i : Instr.instr) ->
      incr order;
      let classify_addr (p : Instr.operand) akind =
        match p with
        | _ when invariant ~in_loop p ->
            accesses := { akind; base = p; off = OInv (Instr.ci64 0); order = !order } :: !accesses
        | Instr.Var pv -> (
            match
              List.find_opt (fun (j : Instr.instr) -> j.id = pv) body_block.instrs
            with
            | Some { op = Instr.Gep (base, idx); _ } when invariant ~in_loop base
              -> (
                match iv_expr idx with
                | Some off -> accesses := { akind; base; off; order = !order } :: !accesses
                | None -> reject (Unsupported_instr "non-affine address"))
            | _ -> reject (Unsupported_instr "unanalyzable address"))
        | _ -> reject (Unsupported_instr "unanalyzable address")
      in
      match i.op with
      | Instr.Load p -> classify_addr p `Load
      | Instr.Store (_, p) -> classify_addr p `Store
      | Instr.Ibin _ | Instr.Fbin _ | Instr.Iun _ | Instr.Fun _ | Instr.Icmp _
      | Instr.Fcmp _ | Instr.Select _ | Instr.Cast _ | Instr.Gep _ ->
          ()
      | Instr.Call (n, _) when Intrinsics.is_math n ->
          (* clang -O3 without -fveclib does not vectorize loops that
             call libm (no vector ABI available) — the reason the
             paper's baseline stays scalar on the math-heavy ispc
             benchmarks *)
          reject (Unsupported_instr ("math library call " ^ n))
      | Instr.Phi _ -> reject Unsupported_phi
      | op -> reject (Unsupported_instr (Fmt.str "%a" Printer.pp_op op)))
    body_block.instrs;
  (* dependence tests *)
  let accesses = List.rev !accesses in
  List.iter
    (fun (st : access) ->
      if st.akind = `Store then
        List.iter
          (fun (other : access) ->
            if other != st then
              if st.base = other.base then begin
                (* same base: require identical iv offsets, and
                   loads before the store within the iteration *)
                match (st.off, other.off) with
                | OIv k1, OIv k2 when k1 = k2 ->
                    if other.akind = `Load && other.order > st.order then
                      reject (Loop_carried "read after write to the same address")
                | OIv _, OIv _ ->
                    reject (Loop_carried "accesses at different offsets of the same array")
                | _ -> reject (Loop_carried "mixed invariant/affine access to stored array")
              end
              else begin
                (* distinct bases: need restrict to prove independence *)
                let provably_disjoint =
                  is_param f st.base && is_param f other.base
                  && st.base <> other.base
                  && (noalias_param f st.base || noalias_param f other.base)
                in
                if not provably_disjoint then
                  reject
                    (May_alias
                       (Fmt.str "store base %a vs %a" Printer.pp_operand st.base
                          Printer.pp_operand other.base))
              end)
          accesses)
    accesses;
  (* stores to invariant addresses are loop-carried *)
  List.iter
    (fun (a : access) ->
      if a.akind = `Store && a.off = OInv (Instr.ci64 0) && invariant ~in_loop a.base
      then ()
      )
    accesses;
  let vf = machine_bits / !widest in
  if vf < 2 then reject Too_narrow;
  {
    vf;
    iv;
    bound;
    signed_cmp;
    reductions;
    body_block;
    header_block;
    preheader;
    exit = (ignore exit; exit);
    latch = body_block.bname;
  }

(* -- transformation (in place, on a function the caller owns) -- *)

let transform_loop (f : Func.t) (plan : plan) : unit =
  let vf = plan.vf in
  let name_suffix = plan.header_block.bname in
  (* the vector loop's blocks go after the function's own *)
  let b = Builder.create ~entry:("avx.pre." ^ name_suffix) f in
  let vp = Builder.current b in
  let vh = Builder.add_block b ("avx.hdr." ^ name_suffix) in
  let vb = Builder.add_block b ("avx.body." ^ name_suffix) in
  let vx = Builder.add_block b ("avx.exit." ^ name_suffix) in
  let ins = Builder.ins b in
  let ty_of = Builder.ty_of b in
  let iv_ty = ty_of (Instr.Var plan.iv.phi) in
  let iv_scalar = Types.elem iv_ty in
  let c_iv v = Instr.cint iv_scalar (Int64.of_int v) in
  (* vec preheader: vbound = init + (max(bound - init, 0) & ~(VF-1)) *)
  let init = plan.iv.init in
  let span =
    if plan.signed_cmp then
      let d = ins iv_ty (Instr.Ibin (Instr.Sub, plan.bound, init)) in
      ins iv_ty (Instr.Ibin (Instr.SMax, d, c_iv 0))
    else ins iv_ty (Instr.Ibin (Instr.USubSat, plan.bound, init))
  in
  let nvec =
    ins iv_ty (Instr.Ibin (Instr.And, span, Instr.cint iv_scalar (Int64.of_int (lnot (vf - 1)))))
  in
  let vbound = ins iv_ty (Instr.Ibin (Instr.Add, init, nvec)) in
  (* reduction accumulator initial vectors *)
  let red_inits =
    List.map
      (fun r ->
        let rty = ty_of (Instr.Var r.rphi) in
        let s = Types.elem rty in
        match r.rkind with
        | Instr.RAdd ->
            (* [init, 0, 0, ...] *)
            let zero = Instr.cvec s (Array.make vf 0L) in
            ins (Types.Vec (s, vf)) (Instr.InsertLane (zero, r.rinit, Instr.ci32 0))
        | Instr.RFAdd ->
            let zero =
              ins (Types.Vec (s, vf))
                (Instr.Splat (Instr.Const (Instr.Cfloat (s, 0.0)), vf))
            in
            ins (Types.Vec (s, vf)) (Instr.InsertLane (zero, r.rinit, Instr.ci32 0))
        | _ -> ins (Types.Vec (s, vf)) (Instr.Splat (r.rinit, vf)))
      plan.reductions
  in
  Builder.br b vh.bname;
  (* vector header *)
  Builder.position b vh;
  let viv = ins iv_ty (Instr.Phi [ (vp.bname, init) ]) in
  let vaccs =
    List.map2
      (fun r rinit ->
        let rty = ty_of (Instr.Var r.rphi) in
        (r, ins (Types.widen rty vf) (Instr.Phi [ (vp.bname, rinit) ])))
      plan.reductions red_inits
  in
  let vc =
    ins Types.bool_
      (Instr.Icmp ((if plan.signed_cmp then Instr.Slt else Instr.Ult), viv, vbound))
  in
  Builder.condbr b vc vb.bname vx.bname;
  (* vector body *)
  Builder.position b vb;
  let vmap : (int, Instr.operand) Hashtbl.t = Hashtbl.create 32 in
  let in_loop = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.instr) -> Hashtbl.replace in_loop i.id ())
    (plan.header_block.instrs @ plan.body_block.instrs);
  (* vector form of an operand *)
  let rec vec_of (o : Instr.operand) : Instr.operand =
    match o with
    | Instr.Const (Instr.Cint (s, v)) -> Instr.cvec s (Array.make vf v)
    | Instr.Const (Instr.Cfloat (_, _)) -> ins (Types.widen (ty_of o) vf) (Instr.Splat (o, vf))
    | Instr.Const (Instr.Cvec _) -> o
    | Instr.Var v when v = plan.iv.phi ->
        let s = iv_scalar in
        let base = ins (Types.Vec (s, vf)) (Instr.Splat (viv, vf)) in
        ins (Types.Vec (s, vf))
          (Instr.Ibin (Instr.Add, base, Instr.cvec s (Array.init vf Int64.of_int)))
    | Instr.Var v when v = plan.iv.next ->
        let s = iv_scalar in
        let base = ins (Types.Vec (s, vf)) (Instr.Splat (viv, vf)) in
        ins (Types.Vec (s, vf))
          (Instr.Ibin
             (Instr.Add, base, Instr.cvec s (Array.init vf (fun l -> Int64.of_int (l + 1)))))
    | Instr.Var v when Hashtbl.mem vmap v -> Hashtbl.find vmap v
    | Instr.Var v when not (Hashtbl.mem in_loop v) ->
        ins (Types.widen (ty_of o) vf) (Instr.Splat (o, vf))
    | Instr.Var v -> (
        (* body instruction not yet mapped: cast chains over the iv *)
        match
          List.find_opt (fun (i : Instr.instr) -> i.id = v) plan.body_block.instrs
        with
        | Some i ->
            vectorize_instr i;
            Hashtbl.find vmap v
        | None -> invalid_arg "Autovec: unmapped operand")
  and scalar_addr (idx : Instr.operand) (k : int64) base =
    (* address of lanes: gep base (idx_scalar + k) where idx is the iv *)
    ignore idx;
    let off = ins iv_ty (Instr.Ibin (Instr.Add, viv, Instr.cint iv_scalar k)) in
    ins (ty_of base) (Instr.Gep (base, off))
  and vectorize_instr (i : Instr.instr) : unit =
    if Hashtbl.mem vmap i.id then ()
    else
      match i.op with
      | Instr.Ibin (k, a, b) ->
          Hashtbl.replace vmap i.id
            (ins (Types.widen i.ty vf) (Instr.Ibin (k, vec_of a, vec_of b)))
      | Instr.Fbin (k, a, b) ->
          Hashtbl.replace vmap i.id
            (ins (Types.widen i.ty vf) (Instr.Fbin (k, vec_of a, vec_of b)))
      | Instr.Iun (k, a) ->
          Hashtbl.replace vmap i.id
            (ins (Types.widen i.ty vf) (Instr.Iun (k, vec_of a)))
      | Instr.Fun (k, a) ->
          Hashtbl.replace vmap i.id
            (ins (Types.widen i.ty vf) (Instr.Fun (k, vec_of a)))
      | Instr.Icmp (k, a, b) ->
          Hashtbl.replace vmap i.id
            (ins (Types.Vec (Types.I1, vf)) (Instr.Icmp (k, vec_of a, vec_of b)))
      | Instr.Fcmp (k, a, b) ->
          Hashtbl.replace vmap i.id
            (ins (Types.Vec (Types.I1, vf)) (Instr.Fcmp (k, vec_of a, vec_of b)))
      | Instr.Select (c, a, b) ->
          Hashtbl.replace vmap i.id
            (ins (Types.widen i.ty vf) (Instr.Select (vec_of c, vec_of a, vec_of b)))
      | Instr.Cast (k, a, _) ->
          let target = Types.widen i.ty vf in
          Hashtbl.replace vmap i.id (ins target (Instr.Cast (k, vec_of a, target)))
      | Instr.Gep _ -> () (* consumed by load/store handling *)
      | Instr.Load p -> (
          let lty = Types.widen i.ty vf in
          match p with
          | _ when invariant ~in_loop p ->
              let s = ins i.ty (Instr.Load p) in
              Hashtbl.replace vmap i.id (ins lty (Instr.Splat (s, vf)))
          | Instr.Var pv -> (
              match
                List.find_opt
                  (fun (j : Instr.instr) -> j.id = pv)
                  plan.body_block.instrs
              with
              | Some { op = Instr.Gep (base, idx); _ } -> (
                  match classify_iv_offset idx with
                  | Some (OIv k) ->
                      let addr = scalar_addr idx k base in
                      Hashtbl.replace vmap i.id (ins lty (Instr.VLoad (addr, None)))
                  | Some (OInv _) ->
                      let a = ins (ty_of base) (Instr.Gep (base, idx)) in
                      let s = ins i.ty (Instr.Load a) in
                      Hashtbl.replace vmap i.id (ins lty (Instr.Splat (s, vf)))
                  | None -> invalid_arg "Autovec: unplanned address")
              | _ -> invalid_arg "Autovec: unplanned load")
          | _ -> invalid_arg "Autovec: unplanned load")
      | Instr.Store (v, p) -> (
          match p with
          | Instr.Var pv -> (
              match
                List.find_opt
                  (fun (j : Instr.instr) -> j.id = pv)
                  plan.body_block.instrs
              with
              | Some { op = Instr.Gep (base, idx); _ } -> (
                  match classify_iv_offset idx with
                  | Some (OIv k) ->
                      let addr = scalar_addr idx k base in
                      ignore (ins Types.Void (Instr.VStore (vec_of v, addr, None)))
                  | _ -> invalid_arg "Autovec: unplanned store")
              | _ -> invalid_arg "Autovec: unplanned store")
          | _ -> invalid_arg "Autovec: unplanned store")
      | op -> invalid_arg (Fmt.str "Autovec: unplanned %a" Printer.pp_op op)
  and classify_iv_offset (idx : Instr.operand) : offset option =
    match idx with
    | Instr.Var v when v = plan.iv.phi -> Some (OIv 0L)
    | Instr.Var v when v = plan.iv.next -> Some (OIv plan.iv.step)
    | Instr.Var v -> (
        match
          List.find_opt (fun (i : Instr.instr) -> i.id = v) plan.body_block.instrs
        with
        | Some { op = Instr.Ibin (Instr.Add, Instr.Var p, Instr.Const (Instr.Cint (_, c))); _ }
          when p = plan.iv.phi ->
            Some (OIv c)
        | Some { op = Instr.Ibin (Instr.Add, Instr.Const (Instr.Cint (_, c)), Instr.Var p); _ }
          when p = plan.iv.phi ->
            Some (OIv c)
        | Some { op = Instr.Cast ((Instr.SExt | Instr.ZExt | Instr.Trunc), inner, _); _ } ->
            classify_iv_offset inner
        | _ -> if invariant ~in_loop idx then Some (OInv idx) else None)
    | Instr.Const _ -> Some (OInv idx)
  in
  (* reductions are mapped to their vector accumulators before walking *)
  List.iter
    (fun (r, acc) -> Hashtbl.replace vmap r.rphi acc)
    vaccs;
  List.iter
    (fun (i : Instr.instr) ->
      (* skip the iv update (it stays scalar) *)
      if i.id <> plan.iv.next then vectorize_instr i)
    plan.body_block.instrs;
  let viv' = ins iv_ty (Instr.Ibin (Instr.Add, viv, c_iv vf)) in
  Builder.br b vh.bname;
  (* patch vector header phis with latch values *)
  (match viv with
  | Instr.Var id -> Builder.add_incoming b vh id [ (vb.bname, viv') ]
  | _ -> assert false);
  List.iter
    (fun (r, acc) ->
      match acc with
      | Instr.Var id ->
          Builder.add_incoming b vh id [ (vb.bname, Hashtbl.find vmap r.rupdate) ]
      | _ -> assert false)
    vaccs;
  (* vector exit: fold accumulators, branch to the scalar remainder *)
  Builder.position b vx;
  let reduced =
    List.map
      (fun (r, acc) ->
        let rty = ty_of (Instr.Var r.rphi) in
        (r, ins rty (Instr.Reduce (r.rkind, acc))))
      vaccs
  in
  Builder.br b plan.header_block.bname;
  Builder.finish b;
  (* rewire: preheader branches to the vector preheader; the original
     loop becomes the remainder, starting at vbound with the reduced
     accumulators *)
  let ph = Func.find_block f plan.preheader in
  let retarget l = if l = plan.header_block.bname then vp.bname else l in
  ph.term <-
    (match ph.term with
    | Instr.Br l -> Instr.Br (retarget l)
    | Instr.CondBr (c, a, b) -> Instr.CondBr (c, retarget a, retarget b)
    | t -> t);
  (* original header phis: the outside incoming now comes from vx *)
  plan.header_block.instrs <-
    List.map
      (fun (i : Instr.instr) ->
        match i.op with
        | Instr.Phi incoming ->
            let incoming =
              List.map
                (fun (lb, v) ->
                  if lb = plan.preheader then
                    if i.id = plan.iv.phi then (vx.bname, viv)
                    else
                      match List.find_opt (fun (r, _) -> r.rphi = i.id) reduced with
                      | Some (_, red) -> (vx.bname, red)
                      | None -> (vx.bname, v)
                  else (lb, v))
                incoming
            in
            { i with op = Instr.Phi incoming }
        | _ -> i)
      plan.header_block.instrs

(* -- driver -- *)

(** Attempt to auto-vectorize every innermost loop of [f], in place.
    Returns the per-loop outcomes. *)
let run_func (f : Func.t) : report =
  let cfg = Panalysis.Cfg.build f in
  let loops = Panalysis.Loops.find cfg in
  let results =
    List.map
      (fun l ->
        match analyze_loop f cfg loops l with
        | plan ->
            transform_loop f plan;
            Pobs.Remarks.(emit Passed ~pass:"autovec" ~func:f.fname)
              "loop at %s: vectorized with VF=%d" l.Panalysis.Loops.header
              plan.vf;
            { header = l.Panalysis.Loops.header; outcome = Ok plan.vf }
        | exception Reject r ->
            Pobs.Remarks.(emit Missed ~pass:"autovec" ~func:f.fname)
              "loop at %s: not vectorized (%s)" l.Panalysis.Loops.header
              (reason_to_string r);
            { header = l.Panalysis.Loops.header; outcome = Error r })
      (Panalysis.Loops.innermost loops)
  in
  { func = f.fname; loops = results }

(** Auto-vectorize all non-SPMD functions of a module, in place. *)
let run_module (m : Func.modul) : report list =
  Pobs.Trace.with_span ~cat:"pass" "autovec" (fun () ->
      List.filter_map
        (fun f -> if f.Func.spmd = None then Some (run_func f) else None)
        m.funcs)

let pp_report ppf r =
  Fmt.pf ppf "%s:" r.func;
  List.iter
    (fun l ->
      match l.outcome with
      | Ok vf -> Fmt.pf ppf "@ %s: vectorized VF=%d" l.header vf
      | Error e -> Fmt.pf ppf "@ %s: not vectorized (%s)" l.header (reason_to_string e))
    r.loops
