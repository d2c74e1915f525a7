(** Superword-level-parallelism packing over straight-line PIR regions
    (ROADMAP item 3, after goSLP).

    Where the Parsimony vectorizer widens an SPMD region across the
    gang, this pass finds *within one thread of control* groups of
    isomorphic, independent scalar statements and packs them into the
    existing vector operations: runs of adjacent scalar loads/stores
    become [VLoad]/[VStore], and the isomorphic arithmetic chains they
    feed become lane-parallel vector arithmetic.  It is the strategy
    that serves straight-line/unrolled kernel bodies — interleaved-pixel
    loops, ATen-style unrolled reduction columns, the fuzz generator's
    [straightline] preset — which are structurally invisible to a loop
    vectorizer.

    Seeding and legality reuse the dataflow stack: adjacency of memory
    operations is proven with {!Pdataflow.Range} affine forms (two
    addresses with identical opaque terms and lane coefficients differ
    by a compile-time byte offset), independence with
    {!Pdataflow.Alias} roots, and scheduling legality by contracting
    each pack into a super-node of the block dependence graph and
    rejecting any pack set whose contraction creates a cycle.

    Pairing is goSLP-style and global: every candidate pack window (plus
    its grown use-def chain) is scored with the machine cost model's
    reciprocal throughputs, and the best pairwise-compatible subset is
    picked by bounded exhaustive search over the conflict groups,
    standing in for goSLP's ILP solver.  The classic greedy bottom-up
    choices are always in the candidate set, and a conflict group whose
    search exceeds its budget falls back to them, so the selection is
    never worse than greedy under the cost model.

    Selection finishes with a schedule gate: the packed block is
    re-scored under the machine's actual block schedule
    ([max(Σ rthr, critical path)], {!Pmachine.Cost.block_base}) and
    bundles are dropped, weakest first, until packing is not a
    regression — the per-bundle rthr saving alone cannot see a
    lengthened critical path (e.g. an insert chain feeding a store
    where the scalar stores issued in parallel).

    The pass never reorders lanes and never reassociates arithmetic:
    lane [j] of every vector value computes exactly the [j]-th scalar
    statement of the pack, so the transformed function is bit-identical
    to the original — which is what lets the differential fuzzer and
    the translation validator compare it exactly against the serial
    reference. *)

open Pir

type report = {
  func : string;
  mutable packs : int;  (** vector packs committed *)
  mutable packed_instrs : int;  (** scalar instructions replaced by packs *)
  mutable packed_loads : int;  (** committed packs that are [VLoad]s *)
  mutable packed_stores : int;  (** committed packs that are [VStore]s *)
  mutable rejected_cost : int;  (** candidates rejected as unprofitable *)
  mutable rejected_dep : int;  (** candidates rejected by dependence cycles *)
  mutable search_capped : int;  (** conflict groups that fell back to greedy *)
  mutable est_saving : float;  (** cost-model rthr cycles saved per iteration *)
}

let fresh_report fname =
  {
    func = fname;
    packs = 0;
    packed_instrs = 0;
    packed_loads = 0;
    packed_stores = 0;
    rejected_cost = 0;
    rejected_dep = 0;
    search_capped = 0;
    est_saving = 0.0;
  }

(* widest pack the pass builds; wider runs are chunked *)
let max_lanes = 16

(* node budget for the per-conflict-group exhaustive search *)
let search_budget = 50_000

(* -- pack representation -- *)

type pkind = PLoad | PStore | PPure

type pack = {
  members : int array;  (** positions in the block instr array, lane order *)
  pkind : pkind;
}

type bundle = {
  bpacks : pack list;
  stmts : (int, unit) Hashtbl.t;  (** union of member positions *)
  mutable saving : float;
}

module ISet = Set.Make (Int)

(* -- per-function context -- *)

type ctx = {
  f : Func.t;
  rg : Pdataflow.Range.t;
  al : Pdataflow.Alias.t;
  machine : Pmachine.Cost.model;
  uses : (int, int) Hashtbl.t;  (** def id -> use count across the function *)
}

let count_use ctx = function
  | Instr.Var v ->
      Hashtbl.replace ctx.uses v
        (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.uses v))
  | Instr.Const _ -> ()

let build_uses ctx =
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          List.iter (count_use ctx) (Instr.operands_of_op i.op))
        b.Func.instrs;
      List.iter (count_use ctx) (Instr.operands_of_term b.Func.term))
    ctx.f.Func.blocks

let use_count ctx d = Option.value ~default:0 (Hashtbl.find_opt ctx.uses d)

(* -- memory facts -- *)

(* byte footprint and address operand of a memory access, when the
   instruction is one *)
let mem_access ctx (i : Instr.instr) =
  match i.op with
  | Instr.Load p -> Some (false, p, (Types.bits i.ty + 7) / 8)
  | Instr.VLoad (p, _) -> Some (false, p, (Types.bits i.ty + 7) / 8)
  | Instr.Store (v, p) ->
      Some (true, p, (Types.bits (Func.ty_of_operand ctx.f v) + 7) / 8)
  | Instr.VStore (v, p, _) ->
      Some (true, p, (Types.bits (Func.ty_of_operand ctx.f v) + 7) / 8)
  | _ -> None

(* gathers/scatters and calls order against every access *)
let is_mem_barrier (i : Instr.instr) =
  match i.op with
  | Instr.Call _ | Instr.Gather _ | Instr.Scatter _ -> true
  | _ -> false

(* Two accesses in the same thread of control are independent when their
   alias roots cannot overlap, or their affine address forms share terms
   and lane coefficient (so the byte distance is a compile-time
   constant) and the footprints are disjoint. *)
let independent ctx pa ba pb bb =
  let ra = Pdataflow.Alias.root_of ctx.al pa
  and rb = Pdataflow.Alias.root_of ctx.al pb in
  if not (Pdataflow.Alias.may_alias ctx.al ra rb) then true
  else
    match (Pdataflow.Range.aff_of ctx.rg pa, Pdataflow.Range.aff_of ctx.rg pb)
    with
    | Some x, Some y
      when Pdataflow.Range.same_terms x y
           && x.Pdataflow.Range.lane = y.Pdataflow.Range.lane ->
        let d = Int64.sub y.Pdataflow.Range.base x.Pdataflow.Range.base in
        if Int64.compare d 0L >= 0 then
          Int64.compare d (Int64.of_int ba) >= 0
        else Int64.compare (Int64.neg d) (Int64.of_int bb) >= 0
    | _ -> false

(* -- block dependence graph --

   Edges run earlier -> later: SSA def-use (phi uses are edge-borne and
   excluded), plus flow/anti/output memory dependences that the alias
   and range facts cannot refute.  Packs are contracted into super-nodes
   before the legality (acyclicity) check. *)

let build_deps ctx (arr : Instr.instr array) =
  let n = Array.length arr in
  let pos_of = Hashtbl.create (2 * n) in
  Array.iteri (fun idx (i : Instr.instr) -> Hashtbl.replace pos_of i.id idx) arr;
  let succs = Array.make n ISet.empty in
  let add i j = if i <> j then succs.(i) <- ISet.add j succs.(i) in
  for j = 0 to n - 1 do
    (match arr.(j).op with
    | Instr.Phi _ -> ()
    | op ->
        List.iter
          (fun v ->
            match Hashtbl.find_opt pos_of v with
            | Some i when i < j -> add i j
            | _ -> ())
          (Instr.uses_of_op op));
    let mj = mem_access ctx arr.(j) and bj = is_mem_barrier arr.(j) in
    if mj <> None || bj then
      for i = 0 to j - 1 do
        let mi = mem_access ctx arr.(i) and bi = is_mem_barrier arr.(i) in
        match (mi, mj) with
        | _ when (bi && (bj || mj <> None)) || (bj && mi <> None) -> add i j
        | Some (wi, pi, szi), Some (wj, pj, szj) when wi || wj ->
            if not (independent ctx pi szi pj szj) then add i j
        | _ -> ()
      done
  done;
  (pos_of, succs)

(* is the contraction of [groups] over [succs] acyclic? [group.(i)] maps
   each position to its super-node representative *)
let contraction_acyclic (succs : ISet.t array) (group : int array) =
  let n = Array.length succs in
  (* 0 = unvisited, 1 = on stack, 2 = done; DFS over representatives *)
  let state = Hashtbl.create 16 in
  let members = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let g = group.(i) in
    Hashtbl.replace members g
      (i :: Option.value ~default:[] (Hashtbl.find_opt members g))
  done;
  let rec visit g =
    match Hashtbl.find_opt state g with
    | Some 1 -> false
    | Some _ -> true
    | None ->
        Hashtbl.replace state g 1;
        let ok =
          List.for_all
            (fun i ->
              ISet.for_all
                (fun j ->
                  let gj = group.(j) in
                  gj = g || visit gj)
                succs.(i))
            (Option.value ~default:[] (Hashtbl.find_opt members g))
        in
        Hashtbl.replace state g 2;
        ok
  in
  let ok = ref true in
  for i = 0 to n - 1 do
    if !ok && not (visit group.(i)) then ok := false
  done;
  !ok

(* -- isomorphism -- *)

(* pure scalar operations the pass can widen lane-wise *)
let pure_shape (i : Instr.instr) =
  match i.op with
  | Instr.Ibin (k, _, _) -> Some (`Ibin k)
  | Instr.Fbin (k, _, _) -> Some (`Fbin k)
  | Instr.Iun (k, _) -> Some (`Iun k)
  | Instr.Fun (k, _) -> Some (`Fun k)
  | Instr.Icmp (k, _, _) -> Some (`Icmp k)
  | Instr.Fcmp (k, _, _) -> Some (`Fcmp k)
  | Instr.Select _ -> Some `Select
  | Instr.Cast (k, _, t) -> Some (`Cast (k, t))
  | _ -> None

let isomorphic (a : Instr.instr) (b : Instr.instr) =
  Types.equal a.ty b.ty
  &&
  match (pure_shape a, pure_shape b) with
  | Some sa, Some sb -> sa = sb
  | _ -> false

(* the byte address form of a memory member, for adjacency checks *)
let addr_form ctx (i : Instr.instr) =
  match i.op with
  | Instr.Load p | Instr.Store (_, p) -> (
      match (Func.ty_of_operand ctx.f p, Pdataflow.Range.aff_of ctx.rg p) with
      | Types.Ptr s, Some a -> Some (s, a)
      | _ -> None)
  | _ -> None

(* members, in lane order, must be same-kind accesses at consecutive
   addresses: identical opaque terms and lane coefficient, base
   increasing by exactly the element size *)
let adjacent_run ctx (arr : Instr.instr array) (members : int array) =
  let forms = Array.map (fun p -> addr_form ctx arr.(p)) members in
  if Array.exists (fun o -> o = None) forms then false
  else
    let get k = Option.get forms.(k) in
    let s0, _ = get 0 in
    let esz = Int64.of_int (Types.scalar_bytes s0) in
    let ok = ref true in
    for k = 0 to Array.length members - 2 do
      let sa, a = get k and sb, b = get (k + 1) in
      if
        not
          (sa = s0 && sb = s0
          && Pdataflow.Range.same_terms a b
          && a.Pdataflow.Range.lane = b.Pdataflow.Range.lane
          && Int64.sub b.Pdataflow.Range.base a.Pdataflow.Range.base = esz)
      then ok := false
    done;
    !ok

(* can [members] (positions, lane order, none of them [excluded]) form
   a pack? *)
let try_pack ctx (arr : Instr.instr array) ~excluded (members : int array) :
    pack option =
  let k = Array.length members in
  let distinct =
    let seen = Hashtbl.create k in
    Array.for_all
      (fun p ->
        if Hashtbl.mem seen p || excluded p then false
        else (
          Hashtbl.replace seen p ();
          true))
      members
  in
  if k < 2 || k > max_lanes || not distinct then None
  else
    let i0 = arr.(members.(0)) in
    let all f = Array.for_all (fun p -> f arr.(p)) members in
    (* lanes must be independent: no member may use another member *)
    let defs = Array.map (fun p -> arr.(p).id) members in
    let intra =
      Array.exists
        (fun p ->
          List.exists
            (fun v -> Array.exists (( = ) v) defs)
            (Instr.uses_of_op arr.(p).op))
        members
    in
    if intra then None
    else
      match i0.op with
      | Instr.Load _
        when all (fun i ->
                 match i.op with Instr.Load _ -> Types.is_scalar i.ty | _ -> false)
             && adjacent_run ctx arr members ->
          Some { members; pkind = PLoad }
      | Instr.Store _
        when all (fun i -> match i.op with Instr.Store _ -> true | _ -> false)
             && adjacent_run ctx arr members ->
          Some { members; pkind = PStore }
      | _
        when Types.is_scalar i0.ty
             && all (isomorphic i0)
             && all (fun i ->
                    List.for_all
                      (fun o -> Types.is_scalar (Func.ty_of_operand ctx.f o))
                      (Instr.operands_of_op i.op)) ->
          Some { members; pkind = PPure }
      | _ -> None

(* -- chain growth --

   From a seed memory pack, grow through the use-def graph: a store
   pack pulls its stored values into a pack; a pure pack pulls each
   non-uniform operand column; load and pure packs push into their
   users when every lane has exactly one in-block user and the users
   are isomorphic at the same operand position. *)

let operand_columns (arr : Instr.instr array) (p : pack) =
  let rows =
    Array.map (fun pos -> Array.of_list (Instr.operands_of_op arr.(pos).op)) p.members
  in
  let arity = Array.length rows.(0) in
  List.init arity (fun c -> Array.map (fun r -> r.(c)) rows)

let all_equal_ops (col : Instr.operand array) =
  Array.for_all (fun o -> Instr.equal_operand o col.(0)) col

let all_const (col : Instr.operand array) =
  Array.for_all (function Instr.Const _ -> true | Instr.Var _ -> false) col

let grow_bundle ctx (arr : Instr.instr array) pos_of (seed : pack) : bundle =
  let stmts = Hashtbl.create 16 in
  let packs = ref [] in
  let claim p = Array.iter (fun pos -> Hashtbl.replace stmts pos ()) p.members in
  let in_bundle pos = Hashtbl.mem stmts pos in
  let try_pack' members = try_pack ctx arr ~excluded:in_bundle members in
  (* positions in this block using def [d], with the operand position *)
  let local_users =
    lazy
      (let tbl = Hashtbl.create 32 in
       Array.iteri
         (fun pos (i : Instr.instr) ->
           match i.op with
           | Instr.Phi _ -> ()
           | op ->
               List.iteri
                 (fun c o ->
                   match o with
                   | Instr.Var v ->
                       Hashtbl.replace tbl v
                         ((pos, c)
                         :: Option.value ~default:[] (Hashtbl.find_opt tbl v))
                   | Instr.Const _ -> ())
                 (Instr.operands_of_op op))
         arr;
       tbl)
  in
  let rec add (p : pack) =
    claim p;
    packs := p :: !packs;
    (match p.pkind with
    | PStore ->
        (* column 0 of Store is the stored value *)
        grow_defs (List.hd (operand_columns arr p))
    | PPure -> List.iter grow_defs (operand_columns arr p)
    | PLoad -> ());
    match p.pkind with PLoad | PPure -> grow_users p | PStore -> ()
  and grow_defs (col : Instr.operand array) =
    if not (all_equal_ops col || all_const col) then
      let members =
        Array.map
          (fun o ->
            match o with
            | Instr.Var v -> Option.value ~default:(-1) (Hashtbl.find_opt pos_of v)
            | Instr.Const _ -> -1)
          col
      in
      if Array.for_all (fun p -> p >= 0 && not (in_bundle p)) members then
        match try_pack' members with Some p -> add p | None -> ()
  and grow_users (p : pack) =
    let users =
      Array.map
        (fun pos ->
          match Hashtbl.find_opt (Lazy.force local_users) arr.(pos).id with
          | Some [ (u, c) ] when use_count ctx arr.(pos).id = 1 -> Some (u, c)
          | _ -> None)
        p.members
    in
    if Array.for_all (fun o -> o <> None) users then
      let users = Array.map Option.get users in
      let _, c0 = users.(0) in
      if Array.for_all (fun (u, c) -> c = c0 && not (in_bundle u)) users then
        let members = Array.map fst users in
        match try_pack' members with Some p -> add p | None -> ()
  in
  add seed;
  { bpacks = List.rev !packs; stmts; saving = 0.0 }

(* -- operand formation and cost -- *)

type formation =
  | FForward of pack  (** another committed pack produces the column *)
  | FSplat of Instr.operand
  | FCvec of Types.scalar * int64 array
  | FInserts of Instr.operand array  (** splat lane 0 then insert the rest *)

let elem_scalar (i : Instr.instr) =
  match i.ty with
  | Types.Scalar s -> s
  | t -> Fmt.invalid_arg "Slp.elem_scalar: %a" Types.pp t

(* defs of a pack, in lane order *)
let pack_defs (arr : Instr.instr array) (p : pack) =
  Array.map (fun pos -> arr.(pos).id) p.members

let form_of_column (arr : Instr.instr array) (committed : pack list)
    (col : Instr.operand array) (s : Types.scalar) : formation =
  if all_const col then
    let ints =
      Array.map
        (function
          | Instr.Const (Instr.Cint (_, v)) -> Some v
          | _ -> None)
        col
    in
    if Array.for_all (fun o -> o <> None) ints then
      FCvec (s, Array.map Option.get ints)
    else if all_equal_ops col then FSplat col.(0)
    else FInserts col
  else if all_equal_ops col then FSplat col.(0)
  else
    let vars =
      Array.map (function Instr.Var v -> v | Instr.Const _ -> -1) col
    in
    match
      List.find_opt
        (fun p ->
          p.pkind <> PStore && pack_defs arr p = vars)
        committed
    with
    | Some p -> FForward p
    | None -> FInserts col

(* reciprocal throughput of a synthesized instruction; [vty] types the
   sentinel value operand a [VStore] cost needs *)
let rthr_synth ctx ?vty (op : Instr.op) (ty : Types.t) =
  let operand_ty o =
    match o with
    | Instr.Var v when v < 0 -> Option.value ~default:ty vty
    | o -> Func.ty_of_operand ctx.f o
  in
  Pmachine.Cost.rthr_of_instr ctx.machine ~operand_ty
    { Instr.id = -1; ty; op }

let formation_cost ctx (s : Types.scalar) k = function
  | FForward _ | FCvec _ -> 0.0
  | FSplat o -> rthr_synth ctx (Instr.Splat (o, k)) (Types.Vec (s, k))
  | FInserts col ->
      let vty = Types.Vec (s, k) in
      rthr_synth ctx (Instr.Splat (col.(0), k)) vty
      +. float_of_int (Array.length col - 1)
         *. rthr_synth ctx
              (Instr.InsertLane (Instr.Var (-1), col.(0), Instr.ci32 1))
              ~vty vty

(* the vector operation a pack becomes, with sentinel operands where the
   real ones are formed at emission time *)
let pack_vector_shape (arr : Instr.instr array) (p : pack) :
    Instr.op * Types.t =
  let k = Array.length p.members in
  let i0 = arr.(p.members.(0)) in
  match (p.pkind, i0.op) with
  | PLoad, Instr.Load ptr ->
      (Instr.VLoad (ptr, None), Types.Vec (elem_scalar i0, k))
  | PStore, Instr.Store (_, ptr) -> (Instr.VStore (Instr.Var (-1), ptr, None), Types.Void)
  | PPure, op ->
      let s = elem_scalar i0 in
      let vty =
        match op with
        | Instr.Icmp _ | Instr.Fcmp _ -> Types.Vec (Types.I1, k)
        | _ -> Types.Vec (s, k)
      in
      let op' = Instr.map_operands (fun _ -> Instr.Var (-1)) op in
      let op' =
        match op' with
        | Instr.Cast (ck, a, _) -> Instr.Cast (ck, a, vty)
        | o -> o
      in
      (op', vty)
  | _ -> assert false

(* value scalar kind stored by a [PStore] pack *)
let store_scalar ctx (arr : Instr.instr array) (p : pack) =
  match arr.(p.members.(0)).op with
  | Instr.Store (v, _) -> (
      match Func.ty_of_operand ctx.f v with
      | Types.Scalar s -> s
      | t -> Fmt.invalid_arg "Slp.store_scalar: %a" Types.pp t)
  | _ -> assert false

(* uses of pack members consumed by forwarding into other committed
   packs: each forwarded column consumes exactly one use per lane *)
let forwarded_uses ctx (arr : Instr.instr array) (committed : pack list) =
  let consumed = Hashtbl.create 16 in
  List.iter
    (fun (c : pack) ->
      let cols =
        match c.pkind with
        | PStore -> [ List.hd (operand_columns arr c) ]
        | PPure -> operand_columns arr c
        | PLoad -> []
      in
      List.iter
        (fun col ->
          let s =
            match c.pkind with
            | PStore -> store_scalar ctx arr c
            | _ -> elem_scalar arr.(c.members.(0))
          in
          match form_of_column arr committed col s with
          | FForward p ->
              Array.iter
                (fun pos ->
                  let d = arr.(pos).id in
                  Hashtbl.replace consumed d
                    (1 + Option.value ~default:0 (Hashtbl.find_opt consumed d)))
                p.members
          | _ -> ())
        cols)
    committed;
  consumed

(* members whose defs still have scalar consumers after forwarding: each
   needs an [ExtractLane] *)
let extracts_needed ctx (arr : Instr.instr array) (committed : pack list)
    (p : pack) =
  if p.pkind = PStore then []
  else
    let consumed = forwarded_uses ctx arr committed in
    Array.to_list p.members
    |> List.filteri (fun _ pos ->
           let d = arr.(pos).id in
           use_count ctx d
           > Option.value ~default:0 (Hashtbl.find_opt consumed d))

(* cost-model saving of [bundle]: scalar rthr replaced minus the vector
   ops, operand formation, and surviving lane extracts it adds *)
let bundle_saving ctx (arr : Instr.instr array) (b : bundle) : float =
  let committed = b.bpacks in
  let total = ref 0.0 in
  let operand_ty o = Func.ty_of_operand ctx.f o in
  List.iter
    (fun (p : pack) ->
      let k = Array.length p.members in
      let scalar =
        Array.fold_left
          (fun acc pos ->
            acc +. Pmachine.Cost.rthr_of_instr ctx.machine ~operand_ty arr.(pos))
          0.0 p.members
      in
      let vop, vty = pack_vector_shape arr p in
      let vcost =
        match p.pkind with
        | PStore ->
            rthr_synth ctx vop vty
              ~vty:(Types.Vec (store_scalar ctx arr p, k))
        | _ -> rthr_synth ctx vop vty
      in
      let form =
        match p.pkind with
        | PLoad -> 0.0
        | PStore ->
            formation_cost ctx (store_scalar ctx arr p) k
              (form_of_column arr committed
                 (List.hd (operand_columns arr p))
                 (store_scalar ctx arr p))
        | PPure ->
            List.fold_left
              (fun acc col ->
                acc
                +. formation_cost ctx (elem_scalar arr.(p.members.(0))) k
                     (form_of_column arr committed col
                        (elem_scalar arr.(p.members.(0)))))
              0.0 (operand_columns arr p)
      in
      let extracts =
        float_of_int (List.length (extracts_needed ctx arr committed p))
        *. ctx.machine.Pmachine.Cost.extract
      in
      total := !total +. scalar -. vcost -. form -. extracts)
    committed;
  !total

(* -- seed discovery -- *)

(* maximal runs of same-kind adjacent accesses, as position arrays in
   ascending address order *)
let seed_runs ctx (arr : Instr.instr array) =
  let entries = ref [] in
  Array.iteri
    (fun pos (i : Instr.instr) ->
      match (i.op, addr_form ctx i) with
      | Instr.Load _, Some (s, a) when Types.is_scalar i.ty ->
          entries := (`L, s, a, pos) :: !entries
      | Instr.Store _, Some (s, a) -> entries := (`S, s, a, pos) :: !entries
      | _ -> ())
    arr;
  let sorted =
    List.sort
      (fun (k1, s1, a1, p1) (k2, s2, a2, p2) ->
        compare
          (k1, s1, a1.Pdataflow.Range.terms, a1.Pdataflow.Range.lane,
           a1.Pdataflow.Range.base, p1)
          (k2, s2, a2.Pdataflow.Range.terms, a2.Pdataflow.Range.lane,
           a2.Pdataflow.Range.base, p2))
      !entries
  in
  let runs = ref [] in
  let cur = ref [] in
  let flush () =
    (match !cur with
    | _ :: _ :: _ -> runs := Array.of_list (List.rev_map (fun (_, _, _, p) -> p) !cur) :: !runs
    | _ -> ());
    cur := []
  in
  List.iter
    (fun ((k, s, a, _) as e) ->
      (match !cur with
      | (k', s', a', _) :: _
        when k = k' && s = s'
             && Pdataflow.Range.same_terms a a'
             && a.Pdataflow.Range.lane = a'.Pdataflow.Range.lane
             && Int64.sub a.Pdataflow.Range.base a'.Pdataflow.Range.base
                = Int64.of_int (Types.scalar_bytes s) ->
          ()
      | [] -> ()
      | _ -> flush ());
      cur := e :: !cur)
    sorted;
  flush ();
  List.rev !runs

(* greedy chunking of a maximal run: widest prefix packs first *)
let greedy_chunks (run : int array) =
  let n = Array.length run in
  let out = ref [] in
  let i = ref 0 in
  while n - !i >= 2 do
    let w = min max_lanes (n - !i) in
    out := Array.sub run !i w :: !out;
    i := !i + w
  done;
  List.rev !out

(* candidate windows: every contiguous window of the interesting widths,
   plus the greedy chunks so the exhaustive search space always contains
   the greedy solution *)
let candidate_windows (run : int array) =
  let n = Array.length run in
  let widths =
    List.filter (fun w -> w <= n) [ 2; 3; 4; 6; 8; 12; 16 ]
  in
  let wins = ref (greedy_chunks run) in
  List.iter
    (fun w ->
      for s = 0 to n - w do
        let win = Array.sub run s w in
        if not (List.exists (fun x -> x = win) !wins) then wins := win :: !wins
      done)
    widths;
  List.rev !wins

(* -- selection -- *)

let overlaps (a : bundle) (b : bundle) =
  Hashtbl.fold (fun k () acc -> acc || Hashtbl.mem b.stmts k) a.stmts false

let bundle_first (b : bundle) =
  List.fold_left
    (fun acc (p : pack) -> Array.fold_left min acc p.members)
    max_int b.bpacks

(* exhaustive max-saving independent subset of one conflict group,
   within a node budget; falls back to first-fit greedy when capped *)
let select_group ~budget (cands : bundle array) =
  let n = Array.length cands in
  let nodes = ref 0 in
  let capped = ref false in
  let best = ref 0.0 and best_set = ref [] in
  let compatible i chosen =
    List.for_all (fun j -> not (overlaps cands.(i) cands.(j))) chosen
  in
  let rec go i chosen gain =
    incr nodes;
    if !nodes > budget then capped := true
    else if i = n then begin
      if gain > !best then begin
        best := gain;
        best_set := chosen
      end
    end
    else begin
      go (i + 1) chosen gain;
      if (not !capped) && compatible i chosen then
        go (i + 1) (i :: chosen) (gain +. cands.(i).saving)
    end
  in
  go 0 [] 0.0;
  if !capped then begin
    (* first-fit greedy in program order over the candidates, so the
       fallback is never worse than greedy *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b -> compare (bundle_first cands.(a)) (bundle_first cands.(b)))
      order;
    let chosen = ref [] in
    Array.iter
      (fun i -> if compatible i !chosen then chosen := i :: !chosen)
      order;
    (List.rev !chosen, true)
  end
  else (List.rev !best_set, false)

(* -- emission -- *)

let emit_block ctx (b : Func.block) (arr : Instr.instr array)
    (succs : ISet.t array) (committed : pack list)
    (replaced : (int, Instr.operand) Hashtbl.t) =
  let n = Array.length arr in
  let group = Array.init n Fun.id in
  let packs = Array.of_list committed in
  Array.iteri
    (fun pi (p : pack) ->
      Array.iter (fun pos -> group.(pos) <- n + pi) p.members)
    packs;
  (* Kahn topo over contracted nodes, ties broken by first position so
     untouched code keeps its order *)
  let reps = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let g = group.(i) in
    Hashtbl.replace reps g
      (i :: Option.value ~default:[] (Hashtbl.find_opt reps g))
  done;
  let indeg = Hashtbl.create 16 in
  Hashtbl.iter (fun g _ -> Hashtbl.replace indeg g 0) reps;
  let bump g = Hashtbl.replace indeg g (1 + Hashtbl.find indeg g) in
  for i = 0 to n - 1 do
    ISet.iter
      (fun j -> if group.(i) <> group.(j) then bump group.(j))
      succs.(i)
  done;
  let prio g = List.fold_left min max_int (Hashtbl.find reps g) in
  let module PQ = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let ready = ref PQ.empty in
  Hashtbl.iter
    (fun g d -> if d = 0 then ready := PQ.add (prio g, g) !ready)
    indeg;
  let out = ref [] in
  let emit i = out := i :: !out in
  let vec_of : (int, Instr.operand) Hashtbl.t = Hashtbl.create 8 in
  let resolve o =
    match o with
    | Instr.Var v -> Option.value ~default:o (Hashtbl.find_opt replaced v)
    | _ -> o
  in
  let fresh ty =
    let id = Func.fresh_id ctx.f in
    Func.set_ty ctx.f id ty;
    id
  in
  let materialize (s : Types.scalar) k (form : formation) : Instr.operand =
    match form with
    | FForward p -> Hashtbl.find vec_of (arr.(p.members.(0)).id)
    | FCvec (s, vals) -> Instr.cvec s vals
    | FSplat o ->
        let vty = Types.Vec (s, k) in
        let id = fresh vty in
        emit { Instr.id; ty = vty; op = Instr.Splat (resolve o, k) };
        Instr.Var id
    | FInserts col ->
        let vty = Types.Vec (s, k) in
        let id0 = fresh vty in
        emit { Instr.id = id0; ty = vty; op = Instr.Splat (resolve col.(0), k) };
        let cur = ref (Instr.Var id0) in
        for l = 1 to Array.length col - 1 do
          let id = fresh vty in
          emit
            {
              Instr.id;
              ty = vty;
              op = Instr.InsertLane (!cur, resolve col.(l), Instr.ci32 l);
            };
          cur := Instr.Var id
        done;
        !cur
  in
  let emit_pack (p : pack) =
    let k = Array.length p.members in
    let i0 = arr.(p.members.(0)) in
    let vres =
      match (p.pkind, i0.op) with
      | PLoad, Instr.Load ptr ->
          let vty = Types.Vec (elem_scalar i0, k) in
          let id = fresh vty in
          emit { Instr.id; ty = vty; op = Instr.VLoad (resolve ptr, None) };
          Some (Instr.Var id, vty)
      | PStore, Instr.Store (_, ptr) ->
          let s = store_scalar ctx arr p in
          let col = List.hd (operand_columns arr p) in
          let v = materialize s k (form_of_column arr committed col s) in
          let id = fresh Types.Void in
          emit { Instr.id; ty = Types.Void; op = Instr.VStore (v, resolve ptr, None) };
          None
      | PPure, op ->
          let cols = operand_columns arr p in
          let col_scalar (col : Instr.operand array) =
            match Func.ty_of_operand ctx.f col.(0) with
            | Types.Scalar s -> s
            | t -> Fmt.invalid_arg "Slp.emit: non-scalar lane %a" Types.pp t
          in
          let vops =
            List.map
              (fun col ->
                materialize (col_scalar col) k
                  (form_of_column arr committed col (col_scalar col)))
              cols
          in
          let vty =
            match op with
            | Instr.Icmp _ | Instr.Fcmp _ -> Types.Vec (Types.I1, k)
            | _ -> Types.Vec (elem_scalar i0, k)
          in
          let rem = ref vops in
          let vop =
            Instr.map_operands
              (fun _ ->
                match !rem with
                | x :: tl ->
                    rem := tl;
                    x
                | [] -> assert false)
              op
          in
          let vop =
            match vop with
            | Instr.Cast (ck, a, _) -> Instr.Cast (ck, a, vty)
            | o -> o
          in
          let id = fresh vty in
          emit { Instr.id; ty = vty; op = vop };
          Some (Instr.Var id, vty)
      | _ -> assert false
    in
    match vres with
    | None -> ()
    | Some (vec, vty) ->
        Hashtbl.replace vec_of i0.id vec;
        (* lanes with surviving scalar uses get extracts *)
        List.iter
          (fun pos ->
            let lane = ref 0 in
            Array.iteri (fun l q -> if q = pos then lane := l) p.members;
            let s = Types.elem vty in
            let id = fresh (Types.Scalar s) in
            emit
              {
                Instr.id;
                ty = Types.Scalar s;
                op = Instr.ExtractLane (vec, Instr.ci32 !lane);
              };
            Hashtbl.replace replaced arr.(pos).id (Instr.Var id))
          (extracts_needed ctx arr committed p)
  in
  while not (PQ.is_empty !ready) do
    let ((_, g) as top) = PQ.min_elt !ready in
    ready := PQ.remove top !ready;
    (if g >= n then emit_pack packs.(g - n)
     else
       let i = arr.(g) in
       emit { i with op = Instr.map_operands resolve i.op });
    List.iter
      (fun i ->
        ISet.iter
          (fun j ->
            let gj = group.(j) in
            if gj <> g then begin
              let d = Hashtbl.find indeg gj - 1 in
              Hashtbl.replace indeg gj d;
              if d = 0 then ready := PQ.add (prio gj, gj) !ready
            end)
          succs.(i))
      (Hashtbl.find reps g)
  done;
  b.Func.instrs <- List.rev !out;
  b.Func.term <- Instr.map_term_operands resolve b.Func.term

(* -- per-function driver -- *)

let pack_desc (arr : Instr.instr array) (p : pack) =
  let k = Array.length p.members in
  match p.pkind with
  | PLoad -> Fmt.str "%d x load -> vload" k
  | PStore -> Fmt.str "%d x store -> vstore" k
  | PPure ->
      let i0 = arr.(p.members.(0)) in
      let kind =
        match i0.op with
        | Instr.Ibin (op, _, _) -> Instr.show_ibin op
        | Instr.Fbin (op, _, _) -> Instr.show_fbin op
        | Instr.Iun (op, _) -> Instr.show_iun op
        | Instr.Fun (op, _) -> Instr.show_fun_ op
        | Instr.Icmp _ -> "icmp"
        | Instr.Fcmp _ -> "fcmp"
        | Instr.Select _ -> "select"
        | Instr.Cast (ck, _, _) -> Instr.show_cast_kind ck
        | _ -> "op"
      in
      Fmt.str "%d x %s" k (String.lowercase_ascii kind)

let run_block ctx (rep : report) (b : Func.block) =
  let arr = Array.of_list b.Func.instrs in
  let n = Array.length arr in
  if n >= 2 then begin
    let pos_of, succs = build_deps ctx arr in
    let rpassed fmt =
      Pobs.Remarks.(emit Passed ~pass:"slp" ~func:ctx.f.Func.fname) fmt
    in
    let rmissed fmt =
      Pobs.Remarks.(emit Missed ~pass:"slp" ~func:ctx.f.Func.fname) fmt
    in
    let windows = List.concat_map candidate_windows (seed_runs ctx arr) in
    let mk_bundle win =
      match try_pack ctx arr ~excluded:(fun _ -> false) win with
      | None -> None
      | Some seed ->
          let bdl = grow_bundle ctx arr pos_of seed in
          (* legality of the bundle on its own *)
          let group = Array.init n Fun.id in
          List.iteri
            (fun pi (p : pack) ->
              Array.iter (fun pos -> group.(pos) <- n + pi) p.members)
            bdl.bpacks;
          if not (contraction_acyclic succs group) then begin
            rep.rejected_dep <- rep.rejected_dep + 1;
            rmissed "not packed (%s): dependence cycle" (pack_desc arr seed);
            None
          end
          else begin
            bdl.saving <- bundle_saving ctx arr bdl;
            if bdl.saving <= 0.0 then begin
              rep.rejected_cost <- rep.rejected_cost + 1;
              rmissed "not packed (%s): unprofitable (saving %.2f)"
                (pack_desc arr seed) bdl.saving;
              None
            end
            else Some bdl
          end
    in
    let chosen =
      let cands = List.filter_map mk_bundle windows in
      (* conflict groups: connected components of the overlap graph *)
      let cands = Array.of_list cands in
      let nc = Array.length cands in
      let comp = Array.init nc Fun.id in
      let rec find i = if comp.(i) = i then i else find comp.(i) in
      for i = 0 to nc - 1 do
        for j = i + 1 to nc - 1 do
          if overlaps cands.(i) cands.(j) then
            comp.(find i) <- find j
        done
      done;
      let groups = Hashtbl.create 8 in
      for i = 0 to nc - 1 do
        let r = find i in
        Hashtbl.replace groups r
          (i :: Option.value ~default:[] (Hashtbl.find_opt groups r))
      done;
      let roots =
        Hashtbl.fold (fun r _ acc -> r :: acc) groups [] |> List.sort compare
      in
      List.concat_map
        (fun r ->
          let idxs =
            Array.of_list (List.rev (Hashtbl.find groups r))
          in
          let sub = Array.map (fun i -> cands.(i)) idxs in
          let picked, capped = select_group ~budget:search_budget sub in
          if capped then begin
            rep.search_capped <- rep.search_capped + 1;
            rmissed
              "conflict group of %d candidates exceeded the search \
               budget; using greedy selection"
              (Array.length sub)
          end;
          List.map (fun i -> sub.(i)) picked)
        roots
    in
    (* combined legality: contraction over every chosen pack at once;
       drop the cheapest bundles until acyclic *)
    let chosen = ref chosen in
    let combined_ok () =
      let group = Array.init n Fun.id in
      List.iteri
        (fun bi (bdl : bundle) ->
          List.iteri
            (fun pi (p : pack) ->
              Array.iter
                (fun pos -> group.(pos) <- n + (bi * 1024) + pi)
                p.members)
            bdl.bpacks)
        !chosen;
      contraction_acyclic succs group
    in
    while (not (combined_ok ())) && !chosen <> [] do
      let worst =
        List.fold_left
          (fun acc (b : bundle) ->
            match acc with
            | Some (w : bundle) when w.saving <= b.saving -> acc
            | _ -> Some b)
          None !chosen
      in
      match worst with
      | Some w ->
          rep.rejected_dep <- rep.rejected_dep + 1;
          rmissed "pack set dropped: combined dependence cycle";
          chosen := List.filter (fun b -> b != w) !chosen
      | None -> ()
    done;
    (* -- schedule gate --
       [bundle_saving] scores reciprocal throughput only, but the
       machine charges a block [max(Σ rthr, critical path latency)]: an
       insert-chain formation feeding a [VStore] serializes lanes that
       the scalar stores issued in parallel, so a throughput-profitable
       pack can still lengthen the path and slow the block down.  Emit,
       re-schedule the block under the same model the simulator uses,
       and drop the weakest bundle until packing is not a regression. *)
    let operand_ty o = Func.ty_of_operand ctx.f o in
    let block_cost () = Pmachine.Cost.block_base ctx.machine ~operand_ty b in
    let old_instrs = b.Func.instrs and old_term = b.Func.term in
    let old_cost = block_cost () in
    let replaced = Hashtbl.create 16 in
    let rec attempt () =
      match !chosen with
      | [] -> ()
      | _ ->
          Hashtbl.reset replaced;
          emit_block ctx b arr succs
            (List.concat_map (fun (b : bundle) -> b.bpacks) !chosen)
            replaced;
          let new_cost = block_cost () in
          if new_cost > old_cost then begin
            b.Func.instrs <- old_instrs;
            b.Func.term <- old_term;
            let worst =
              List.fold_left
                (fun acc (b : bundle) ->
                  match acc with
                  | Some (w : bundle) when w.saving <= b.saving -> acc
                  | _ -> Some b)
                None !chosen
            in
            (match worst with
            | Some w ->
                rep.rejected_cost <- rep.rejected_cost + 1;
                rmissed
                  "bundle dropped (saving %.2f rthr): emitted schedule \
                   regressed %.2f -> %.2f cycles"
                  w.saving old_cost new_cost;
                chosen := List.filter (fun b -> b != w) !chosen
            | None -> ());
            attempt ()
          end
    in
    attempt ();
    let committed = List.concat_map (fun (b : bundle) -> b.bpacks) !chosen in
    if committed <> [] then begin
      (* rewrite surviving scalar uses of packed defs everywhere: other
         blocks, and phis of this block (emitted before the extracts
         their operands may now come from) *)
      if Hashtbl.length replaced > 0 then begin
        let fixup o =
          match o with
          | Instr.Var v ->
              Option.value ~default:o (Hashtbl.find_opt replaced v)
          | _ -> o
        in
        List.iter
          (fun (blk : Func.block) ->
            blk.Func.instrs <-
              List.map
                (fun (i : Instr.instr) ->
                  { i with Instr.op = Instr.map_operands fixup i.op })
                blk.Func.instrs;
            blk.Func.term <- Instr.map_term_operands fixup blk.Func.term)
          ctx.f.Func.blocks
      end;
      List.iter
        (fun (bdl : bundle) ->
          rep.est_saving <- rep.est_saving +. bdl.saving;
          List.iter
            (fun (p : pack) ->
              rep.packs <- rep.packs + 1;
              rep.packed_instrs <- rep.packed_instrs + Array.length p.members;
              (match p.pkind with
              | PLoad -> rep.packed_loads <- rep.packed_loads + 1
              | PStore -> rep.packed_stores <- rep.packed_stores + 1
              | PPure -> ());
              rpassed "packed %s in %s (bundle saving %.2f rthr)"
                (pack_desc arr p) b.Func.bname bdl.saving)
            bdl.bpacks)
        !chosen
    end
  end

let run_func (f : Func.t) : report =
  let rep = fresh_report f.Func.fname in
  let dv = Pdataflow.Divergence.analyze f in
  let ctx =
    {
      f;
      rg = Pdataflow.Range.analyze dv f;
      al = Pdataflow.Alias.analyze f;
      machine = Pmachine.Cost.default;
      uses = Hashtbl.create 64;
    }
  in
  build_uses ctx;
  List.iter (run_block ctx rep) f.Func.blocks;
  rep

(* -- module driver, metrics -- *)

let m_packs =
  Pobs.Metrics.counter "slp.packs" ~help:"SLP packs committed, by kind"

let m_instrs =
  Pobs.Metrics.counter "slp.packed_instrs"
    ~help:"scalar instructions replaced by SLP packs"

let m_rejected =
  Pobs.Metrics.counter "slp.rejected"
    ~help:"SLP candidates rejected, by reason"

let publish_report (r : report) =
  if Pobs.Metrics.enabled () then begin
    Pobs.Metrics.add ~labels:[ ("kind", "load") ] m_packs r.packed_loads;
    Pobs.Metrics.add ~labels:[ ("kind", "store") ] m_packs r.packed_stores;
    Pobs.Metrics.add
      ~labels:[ ("kind", "pure") ]
      m_packs
      (r.packs - r.packed_loads - r.packed_stores);
    Pobs.Metrics.add m_instrs r.packed_instrs;
    Pobs.Metrics.add
      ~labels:[ ("reason", "cost") ]
      m_rejected r.rejected_cost;
    Pobs.Metrics.add ~labels:[ ("reason", "dep") ] m_rejected r.rejected_dep
  end

(** Pack every function of [m] (serial bodies and SPMD regions alike —
    the pass transforms one thread of control, so an SPMD function's
    per-thread semantics are preserved and its [spmd] marker stays).
    [opts] keeps the signature of the other strategies' passes; no
    option steers SLP. *)
let run_module ?opts:(_ : Options.t option) (m : Func.modul) : report list =
  List.map
    (fun f ->
      Pobs.Trace.with_span ~cat:"pass"
        ~args:[ ("func", f.Func.fname) ]
        "slp"
        (fun () ->
          let rep = run_func f in
          publish_report rep;
          rep))
    m.Func.funcs
