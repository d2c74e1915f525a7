(** Block-local common-subexpression elimination and dead-code
    elimination.

    The paper's pipeline hands the vectorizer's output "to any number of
    other optimization passes and then to the unmodified compiler
    back-end" (§4.3); this pass models the parts of -O3 that matter for
    the emitted vector code: merging identical packed loads produced by
    neighbouring strided accesses, de-duplicating broadcast/offset
    materializations, and dropping unused scalar bases.  It is applied
    to every compilation strategy (the scalar baseline is -O3 with
    vectorization disabled, so it gets the same cleanups). *)

open Pir

(* value-numbering key: the operation with its operands and result type;
   loads also carry the memory epoch so stores/calls invalidate them.
   Float constants enter the key as their bit pattern, an integer
   constant of the float's kind (the IR never holds one otherwise):
   structural comparison would merge -0.0 with 0.0. *)
type key = { op : Instr.op; ty : Types.t; epoch : int }

let float_bits (o : Instr.operand) =
  match o with
  | Instr.Const (Instr.Cfloat (s, x)) ->
      Instr.Const (Instr.Cint (s, Int64.bits_of_float x))
  | _ -> o

let pure (i : Instr.instr) =
  match i.op with
  | Instr.Store _ | Instr.VStore _ | Instr.Scatter _ | Instr.Call _
  | Instr.Alloca _ | Instr.Phi _ ->
      false
  | _ -> true

let is_load (i : Instr.instr) =
  match i.op with
  | Instr.Load _ | Instr.VLoad _ | Instr.Gather _ -> true
  | _ -> false

let barrier (i : Instr.instr) =
  match i.op with
  | Instr.Store _ | Instr.VStore _ | Instr.Scatter _ -> true
  | Instr.Call (n, _) ->
      (* math/psim intrinsics do not write memory *)
      not
        (Intrinsics.is_math n || Intrinsics.is_sleef n || Intrinsics.is_ispc n
       || Intrinsics.is_psim n)
  | _ -> false

let cse_block (blk : Func.block) (rewrites : (int, Instr.operand) Hashtbl.t) =
  let table : (key, Instr.operand) Hashtbl.t = Hashtbl.create 64 in
  let epoch = ref 0 in
  let rewrite_operand (o : Instr.operand) =
    match o with
    | Instr.Var v -> (
        match Hashtbl.find_opt rewrites v with Some o' -> o' | None -> o)
    | _ -> o
  in
  let out = ref [] in
  List.iter
    (fun (i : Instr.instr) ->
      let op = Instr.map_operands rewrite_operand i.op in
      let i = { i with op } in
      if pure i then begin
        let k =
          {
            op = Instr.map_operands float_bits op;
            ty = i.ty;
            epoch = (if is_load i then !epoch else -1);
          }
        in
        match Hashtbl.find_opt table k with
        | Some prev -> Hashtbl.replace rewrites i.id prev
        | None ->
            Hashtbl.replace table k (Instr.Var i.id);
            out := i :: !out
      end
      else begin
        if barrier i then incr epoch;
        out := i :: !out
      end)
    blk.instrs;
  blk.instrs <- List.rev !out;
  blk.term <- Instr.map_term_operands rewrite_operand blk.term

(* rewrite phi operands too (they may reference CSE'd values from
   predecessor blocks) *)
let apply_rewrites (f : Func.t) (rewrites : (int, Instr.operand) Hashtbl.t) =
  let rec resolve (o : Instr.operand) =
    match o with
    | Instr.Var v -> (
        match Hashtbl.find_opt rewrites v with
        | Some o' when o' <> o -> resolve o'
        | _ -> o)
    | _ -> o
  in
  List.iter
    (fun (b : Func.block) ->
      b.instrs <-
        List.map
          (fun (i : Instr.instr) -> { i with op = Instr.map_operands resolve i.op })
          b.instrs;
      b.term <- Instr.map_term_operands resolve b.term)
    f.blocks

(* -- dead code elimination: one worklist pass from the roots, the
   operands of every non-pure instruction and of every terminator -- *)

let dce (f : Func.t) =
  let defs : (int, Instr.instr) Hashtbl.t = Hashtbl.create 64 in
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let work = ref [] in
  let mark v =
    if not (Hashtbl.mem live v) then begin
      Hashtbl.replace live v ();
      work := v :: !work
    end
  in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          if pure i then Hashtbl.replace defs i.id i
          else List.iter mark (Instr.uses_of_op i.op))
        b.instrs;
      List.iter
        (function Instr.Var v -> mark v | Instr.Const _ -> ())
        (Instr.operands_of_term b.term))
    f.blocks;
  let rec drain () =
    match !work with
    | [] -> ()
    | v :: rest ->
        work := rest;
        Option.iter
          (fun (i : Instr.instr) -> List.iter mark (Instr.uses_of_op i.op))
          (Hashtbl.find_opt defs v);
        drain ()
  in
  drain ();
  List.iter
    (fun (b : Func.block) ->
      b.instrs <-
        List.filter
          (fun (i : Instr.instr) -> (not (pure i)) || Hashtbl.mem live i.id)
          b.instrs)
    f.blocks

(* -- store coalescing --

   Interleaved SPMD stores (e.g. [dst[4i+c] = ...] for each channel c)
   vectorize into several masked packed stores per memory chunk with
   disjoint constant masks.  Real back-ends merge these into one store
   per chunk (blend + single [vmovdqu]); we do the same for masked
   [VStore]s whose address is [gep base, const] with equal (base, const)
   keys.  Chunks at different constant offsets of the same base are
   provably disjoint (offsets differ by at least the lane count), and
   any load or unanalyzable access flushes the window. *)

let coalesce_stores_block (f : Func.t) (blk : Func.block) =
  (* the block's address computations so far: gep id -> (base, index) *)
  let geps : (int, Instr.operand * Instr.operand) Hashtbl.t = Hashtbl.create 8 in
  let key_of (i : Instr.instr) =
    match i.op with
    | Instr.VStore (_, (Instr.Var pv as p), Some _) -> (
        match Hashtbl.find_opt geps pv with
        | Some (base, idx) ->
            Option.map (fun c -> (base, c)) (Instr.const_int_value idx)
        | None -> Some (p, 0L))
    | _ -> None
  in
  (* pending.(key) = the previous mergeable store *)
  let pending : (Instr.operand * int64, Instr.instr) Hashtbl.t = Hashtbl.create 8 in
  let removed : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (i : Instr.instr) ->
      match (key_of i, i.op) with
      | Some key, Instr.VStore (v2, p, Some m2) -> (
          match Hashtbl.find_opt pending key with
          | Some { id = prev; op = Instr.VStore (v1, _, Some m1); _ } ->
              Hashtbl.replace removed prev ();
              (* merged value: lanes of the later store win *)
              let vty = Func.ty_of_operand f v2 in
              let mty = Func.ty_of_operand f m2 in
              let sel = Func.fresh_id f in
              Func.set_ty f sel vty;
              let orm = Func.fresh_id f in
              Func.set_ty f orm mty;
              let merged =
                { Instr.id = Func.fresh_id f; ty = Types.Void;
                  op = Instr.VStore (Instr.Var sel, p, Some (Instr.Var orm)) }
              in
              out :=
                merged
                :: { Instr.id = orm; ty = mty; op = Instr.Ibin (Instr.Or, m1, m2) }
                :: { Instr.id = sel; ty = vty; op = Instr.Select (m2, v2, v1) }
                :: !out;
              Hashtbl.replace pending key merged
          | _ ->
              out := i :: !out;
              Hashtbl.replace pending key i)
      | _ ->
          (match i.op with
          | Instr.Gep (base, idx) -> Hashtbl.replace geps i.id (base, idx)
          | Instr.Load _ | Instr.VLoad _ | Instr.Gather _ | Instr.Store _
          | Instr.Scatter _ | Instr.Call _ | Instr.VStore _ ->
              Hashtbl.reset pending
          | _ -> ());
          out := i :: !out)
    blk.instrs;
  (* drop merged-away stores *)
  blk.instrs <-
    List.filter (fun (i : Instr.instr) -> not (Hashtbl.mem removed i.id)) (List.rev !out)

let coalesce_stores (f : Func.t) =
  List.iter (coalesce_stores_block f) f.blocks

(* -- constant branch folding + unreachable block pruning --

   Specialized gang copies (head/tail extraction, paper §3) fold
   psim_is_head_gang / psim_is_tail_gang to constants; folding the
   branches then removes the boundary-check code from the non-boundary
   copies entirely. *)

let fold_branches (f : Func.t) =
  List.iter
    (fun (b : Func.block) ->
      match b.term with
      | Instr.CondBr (Instr.Const (Instr.Cint (_, c)), t, e) ->
          b.term <- Instr.Br (if c <> 0L then t else e)
      | Instr.CondBr (_, t, e) when t = e -> b.term <- Instr.Br t
      | _ -> ())
    f.blocks

let prune_unreachable (f : Func.t) =
  let cfg = Panalysis.Cfg.build f in
  let reachable = Panalysis.Cfg.reachable cfg in
  f.blocks <- List.filter (fun (b : Func.block) -> reachable b.bname) f.blocks;
  (* drop phi incomings from removed predecessors; a phi left with a
     single incoming becomes a copy (rewritten by CSE on the next
     pass; here we substitute directly) *)
  let copies = Hashtbl.create 8 in
  List.iter
    (fun (b : Func.block) ->
      let preds = List.filter reachable (Panalysis.Cfg.preds cfg b.bname) in
      b.instrs <-
        List.filter_map
          (fun (i : Instr.instr) ->
            match i.op with
            | Instr.Phi incoming -> (
                let incoming =
                  List.filter (fun (l, _) -> List.mem l preds) incoming
                in
                match incoming with
                | [ (_, v) ] ->
                    Hashtbl.replace copies i.id v;
                    None
                | _ -> Some { i with op = Instr.Phi incoming })
            | _ -> Some i)
          b.instrs)
    f.blocks;
  if Hashtbl.length copies > 0 then begin
    let rec resolve (o : Instr.operand) =
      match o with
      | Instr.Var v -> (
          match Hashtbl.find_opt copies v with
          | Some o' when o' <> o -> resolve o'
          | Some o' -> o'
          | None -> o)
      | _ -> o
    in
    List.iter
      (fun (b : Func.block) ->
        b.instrs <-
          List.map
            (fun (i : Instr.instr) ->
              { i with op = Instr.map_operands resolve i.op })
            b.instrs;
        b.term <- Instr.map_term_operands resolve b.term)
      f.blocks
  end

(* merge straight-line block chains: [A -> br B] where B's only
   predecessor is A (no phis) folds B into A.  A merge changes no other
   block's predecessor count (A takes B's place as the predecessor of
   B's successors), so one pass over the blocks merges every chain. *)
let merge_blocks (f : Func.t) =
  let cfg = Panalysis.Cfg.build f in
  let entry_name = Panalysis.Cfg.entry cfg in
  (* merged_into.(b) = the block that b was folded into *)
  let merged_into = Hashtbl.create 16 in
  let rec absorb (a : Func.block) =
    match a.term with
    | Instr.Br bn
      when bn <> entry_name && bn <> a.bname
           && List.length (Panalysis.Cfg.preds cfg bn) = 1 -> (
        match Hashtbl.find_opt cfg.blocks bn with
        | Some (b : Func.block)
          when not
                 (List.exists
                    (fun (i : Instr.instr) ->
                      match i.op with Instr.Phi _ -> true | _ -> false)
                    b.instrs) ->
            a.instrs <- a.instrs @ b.instrs;
            a.term <- b.term;
            Hashtbl.replace merged_into bn a.bname;
            absorb a
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (a : Func.block) -> if not (Hashtbl.mem merged_into a.bname) then absorb a)
    f.blocks;
  if Hashtbl.length merged_into > 0 then begin
    f.blocks <-
      List.filter (fun (b : Func.block) -> not (Hashtbl.mem merged_into b.bname)) f.blocks;
    (* phis in a merged block's successors refer to it by name: retarget *)
    let rec head l =
      match Hashtbl.find_opt merged_into l with Some a -> head a | None -> l
    in
    List.iter
      (fun (s : Func.block) ->
        s.instrs <-
          List.map
            (fun (i : Instr.instr) ->
              match i.op with
              | Instr.Phi inc ->
                  { i with op = Instr.Phi (List.map (fun (l, v) -> (head l, v)) inc) }
              | _ -> i)
            s.instrs)
      f.blocks
  end

let count_instrs (f : Func.t) =
  List.fold_left
    (fun acc (b : Func.block) -> acc + List.length b.instrs)
    0 f.blocks

let m_cse = Pobs.Metrics.counter "simplify.cse_hits"

let m_removed =
  Pobs.Metrics.counter "simplify.instrs_removed"
    ~help:"net instructions eliminated by CSE+DCE"

let m_blocks = Pobs.Metrics.counter "simplify.blocks_pruned"

(** Run local CSE + DCE on a function, in place. *)
let run_func (f : Func.t) =
  let observed = Pobs.Remarks.active () || Pobs.Metrics.enabled () in
  let before_instrs = if observed then count_instrs f else 0 in
  let before_blocks = if observed then List.length f.blocks else 0 in
  let rewrites = Hashtbl.create 64 in
  List.iter (fun b -> cse_block b rewrites) f.blocks;
  let cse_hits = Hashtbl.length rewrites in
  apply_rewrites f rewrites;
  fold_branches f;
  prune_unreachable f;
  merge_blocks f;
  coalesce_stores f;
  dce f;
  if observed then begin
    Pobs.Metrics.add m_cse cse_hits;
    Pobs.Metrics.add m_removed (max 0 (before_instrs - count_instrs f));
    Pobs.Metrics.add m_blocks (max 0 (before_blocks - List.length f.blocks));
    let remark kind fmt =
      Pobs.Remarks.emit kind ~pass:"simplify" ~func:f.fname fmt
    in
    if cse_hits > 0 then
      remark Pobs.Remarks.Passed "CSE replaced %d redundant instruction(s)"
        cse_hits;
    let after_instrs = count_instrs f in
    let after_blocks = List.length f.blocks in
    if after_blocks < before_blocks then
      remark Pobs.Remarks.Passed "merged/pruned %d block(s) (%d -> %d)"
        (before_blocks - after_blocks)
        before_blocks after_blocks;
    remark Pobs.Remarks.Analysis
      "instruction count %d -> %d (%d eliminated net of CSE rewrites)"
      before_instrs after_instrs
      (before_instrs - after_instrs)
  end

let run_module (m : Func.modul) =
  Pobs.Trace.with_span ~cat:"pass" "simplify" (fun () ->
      List.iter run_func m.funcs)
