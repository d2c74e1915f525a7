(** Analysis-guided reclassification of memory operations.

    The vectorizer classifies each access from purely local, syntactic
    shape facts; anything it cannot prove strided becomes a gather or a
    scatter.  This pass runs *after* vectorization, uses the per-lane
    value analysis ({!Pdataflow.Lanes}) to find gathers/scatters whose
    index vector is provably [origin + rel(l)] with compile-time
    relative picks — a constant Cvec (the tail-gang strided accesses the
    vectorizer materializes under a mask), or a loop-carried affine
    vector phi — and rewrites them to masked packed loads/stores plus
    static shuffles, following the chunk plan of {!Psmt.Reclass}.

    The rewrite is the online half of the two-phase validation scheme
    (paper §4.2.2): the plan construction is model-checked offline in
    {!Psmt.Verify.check_reclass}, and the online preconditions (strictly
    increasing picks starting at 0, span within the stride-shuffle
    bound, index elements already 64-bit so no narrower wrap can hide)
    are re-checked here on each firing.  Byte-for-byte equivalence with
    the original gather/scatter holds because a masked packed access
    touches exactly the picked addresses of active lanes (a subset of
    the gather's own footprint) and zero-fills inactive lanes exactly
    like the simulator's masked gather. *)

open Pir

type stats = {
  mutable loads_packed : int;  (** gathers that became one masked vload *)
  mutable loads_shuffled : int;  (** gathers -> chunked vloads + shuffles *)
  mutable stores_packed : int;
  mutable stores_shuffled : int;
  mutable rule_hits : (string * int) list;  (** sorted, reclass.* rules *)
}

let total st =
  st.loads_packed + st.loads_shuffled + st.stores_packed + st.stores_shuffled

let hit st rule =
  st.rule_hits <-
    (match List.assoc_opt rule st.rule_hits with
    | Some n -> (rule, n + 1) :: List.remove_assoc rule st.rule_hits
    | None -> (rule, 1) :: st.rule_hits)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* relative picks of an index-vector fact, when usable: an Exact lane
   vector yields its own offsets from lane 0; a Stride fact yields the
   progression (the runtime origin is lane 0's index).  Spans are
   sanity-bounded before Int64 -> int conversion. *)
let rel_of_fact (fact : Pdataflow.Lanes.fact) n =
  let max_span = 1 lsl 20 in
  match fact with
  | Pdataflow.Lanes.Exact arr when Array.length arr = n ->
      let rel = Array.map (fun v -> Int64.sub v arr.(0)) arr in
      if
        Array.for_all
          (fun d -> Int64.compare d 0L >= 0 && Int64.compare d (Int64.of_int max_span) < 0)
          rel
      then Some (Array.map Int64.to_int rel, `Exact arr.(0))
      else None
  | Pdataflow.Lanes.Stride s
    when Int64.compare s 1L >= 0 && Int64.compare s (Int64.of_int max_span) < 0
    ->
      Some (Psmt.Reclass.lanes_rel ~stride:(Int64.to_int s) n, `Lane0)
  | _ -> None

let run_func ?(opts = Options.default) (f : Func.t) : stats =
  let st =
    {
      loads_packed = 0;
      loads_shuffled = 0;
      stores_packed = 0;
      stores_shuffled = 0;
      rule_hits = [];
    }
  in
  let lanes = Pdataflow.Lanes.analyze f in
  let rpassed fmt =
    Pobs.Remarks.(emit Passed ~pass:"reclassify" ~func:f.Func.fname) fmt
  in
  let bound = max 1 opts.Options.stride_shuffle_bound in
  (* rewrites are emitted into a detached block, then spliced in *)
  let b = Builder.detached f in
  List.iter
    (fun (blk : Func.block) ->
      let rewrite (i : Instr.instr) : Instr.instr list option =
        (* common preconditions for both directions *)
        let attempt ~is_store p idxv (vty : Types.t) emit_unit emit_chunks
            =
          let n = Types.lanes vty in
          match Func.ty_of_operand f idxv with
          | Types.Vec (Types.I64, ni) when ni = n -> (
              let ptr_elem =
                match Func.ty_of_operand f p with
                | Types.Ptr s -> Some s
                | _ -> None
              in
              match (ptr_elem, Types.elem vty) with
              | Some pe, ve when pe = ve -> (
                  match rel_of_fact (Pdataflow.Lanes.of_operand lanes idxv) n with
                  | Some (rel, origin) -> (
                      match Psmt.Reclass.plan ~bound rel with
                      | Some plan
                        when Psmt.Reclass.is_unit plan
                             || opts.Options.stride_shuffle_bound > 0 ->
                          let origin_idx =
                            match origin with
                            | `Exact first ->
                                Instr.Const (Instr.Cint (Types.I64, first))
                            | `Lane0 -> Builder.extract b idxv (Instr.ci32 0)
                          in
                          let origin_ptr = Builder.gep b p origin_idx in
                          let kind = if is_store then "store" else "load" in
                          if Psmt.Reclass.is_unit plan then begin
                            emit_unit origin_ptr;
                            hit st (Fmt.str "reclass.%s.unit" kind);
                            rpassed
                              "%s %%%d: analysis proved unit stride -> \
                               packed %s"
                              (if is_store then "scatter" else "gather")
                              i.id kind
                          end
                          else begin
                            emit_chunks origin_ptr plan;
                            hit st (Fmt.str "reclass.%s.shuffle" kind);
                            rpassed
                              "%s %%%d: analysis proved constant stride %d -> \
                               %d packed %s(s) + shuffle"
                              (if is_store then "scatter" else "gather")
                              i.id
                              (if n > 1 then rel.(1) else 0)
                              (List.length plan.Psmt.Reclass.chunks)
                              kind
                          end;
                          Some (Builder.take b)
                      | _ -> None)
                  | None -> None)
              | _ -> None)
          | _ -> None
        in
        (* the chunk mask: static validity bits (some lane picks the
           slot) AND the original mask permuted so slot [m] carries the
           mask bit of the lane it serves *)
        let chunk_mask mask (inv : int array) =
          let static = Array.map (fun l -> if l >= 0 then 1L else 0L) inv in
          let full_static = Array.for_all (fun l -> l >= 0) inv in
          match mask with
          | None ->
              if full_static then None else Some (Instr.cvec Types.I1 static)
          | Some m ->
              let perm = Array.map (fun l -> max l 0) inv in
              let pm = Builder.shuffle b m m perm in
              if full_static then Some pm
              else Some (Builder.ibin b Instr.And pm (Instr.cvec Types.I1 static))
        in
        let chunk_ptr origin_ptr coff =
          if coff = 0 then origin_ptr
          else Builder.gep b origin_ptr (Instr.ci64 coff)
        in
        match i.op with
        | Instr.Gather (p, idxv, mask) ->
            attempt ~is_store:false p idxv i.ty
              (fun origin_ptr ->
                st.loads_packed <- st.loads_packed + 1;
                Builder.append b
                  { Instr.id = i.id; ty = i.ty; op = Instr.VLoad (origin_ptr, mask) })
              (fun origin_ptr plan ->
                st.loads_shuffled <- st.loads_shuffled + 1;
                let n = Types.lanes i.ty in
                let rel = plan.Psmt.Reclass.rel in
                let acc = ref None in
                List.iter
                  (fun { Psmt.Reclass.coff; inv } ->
                    let cp = chunk_ptr origin_ptr coff in
                    let cm = chunk_mask mask inv in
                    let v = Builder.vload b ?mask:cm cp n in
                    let prev = match !acc with None -> v | Some a -> a in
                    let first = !acc = None in
                    let idx =
                      Array.init n (fun l ->
                          if rel.(l) >= coff && rel.(l) < coff + n then
                            (if first then 0 else n) + rel.(l) - coff
                          else l)
                    in
                    acc := Some (Builder.shuffle b prev v idx))
                  plan.Psmt.Reclass.chunks)
            (* the final instruction (the packed load, or the last
               shuffle's combine) takes over the gather's SSA id *)
            |> Option.map (fun instrs ->
                   match List.rev instrs with
                   | last :: rest -> List.rev ({ last with Instr.id = i.id } :: rest)
                   | [] -> assert false)
        | Instr.Scatter (v, p, idxv, mask) ->
            attempt ~is_store:true p idxv (Func.ty_of_operand f v)
              (fun origin_ptr ->
                st.stores_packed <- st.stores_packed + 1;
                Builder.append b
                  { Instr.id = i.id; ty = Types.Void; op = Instr.VStore (v, origin_ptr, mask) })
              (fun origin_ptr plan ->
                st.stores_shuffled <- st.stores_shuffled + 1;
                let chunks = plan.Psmt.Reclass.chunks in
                let nchunks = List.length chunks in
                List.iteri
                  (fun j { Psmt.Reclass.coff; inv } ->
                    let cp = chunk_ptr origin_ptr coff in
                    let cm = chunk_mask mask inv in
                    let perm = Array.map (fun l -> max l 0) inv in
                    let sv = Builder.shuffle b v v perm in
                    if j = nchunks - 1 then
                      Builder.append b
                        { Instr.id = i.id; ty = Types.Void; op = Instr.VStore (sv, cp, cm) }
                    else Builder.vstore b ?mask:cm sv cp)
                  chunks)
        | _ -> None
      in
      blk.instrs <-
        List.concat_map
          (fun (i : Instr.instr) ->
            match rewrite i with Some instrs -> instrs | None -> [ i ])
          blk.instrs)
    f.Func.blocks;
  st
