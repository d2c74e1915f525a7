(** Back-end legalization (paper §4.3).

    "The back-end is responsible for unrolling each vector instruction if
    the IR instruction's vector width (i.e., usually the gang size) does
    not match the width of the instructions available on the target."

    This pass rewrites a function so every vector value fits in one
    machine register (default 512 bits): wide virtual vectors are split
    into chunk values, element-wise operations unroll per chunk, packed
    memory operations split into per-chunk accesses at adjusted
    addresses, reductions reduce per chunk and combine, and cross-chunk
    shuffles fall back to lane extraction (which is also what their cost
    would be on hardware without cross-register permutes).

    The simulator's cost model already charges per 512-bit chunk, so
    running legalized or unlegalized code costs approximately the same —
    the pass exists to validate that the vector IR the Parsimony pass
    emits *can* be lowered to fixed-width machine vectors, and is tested
    by differential execution. *)

open Pir

let machine_bits = 512

(* masks legalize by lane count (they live in k-registers, but splitting
   must follow the data they predicate) *)
let chunks_of (ty : Types.t) ~lanes_per_chunk =
  match ty with
  | Types.Vec (_, n) -> (n + lanes_per_chunk - 1) / lanes_per_chunk
  | _ -> 1

(** Lane capacity of one machine register for element kind [s].
    [I1] masks follow the widest data type in the function. *)
let lanes_for (s : Types.scalar) =
  match s with
  | Types.I1 -> invalid_arg "Legalize.lanes_for: mask lanes follow their data"
  | s -> machine_bits / Types.scalar_bits s

exception Unsupported of string

let incoming_of (i : Instr.instr) =
  match i.Instr.op with Instr.Phi inc -> inc | _ -> assert false

let unsup fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(** Legalize [f] in place-ish: returns a new function of the same name
    where every vector type has at most [lanes] lanes ([lanes] defaults
    to the minimum lane capacity over the element kinds appearing in
    [f], so masks and data split consistently). *)
let legalize_func ?(lanes = 0) (f : Func.t) : Func.t =
  (* choose the split granularity: the smallest per-register lane count
     among non-mask vector types in the function *)
  let lanes_per_chunk =
    if lanes > 0 then lanes
    else
      Func.fold_instrs f max_int (fun acc _ i ->
          match i.Instr.ty with
          | Types.Vec (s, _) when s <> Types.I1 -> min acc (lanes_for s)
          | _ -> acc)
      |> fun l -> if l = max_int then machine_bits / 8 else l
  in
  let nf =
    Func.create f.fname ~params:f.params ~ret:f.ret ~noalias:f.noalias
      ?spmd:f.spmd
  in
  (* map: old vector id -> chunk operands; scalars map to themselves *)
  let vmap : (int, Instr.operand array) Hashtbl.t = Hashtbl.create 64 in
  let smap : (int, Instr.operand) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace smap v (Instr.Var v)) f.params;
  (* one block per block of [f], same names, same order *)
  let b = Builder.create ~entry:(Func.entry f).bname nf in
  let emit = Builder.ins b in
  (* chunk forms of an operand *)
  let chunk_ty (ty : Types.t) c =
    match ty with
    | Types.Vec (s, n) ->
        let lo = c * lanes_per_chunk in
        Types.Vec (s, min lanes_per_chunk (n - lo))
    | t -> t
  in
  let chunks_of_operand (o : Instr.operand) ~(ty : Types.t) :
      Instr.operand array =
    match (o, ty) with
    | Instr.Var v, Types.Vec _ -> (
        match Hashtbl.find_opt vmap v with
        | Some cs -> cs
        | None -> unsup "value %%%d has no chunks" v)
    | Instr.Const (Instr.Cvec (s, a)), _ ->
        Array.init
          (chunks_of ty ~lanes_per_chunk)
          (fun c ->
            let lo = c * lanes_per_chunk in
            let len = min lanes_per_chunk (Array.length a - lo) in
            Instr.Const (Instr.Cvec (s, Array.sub a lo len)))
    | o, Types.Vec _ ->
        unsup "unexpected vector operand %a" Instr.pp_operand o
    | o, _ -> [| o |]
  in
  let scalar_of (o : Instr.operand) =
    match o with
    | Instr.Var v -> (
        match Hashtbl.find_opt smap v with
        | Some o' -> o'
        | None -> unsup "scalar %%%d unmapped" v)
    | o -> o
  in
  let legalize_instr (i : Instr.instr) =
    let ty = i.ty in
    let nchunks = chunks_of ty ~lanes_per_chunk in
    let oty (o : Instr.operand) = Func.ty_of_operand f o in
    match i.op with
    | Instr.Phi _ when not (Types.is_vector ty) ->
        (* scalar phi: placeholder incoming patched in the second pass *)
        Hashtbl.replace smap i.id
          (emit ty
             (Instr.Phi (List.map (fun (l, _) -> (l, Instr.ci32 0)) (incoming_of i))))
    | _ when not (Types.is_vector ty || Instr.has_side_effects i.op) ->
        (* scalar instruction: copy with scalar-mapped operands, except
           reductions/extracts whose inputs are vectors *)
        let copy_scalar () =
          let op = Instr.map_operands scalar_of i.op in
          Hashtbl.replace smap i.id (emit ty op)
        in
        (match i.op with
        | Instr.Reduce (k, v) ->
            let cs = chunks_of_operand v ~ty:(oty v) in
            if Array.length cs = 1 then
              (* single chunk: still rewrite through the chunk map — the
                 operand is a vector value, which lives in [vmap] under a
                 fresh id, never in [smap] *)
              Hashtbl.replace smap i.id (emit ty (Instr.Reduce (k, cs.(0))))
            else begin
              (* reduce each chunk, then combine scalars *)
              let partials =
                Array.map (fun c -> emit ty (Instr.Reduce (k, c))) cs
              in
              let combine a b =
                match k with
                | Instr.RAdd -> emit ty (Instr.Ibin (Instr.Add, a, b))
                | Instr.RAnd -> emit ty (Instr.Ibin (Instr.And, a, b))
                | Instr.ROr -> emit ty (Instr.Ibin (Instr.Or, a, b))
                | Instr.RXor -> emit ty (Instr.Ibin (Instr.Xor, a, b))
                | Instr.RSMin -> emit ty (Instr.Ibin (Instr.SMin, a, b))
                | Instr.RSMax -> emit ty (Instr.Ibin (Instr.SMax, a, b))
                | Instr.RUMin -> emit ty (Instr.Ibin (Instr.UMin, a, b))
                | Instr.RUMax -> emit ty (Instr.Ibin (Instr.UMax, a, b))
                | Instr.RFAdd -> emit ty (Instr.Fbin (Instr.FAdd, a, b))
                | Instr.RFMin -> emit ty (Instr.Fbin (Instr.FMin, a, b))
                | Instr.RFMax -> emit ty (Instr.Fbin (Instr.FMax, a, b))
                | Instr.RAny -> emit ty (Instr.Ibin (Instr.Or, a, b))
                | Instr.RAll -> emit ty (Instr.Ibin (Instr.And, a, b))
              in
              Hashtbl.replace smap i.id
                (Array.fold_left
                   (fun acc p -> match acc with None -> Some p | Some a -> Some (combine a p))
                   None partials
                |> Option.get)
            end
        | Instr.ExtractLane (v, idx) -> (
            let cs = chunks_of_operand v ~ty:(oty v) in
            if Array.length cs = 1 then
              Hashtbl.replace smap i.id
                (emit ty (Instr.ExtractLane (cs.(0), scalar_of idx)))
            else
              match Instr.const_int_value idx with
              | Some k ->
                  let c = Int64.to_int k / lanes_per_chunk in
                  let off = Int64.to_int k mod lanes_per_chunk in
                  Hashtbl.replace smap i.id
                    (emit ty (Instr.ExtractLane (cs.(c), Instr.ci32 off)))
              | None -> unsup "dynamic extractlane across chunks")
        | Instr.FirstLane v ->
            let cs = chunks_of_operand v ~ty:(oty v) in
            if Array.length cs = 1 then
              Hashtbl.replace smap i.id (emit ty (Instr.FirstLane cs.(0)))
            else begin
              (* first active lane across chunks: firstlane per chunk and
                 select the first non-negative, offset by chunk base *)
              let result =
                Array.to_list cs
                |> List.mapi (fun c chunk ->
                       (c, emit Types.i32 (Instr.FirstLane chunk)))
                |> List.rev
                |> List.fold_left
                     (fun acc (c, fl) ->
                       let found =
                         emit Types.bool_
                           (Instr.Icmp (Instr.Sge, fl, Instr.ci32 0))
                       in
                       let adjusted =
                         emit Types.i32
                           (Instr.Ibin
                              (Instr.Add, fl, Instr.ci32 (c * lanes_per_chunk)))
                       in
                       emit Types.i32 (Instr.Select (found, adjusted, acc)))
                     (Instr.ci32 (-1))
              in
              Hashtbl.replace smap i.id result
            end
        | _ -> copy_scalar ())
    | Instr.Store (v, p) ->
        ignore
          (emit Types.Void (Instr.Store (scalar_of v, scalar_of p)))
    | Instr.VStore (v, p, mask) ->
        let vty = oty v in
        let cs = chunks_of_operand v ~ty:vty in
        let ms =
          Option.map (fun m -> chunks_of_operand m ~ty:(oty m)) mask
        in
        Array.iteri
          (fun c chunk ->
            let addr =
              if c = 0 then scalar_of p
              else
                emit (oty p)
                  (Instr.Gep (scalar_of p, Instr.ci64 (c * lanes_per_chunk)))
            in
            ignore
              (emit Types.Void
                 (Instr.VStore (chunk, addr, Option.map (fun m -> m.(c)) ms))))
          cs
    | Instr.Scatter (v, base, idx, mask) ->
        let cs = chunks_of_operand v ~ty:(oty v) in
        let is = chunks_of_operand idx ~ty:(oty idx) in
        let ms = Option.map (fun m -> chunks_of_operand m ~ty:(oty m)) mask in
        Array.iteri
          (fun c chunk ->
            ignore
              (emit Types.Void
                 (Instr.Scatter
                    (chunk, scalar_of base, is.(c), Option.map (fun m -> m.(c)) ms))))
          cs
    | Instr.Call (name, args) when ty = Types.Void ->
        ignore (emit Types.Void (Instr.Call (name, List.map scalar_of args)))
    | Instr.VLoad (p, mask) ->
        let ms = Option.map (fun m -> chunks_of_operand m ~ty:(oty m)) mask in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               let addr =
                 if c = 0 then scalar_of p
                 else
                   emit (oty p)
                     (Instr.Gep (scalar_of p, Instr.ci64 (c * lanes_per_chunk)))
               in
               emit (chunk_ty ty c)
                 (Instr.VLoad (addr, Option.map (fun m -> m.(c)) ms))))
    | Instr.Gather (base, idx, mask) ->
        let is = chunks_of_operand idx ~ty:(oty idx) in
        let ms = Option.map (fun m -> chunks_of_operand m ~ty:(oty m)) mask in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c)
                 (Instr.Gather
                    (scalar_of base, is.(c), Option.map (fun m -> m.(c)) ms))))
    | Instr.Splat (a, _) ->
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c)
                 (Instr.Splat (scalar_of a, Types.lanes (chunk_ty ty c)))))
    | Instr.Ibin (k, a, b2) ->
        let ca = chunks_of_operand a ~ty:(oty a)
        and cb = chunks_of_operand b2 ~ty:(oty b2) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Ibin (k, ca.(c), cb.(c)))))
    | Instr.Fbin (k, a, b2) ->
        let ca = chunks_of_operand a ~ty:(oty a)
        and cb = chunks_of_operand b2 ~ty:(oty b2) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Fbin (k, ca.(c), cb.(c)))))
    | Instr.Iun (k, a) ->
        let ca = chunks_of_operand a ~ty:(oty a) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Iun (k, ca.(c)))))
    | Instr.Fun (k, a) ->
        let ca = chunks_of_operand a ~ty:(oty a) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Fun (k, ca.(c)))))
    | Instr.Icmp (k, a, b2) ->
        let ca = chunks_of_operand a ~ty:(oty a)
        and cb = chunks_of_operand b2 ~ty:(oty b2) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Icmp (k, ca.(c), cb.(c)))))
    | Instr.Fcmp (k, a, b2) ->
        let ca = chunks_of_operand a ~ty:(oty a)
        and cb = chunks_of_operand b2 ~ty:(oty b2) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Fcmp (k, ca.(c), cb.(c)))))
    | Instr.Select (c0, a, b2) ->
        let cc =
          match oty c0 with
          | Types.Vec _ -> `V (chunks_of_operand c0 ~ty:(oty c0))
          | _ -> `S (scalar_of c0)
        in
        let ca = chunks_of_operand a ~ty:(oty a)
        and cb = chunks_of_operand b2 ~ty:(oty b2) in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               let cond = match cc with `V m -> m.(c) | `S s -> s in
               emit (chunk_ty ty c) (Instr.Select (cond, ca.(c), cb.(c)))))
    | Instr.Cast (k, a, _) ->
        let ca = chunks_of_operand a ~ty:(oty a) in
        if Array.length ca <> nchunks then
          unsup "cast changes chunking (%d -> %d)" (Array.length ca) nchunks;
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               emit (chunk_ty ty c) (Instr.Cast (k, ca.(c), chunk_ty ty c))))
    | Instr.Phi incoming ->
        if Types.is_vector ty then
          Hashtbl.replace vmap i.id
            (Array.init nchunks (fun c ->
                 emit (chunk_ty ty c)
                   (Instr.Phi
                      (List.map (fun (l, _) -> (l, Instr.ci32 0)) incoming))))
          (* placeholders patched in a second pass (see below) *)
        else
          Hashtbl.replace smap i.id
            (emit ty (Instr.Phi (List.map (fun (l, _) -> (l, Instr.ci32 0)) incoming)))
    | Instr.Shuffle (a, b2, idx) ->
        (* general cross-chunk shuffle: build each output chunk lane by
           lane with extract/insert — the fully general (and costly)
           lowering, as on hardware without cross-register permutes *)
        let ca = chunks_of_operand a ~ty:(oty a) in
        let cb = chunks_of_operand b2 ~ty:(oty b2) in
        let n_in = Types.lanes (oty a) in
        let pick l =
          if l < n_in then (ca, l) else (cb, l - n_in)
        in
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               let cty = chunk_ty ty c in
               let cl = Types.lanes cty in
               let zero =
                 if Types.is_float cty then
                   emit cty
                     (Instr.Splat (Instr.Const (Instr.Cfloat (Types.elem cty, 0.0)), cl))
                 else Instr.cvec (Types.elem cty) (Array.make cl 0L)
               in
               let acc = ref zero in
               for l = 0 to cl - 1 do
                 let src = idx.((c * lanes_per_chunk) + l) in
                 if src >= 0 then begin
                   let arr, g = pick src in
                   let sc = g / lanes_per_chunk and so = g mod lanes_per_chunk in
                   let v =
                     emit (Types.Scalar (Types.elem cty))
                       (Instr.ExtractLane (arr.(sc), Instr.ci32 so))
                   in
                   acc := emit cty (Instr.InsertLane (!acc, v, Instr.ci32 l))
                 end
               done;
               !acc))
    | Instr.ShuffleDyn (a, idx) ->
        (* dynamic any-to-any exchange across registers: lower through a
           stack slot (spill the chunks, gather with the index vector) —
           the standard fallback when no cross-register permute exists *)
        let ca = chunks_of_operand a ~ty:(oty a) in
        let is = chunks_of_operand idx ~ty:(oty idx) in
        let s = Types.elem ty in
        let n = Types.lanes (oty a) in
        let slot = emit (Types.Ptr s) (Instr.Alloca (s, n)) in
        Array.iteri
          (fun c chunk ->
            let addr =
              if c = 0 then slot
              else
                emit (Types.Ptr s)
                  (Instr.Gep (slot, Instr.ci64 (c * lanes_per_chunk)))
            in
            ignore (emit Types.Void (Instr.VStore (chunk, addr, None))))
          ca;
        Hashtbl.replace vmap i.id
          (Array.init nchunks (fun c ->
               (* wrap indices modulo the lane count, as ShuffleDyn does *)
               let wrapped =
                 emit (Func.ty_of_operand nf is.(c))
                   (Instr.Ibin
                      ( Instr.And,
                        is.(c),
                        Instr.cvec
                          (Types.elem (Func.ty_of_operand nf is.(c)))
                          (Array.make
                             (Types.lanes (Func.ty_of_operand nf is.(c)))
                             (Int64.of_int (n - 1))) ))
               in
               emit (chunk_ty ty c) (Instr.Gather (slot, wrapped, None))))
    | Instr.Psadbw (a, b2) ->
        let ca = chunks_of_operand a ~ty:(oty a) in
        let cb = chunks_of_operand b2 ~ty:(oty b2) in
        (* each u8 chunk yields lanes/8 i64 group sums; a chunk that
           splits an 8-byte group has no psadbw *)
        let lanes_of c = Types.lanes (Func.ty_of_operand nf c) in
        Array.iter
          (fun c ->
            if lanes_of c mod 8 <> 0 then
              unsup "psadbw: a %d-lane chunk splits its 8-byte groups" (lanes_of c))
          ca;
        let parts =
          Array.mapi
            (fun c chunk ->
              emit (Types.Vec (Types.I64, lanes_of chunk / 8)) (Instr.Psadbw (chunk, cb.(c))))
            ca
        in
        if Array.length parts = 1 then Hashtbl.replace vmap i.id parts
        else begin
          (* regroup the group sums into result chunks via extract/insert *)
          let sums =
            Array.concat
              (Array.to_list
                 (Array.map (fun part -> Array.init (lanes_of part) (fun g -> (part, g))) parts))
          in
          Hashtbl.replace vmap i.id
            (Array.init nchunks (fun c ->
                 let cty = chunk_ty ty c in
                 let acc = ref (Instr.cvec Types.I64 (Array.make (Types.lanes cty) 0L)) in
                 for l = 0 to Types.lanes cty - 1 do
                   let part, g = sums.((c * lanes_per_chunk) + l) in
                   let v = emit Types.i64 (Instr.ExtractLane (part, Instr.ci32 g)) in
                   acc := emit cty (Instr.InsertLane (!acc, v, Instr.ci32 l))
                 done;
                 !acc))
        end
    | op -> unsup "legalize: %a" Printer.pp_op op
  in
  (* first pass: translate instructions *)
  List.iteri
    (fun k (blk : Func.block) ->
      if k > 0 then Builder.position b (Builder.add_block b blk.bname);
      List.iter legalize_instr blk.instrs;
      Builder.set_term b (Instr.map_term_operands scalar_of blk.term))
    f.blocks;
  Builder.finish b;
  (* second pass: patch phi incomings now that all values are mapped *)
  List.iter2
    (fun (blk : Func.block) (nb : Func.block) ->
      List.iter
        (fun (i : Instr.instr) ->
          match i.op with
          | Instr.Phi incoming -> (
              match Hashtbl.find_opt vmap i.id with
              | Some chunk_ids ->
                  Array.iteri
                    (fun c chunk_op ->
                      match chunk_op with
                      | Instr.Var cid ->
                          nb.instrs <-
                            List.map
                              (fun (ni : Instr.instr) ->
                                if ni.id <> cid then ni
                                else
                                  {
                                    ni with
                                    op =
                                      Instr.Phi
                                        (List.map
                                           (fun (l, v) ->
                                             ( l,
                                               (chunks_of_operand v
                                                  ~ty:(Func.ty_of_operand f v)).(c)
                                             ))
                                           incoming);
                                  })
                              nb.instrs
                      | _ -> ())
                    chunk_ids
              | None -> (
                  match Hashtbl.find_opt smap i.id with
                  | Some (Instr.Var nid) ->
                      nb.instrs <-
                        List.map
                          (fun (ni : Instr.instr) ->
                            if ni.id <> nid then ni
                            else
                              {
                                ni with
                                op =
                                  Instr.Phi
                                    (List.map
                                       (fun (l, v) -> (l, scalar_of v))
                                       incoming);
                              })
                          nb.instrs
                  | _ -> ()))
          | _ -> ())
        blk.instrs)
    f.blocks nf.blocks;
  nf

(** Largest vector lane count in a function (diagnostics / tests). *)
let max_vector_bits (f : Func.t) =
  Func.fold_instrs f 0 (fun acc _ i ->
      match i.Instr.ty with
      | Types.Vec (s, n) when s <> Types.I1 -> max acc (Types.scalar_bits s * n)
      | _ -> acc)

let legalize_module (m : Func.modul) =
  Pobs.Trace.with_span ~cat:"pass" "legalize" (fun () ->
      m.funcs <-
        List.map
          (fun f ->
            try legalize_func f
            with Unsupported reason ->
              Pobs.Remarks.(emit Missed ~pass:"legalize" ~func:f.Func.fname)
                "function left unlegalized: %s" reason;
              f)
          m.funcs)
