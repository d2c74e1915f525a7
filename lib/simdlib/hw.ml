(** Builder combinators for the hand-written (intrinsics-style) kernel
    implementations.

    These play the role of the Simd Library's AVX-512 template code:
    each family (map / stencil / reduction / reorder) is a combinator
    that emits a machine-width vector loop plus a scalar tail, and each
    kernel instantiates it with its per-lane operation — written
    directly against the vector IR, exactly like intrinsics code is
    written against [_mm512_*]. *)

open Pir

let machine_bits = 512

(** Natural machine vector length for an element kind. *)
let vl_of (s : Types.scalar) = machine_bits / Types.scalar_bits s

(** Emit a counted loop [for iv = start; iv < stop; iv += step] with
    loop-carried values [accs]; [body] receives the induction variable
    and current accumulator values and returns their next values.
    Returns the final accumulator values (visible after the loop). *)
let counted_loop (b : Builder.t) ~start ~stop ~step ~accs ~body :
    Instr.operand list =
  let pre = Builder.current b in
  let hdr = Builder.fresh_block b "hw.hdr" in
  let bod = Builder.fresh_block b "hw.body" in
  let ext = Builder.fresh_block b "hw.exit" in
  Builder.br b hdr.bname;
  Builder.position b hdr;
  let iv = Builder.phi b Types.i64 [ (pre.bname, start) ] in
  let acc_phis =
    List.map (fun (ty, init) -> Builder.phi b ty [ (pre.bname, init) ]) accs
  in
  let c = Builder.icmp b Instr.Slt iv stop in
  Builder.condbr b c bod.bname ext.bname;
  Builder.position b bod;
  let next_accs = body b ~iv ~accs:acc_phis in
  let iv' = Builder.add b iv (Instr.ci64 step) in
  let latch = Builder.current b in
  Builder.br b hdr.bname;
  let patch phi_op extra =
    let id = match phi_op with Instr.Var v -> v | _ -> assert false in
    Builder.add_incoming b hdr id [ extra ]
  in
  patch iv (latch.bname, iv');
  List.iter2 (fun p n -> patch p (latch.bname, n)) acc_phis next_accs;
  Builder.position b ext;
  acc_phis

(** Vector main loop over [n] elements at [vl] lanes plus a scalar tail.
    [vec_body b i] processes elements [i, i+vl); [scalar_body b j]
    processes element [j]. *)
let strip_mined_loop (b : Builder.t) ~n ~vl ~vec_body ~scalar_body =
  let nvec =
    Builder.and_ b n (Instr.ci64 (lnot (vl - 1)))
  in
  ignore
    (counted_loop b ~start:(Instr.ci64 0) ~stop:nvec ~step:vl ~accs:[]
       ~body:(fun b ~iv ~accs ->
         vec_body b iv;
         accs));
  ignore
    (counted_loop b ~start:nvec ~stop:n ~step:1 ~accs:[]
       ~body:(fun b ~iv ~accs ->
         scalar_body b iv;
         accs))

(** Same, with vector accumulators reduced after the main loop and
    carried (as scalars) through the tail.  [finish] receives the final
    scalar accumulator values. *)
let strip_mined_reduce (b : Builder.t) ~n ~vl ~acc_specs ~vec_body ~reduce_kinds
    ~scalar_body ~finish =
  let nvec = Builder.and_ b n (Instr.ci64 (lnot (vl - 1))) in
  let final_vec_accs =
    counted_loop b ~start:(Instr.ci64 0) ~stop:nvec ~step:vl ~accs:acc_specs
      ~body:vec_body
  in
  let scalars =
    List.map2 (fun k acc -> Builder.reduce b k acc) reduce_kinds final_vec_accs
  in
  let scalar_acc_specs =
    List.map (fun s -> (Builder.ty_of b s, s)) scalars
  in
  let final_scalars =
    counted_loop b ~start:nvec ~stop:n ~step:1 ~accs:scalar_acc_specs
      ~body:scalar_body
  in
  finish b final_scalars

(* -- function scaffolding -- *)

(** Create a function [(ptr params) (scalar params) (n : i64) -> void]
    and hand the builder plus parameter operands to [emit]. *)
let define m name ~ptrs ~scalars ~emit =
  let nptr = List.length ptrs and nsc = List.length scalars in
  let params =
    List.mapi (fun i s -> (i, Types.Ptr s)) ptrs
    @ List.mapi (fun i t -> (nptr + i, t)) scalars
    @ [ (nptr + nsc, Types.i64) ]
  in
  let f = Func.create name ~params ~ret:Types.Void in
  let b = Builder.create f in
  let ptr_ops = List.mapi (fun i _ -> Instr.Var i) ptrs in
  let scalar_ops = List.mapi (fun i _ -> Instr.Var (nptr + i)) scalars in
  let n = Instr.Var (nptr + nsc) in
  emit b ~ptrs:ptr_ops ~scalars:scalar_ops ~n;
  Builder.ret_void b;
  Builder.finish b;
  Func.add_func m f

(* -- the family combinators -- *)

(** Element-wise map: [out[i] = op(in_0[i], ..., in_k[i])].  All arrays
    share element kind [elem]; [vop]/[sop] build the vector and scalar
    versions of the operation (they usually share code via [Builder]
    polymorphism over scalar/vector operands). *)
let map m name ~elem ~inputs ~vop ~sop =
  define m name
    ~ptrs:(List.init inputs (fun _ -> elem) @ [ elem ])
    ~scalars:[]
    ~emit:(fun b ~ptrs ~scalars:_ ~n ->
      let vl = vl_of elem in
      let ins, out =
        match List.rev ptrs with
        | out :: rins -> (List.rev rins, out)
        | [] -> assert false
      in
      strip_mined_loop b ~n ~vl
        ~vec_body:(fun b i ->
          let vs =
            List.map
              (fun p ->
                let addr = Builder.gep b p i in
                Builder.vload b addr vl)
              ins
          in
          let r = vop b vs in
          Builder.vstore b r (Builder.gep b out i))
        ~scalar_body:(fun b j ->
          let vs = List.map (fun p -> Builder.load b (Builder.gep b p j)) ins in
          let r = sop b vs in
          Builder.store b r (Builder.gep b out j)))

(** In-place variants where the last input is also the output
    ([dst = op(srcs..., dst)]). *)
let map_inplace m name ~elem ~inputs ~vop ~sop =
  define m name
    ~ptrs:(List.init inputs (fun _ -> elem) @ [ elem ])
    ~scalars:[]
    ~emit:(fun b ~ptrs ~scalars:_ ~n ->
      let vl = vl_of elem in
      let ins, out =
        match List.rev ptrs with
        | out :: rins -> (List.rev rins, out)
        | [] -> assert false
      in
      strip_mined_loop b ~n ~vl
        ~vec_body:(fun b i ->
          let addr_out = Builder.gep b out i in
          let vs =
            List.map (fun p -> Builder.vload b (Builder.gep b p i) vl) ins
            @ [ Builder.vload b addr_out vl ]
          in
          Builder.vstore b (vop b vs) addr_out)
        ~scalar_body:(fun b j ->
          let addr_out = Builder.gep b out j in
          let vs =
            List.map (fun p -> Builder.load b (Builder.gep b p j)) ins
            @ [ Builder.load b addr_out ]
          in
          Builder.store b (sop b vs) addr_out))

(* -- interleaved access helpers (intrinsics-style shuffle networks) -- *)

(* combine consecutive loaded vectors so lane l of the result is element
   [picks.(l)] of their concatenation; picks must be non-decreasing when
   more than two vectors are involved *)
let rec combine_picks (b : Builder.t) ~vl (vs : Instr.operand list)
    (picks : int array) : Instr.operand =
  match vs with
  | [] -> invalid_arg "Hw.combine_picks"
  | [ v ] -> Builder.shuffle b v v (Array.map (fun p -> min p (vl - 1)) picks)
  | [ v0; v1 ] -> Builder.shuffle b v0 v1 picks
  | _ ->
      let n = List.length vs in
      let half = (n + 1) / 2 in
      let split =
        let s = ref (Array.length picks) in
        Array.iteri (fun l p -> if p >= half * vl && l < !s then s := l) picks;
        !s
      in
      let left = Array.init (Array.length picks) (fun l -> if l < split then picks.(l) else 0) in
      let right =
        Array.init (Array.length picks) (fun l ->
            if l >= split then picks.(l) - (half * vl) else 0)
      in
      let lv = combine_picks b ~vl (List.filteri (fun i _ -> i < half) vs) left in
      let rv = combine_picks b ~vl (List.filteri (fun i _ -> i >= half) vs) right in
      Builder.shuffle b lv rv
        (Array.init (Array.length picks) (fun l -> if l < split then l else vl + l))

(** Load [k] interleaved channels of [vl] logical elements starting at
    element [i*k] of [ptr]: returns one vector per channel. *)
let deinterleave_load (b : Builder.t) ~vl ~k ptr i =
  let base = Builder.gep b ptr (Builder.mul b i (Instr.ci64 k)) in
  let vs =
    List.init k (fun j ->
        Builder.vload b
          (if j = 0 then base else Builder.gep b base (Instr.ci64 (j * vl)))
          vl)
  in
  List.init k (fun c ->
      combine_picks b ~vl vs (Array.init vl (fun l -> (l * k) + c)))

(** Store [k] channel vectors interleaved at element [i*k] of [ptr]. *)
let interleave_store (b : Builder.t) ~vl ~k ptr i (channels : Instr.operand list)
    =
  let base = Builder.gep b ptr (Builder.mul b i (Instr.ci64 k)) in
  for j = 0 to k - 1 do
    (* output vector j holds memory elements [j*vl, (j+1)*vl): element m
       comes from channel (m mod k), lane (m / k) *)
    let idx =
      Array.init vl (fun l ->
          let m = (j * vl) + l in
          ((m mod k) * vl) + (m / k))
    in
    (* build from pairs progressively: gather lanes from each channel via
       two-input shuffles over a concat tree *)
    let rec pick_from (chs : Instr.operand list) (idx : int array) =
      match chs with
      | [] -> invalid_arg "Hw.interleave_store"
      | [ c ] -> Builder.shuffle b c c (Array.map (fun p -> p mod vl) idx)
      | [ c0; c1 ] -> Builder.shuffle b c0 c1 idx
      | c0 :: rest ->
          (* select lanes from c0 where idx < vl, else from the rest *)
          let rest_v =
            pick_from rest (Array.map (fun p -> if p >= vl then p - vl else 0) idx)
          in
          Builder.shuffle b c0 rest_v
            (Array.init vl (fun l -> if idx.(l) < vl then idx.(l) else vl + l))
    in
    let v = pick_from channels idx in
    Builder.vstore b v
      (if j = 0 then base else Builder.gep b base (Instr.ci64 (j * vl)))
  done
