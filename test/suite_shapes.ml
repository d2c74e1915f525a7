(* Focused tests for shape analysis: classification of the paper's
   §4.2.2 examples, rule-driven indexed propagation, divergence forcing,
   and the SoA alloca layout. *)

open Pir

let compile_spmd src =
  let m = Pfrontend.Lower.compile src in
  List.find (fun f -> f.Func.spmd <> None) m.Func.funcs

let shapes_of src =
  let f = compile_spmd src in
  let info = Pshapes.Shapes.analyze f in
  (f, info)

(* find the shape of the value stored to out[...] (the last store's
   value operand) *)
let stored_shape (f : Func.t) info =
  let result = ref None in
  Func.iter_instrs f (fun _ i ->
      match i.Instr.op with
      | Instr.Store (v, _) -> result := Some (Pshapes.Shapes.shape_of info v)
      | _ -> ());
  Option.get !result

let check_uniform what s =
  Alcotest.(check bool) (what ^ " is uniform") true (Pshapes.Shapes.is_uniform s)

let check_stride what expected s =
  match Pshapes.Shapes.stride_of s with
  | Some d -> Alcotest.(check int64) (what ^ " stride") expected d
  | None -> Alcotest.failf "%s is not strided (%a)" what Pshapes.Shapes.pp_shape s

let check_varying what s =
  Alcotest.(check bool) (what ^ " is varying") true (not (Pshapes.Shapes.is_indexed s))

let test_basic_classification () =
  let f, info =
    shapes_of
      {|
void k(int32* a, int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int64 two_i = 2 * i;
    int64 masked = i & 7;
    int64 uni = psim_num_threads() * 3;
    int32 data = a[i];
    out[i] = (int32)(two_i + masked + uni) + data;
  }
}
|}
  in
  let shape_by_op pred =
    let r = ref None in
    Func.iter_instrs f (fun _ i ->
        if pred i then r := Some (Pshapes.Shapes.shape_of info (Instr.Var i.Instr.id)));
    Option.get !r
  in
  (* thread_num = gang*G + lane: stride 1 *)
  let tn =
    shape_by_op (fun i ->
        match i.Instr.op with
        | Instr.Ibin (Instr.Add, _, _) when i.Instr.ty = Types.i64 -> false
        | Instr.Call (n, _) -> n = Intrinsics.lane_num
        | _ -> false)
  in
  check_stride "lane_num" 1L tn;
  (* 2 * i: stride 2 via mul.const *)
  let mul2 =
    shape_by_op (fun i ->
        match i.Instr.op with
        | Instr.Ibin (Instr.Mul, Instr.Const (Instr.Cint (_, 2L)), _) -> true
        | Instr.Ibin (Instr.Mul, _, Instr.Const (Instr.Cint (_, 2L))) -> true
        | _ -> false)
  in
  check_stride "2*i" 2L mul2;
  (* i & 7 with gang 8: lane bits exactly -> indexed iota (and.low_mask) *)
  let anded =
    shape_by_op (fun i ->
        match i.Instr.op with Instr.Ibin (Instr.And, _, _) -> true | _ -> false)
  in
  check_stride "i & 7" 1L anded;
  (* loads of per-lane addresses are varying *)
  let loaded =
    shape_by_op (fun i ->
        match i.Instr.op with Instr.Load _ -> true | _ -> false)
  in
  check_varying "a[i]" loaded;
  Alcotest.(check bool) "and.low_mask fired" true
    (Hashtbl.mem info.Pshapes.Shapes.rule_hits "and.low_mask")

let test_uniform_propagation () =
  let f, info =
    shapes_of
      {|
void k(int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 g = (int64)psim_gang_num();
    int64 u = g * 12 + (int64)psim_gang_size();
    int32 acc = 0;
    for (int32 j = 0; j < 5; j = j + 1) {
      acc = acc + (int32)u;
    }
    out[psim_thread_num()] = acc;
  }
}
|}
  in
  (* the loop counter and the accumulator are uniform: the loop stays a
     scalar loop *)
  Func.iter_instrs f (fun _ i ->
      match i.Instr.op with
      | Instr.Phi _ ->
          check_uniform "loop-carried phi"
            (Pshapes.Shapes.shape_of info (Instr.Var i.Instr.id))
      | _ -> ());
  ignore (stored_shape f info)

let test_divergence_forcing () =
  let f, info =
    shapes_of
      {|
void k(int32* a, int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = a[i];
    int32 c = 0;
    while (c < x) {
      c = c + 1;
    }
    out[i] = c;
  }
}
|}
  in
  (* varying exit condition: the loop-carried counter must be varying
     (it needs per-lane exit blending) *)
  Func.iter_instrs f (fun _ i ->
      match i.Instr.op with
      | Instr.Phi _ when i.Instr.ty = Types.i32 ->
          check_varying "divergent loop phi"
            (Pshapes.Shapes.shape_of info (Instr.Var i.Instr.id))
      | _ -> ())

let test_soa_alloca_shape () =
  let f, info =
    shapes_of
      {|
void k(int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int32 tmp[4];
    for (int32 j = 0; j < 4; j = j + 1) {
      tmp[(int64)j] = j * 2;
    }
    out[psim_thread_num()] = tmp[2];
  }
}
|}
  in
  (* the alloca pointer is lane-strided at element size (SoA layout) and
     geps at uniform indices preserve that, so accesses stay packed *)
  Func.iter_instrs f (fun _ i ->
      match i.Instr.op with
      | Instr.Alloca _ ->
          check_stride "alloca pointer" 4L
            (Pshapes.Shapes.shape_of info (Instr.Var i.Instr.id))
      | _ -> ());
  (* and the vectorizer turns them into packed accesses, not gathers *)
  let nf, report = Parsimony.Vectorizer.vectorize_func f in
  Panalysis.Check.check_func nf;
  Alcotest.(check int) "no gathers" 0 report.Parsimony.Vectorizer.gathers;
  Alcotest.(check int) "no scatters" 0 report.Parsimony.Vectorizer.scatters

(* the §4.2.2 multiplication example: indexed*indexed only with constant
   bases *)
let test_mul_indexed_needs_const_bases () =
  let _, info =
    shapes_of
      {|
void k(int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 l = (int64)psim_lane_num();
    int64 sq = l * l;        // both bases are the constant 0: stays indexed
    int64 t = psim_thread_num();
    int64 bad = t * t;       // base gang*G is not a compile-time constant
    out[t] = (int32)(sq + bad);
  }
}
|}
  in
  Alcotest.(check bool) "mul.both_const_bases fired" true
    (Hashtbl.mem info.Pshapes.Shapes.rule_hits "mul.both_const_bases")

(* rule_hits counts each instruction once, by the rule of its last
   transfer: saxpy has one indexed add (gang*16 + lane) and one constant
   multiply (gang*16) *)
let test_rule_hits_once () =
  let _, info =
    shapes_of
      {|
void saxpy(float32* x, float32* y, float32 a, int64 n) {
  psim gang_size(16) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}
  in
  let hits =
    Hashtbl.fold (fun r n acc -> (r, n) :: acc) info.Pshapes.Shapes.rule_hits []
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int)))
    "rule hits" [ ("add.indexed", 1); ("mul.const", 1) ] hits

(* the phi of [h] in a loop that rotates [nvars] loop-carried values
   a <- b <- ... <- h <- (j & 255): h's range [0, 255] reaches one more
   value per pass *)
let rotation_phi_facts nvars =
  let vars = List.init nvars (fun k -> String.make 1 (Char.chr (Char.code 'a' + k))) in
  let last = List.nth vars (nvars - 1) in
  let src =
    Fmt.str
      {|
void k(int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    %s
    for (int32 j = 0; j < 10; j = j + 1) {
      %s
      %s = j & 255;
    }
    out[psim_thread_num()] = %s;
  }
}
|}
      (String.concat " " (List.map (fun v -> Fmt.str "int32 %s = 0;" v) vars))
      (String.concat " "
         (List.map2 (fun v w -> Fmt.str "%s = %s + 1;" v w)
            (List.filteri (fun k _ -> k < nvars - 1) vars)
            (List.tl vars)))
      last
      (String.concat " + " vars)
  in
  let f, info = shapes_of src in
  let masked =
    Func.fold_instrs f None (fun acc _ i ->
        match i.Instr.op with Instr.Ibin (Instr.And, _, _) -> Some i.Instr.id | _ -> acc)
    |> Option.get
  in
  let phi =
    Func.fold_instrs f None (fun acc _ i ->
        match i.Instr.op with
        | Instr.Phi inc when List.exists (fun (_, o) -> o = Instr.Var masked) inc ->
            Some i.Instr.id
        | _ -> acc)
    |> Option.get
  in
  Pshapes.Shapes.facts_of info (Instr.Var phi)

(* the range still spreads after pass 6: widening switches on at pass 7
   and must re-run every phi, also those whose operands did not change *)
let test_widening_reruns_phis () =
  let short = rotation_phi_facts 3 and long = rotation_phi_facts 8 in
  Alcotest.(check (option (pair int64 int64)))
    "converged before pass 7: range kept" (Some (0L, 255L)) short.Psmt.Facts.range;
  Alcotest.(check (option (pair int64 int64)))
    "still changing at pass 7: range widened" None long.Psmt.Facts.range

(* a varying condition forces its join phi in the second round; a gep
   and a load that depend on the phi turn varying with it *)
let test_if_join_forced () =
  let f, info =
    shapes_of
      {|
void k(int32* a, int32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int64 j = 0;
    if (a[i] > 0) { j = 1; } else { j = 2; }
    out[i] = a[j];
  }
}
|}
  in
  let shape_of_op pred =
    Func.fold_instrs f None (fun acc _ i ->
        if pred i.Instr.op then Some (Pshapes.Shapes.shape_of info (Instr.Var i.Instr.id))
        else acc)
    |> Option.get
  in
  check_varying "join phi"
    (shape_of_op (function Instr.Phi _ -> true | _ -> false));
  check_varying "gep a[j]"
    (shape_of_op (function Instr.Gep (Instr.Var 0, Instr.Var _) -> true | _ -> false));
  (* the load through a[j] is the last load *)
  let loads =
    Func.fold_instrs f [] (fun acc _ i ->
        match i.Instr.op with Instr.Load _ -> i.Instr.id :: acc | _ -> acc)
  in
  check_varying "load a[j]" (Pshapes.Shapes.shape_of info (Instr.Var (List.hd loads)))

(* a varying loop exit forces a header value that is used after the loop
   (it needs per-lane exit blending); a header value used only inside
   stays uniform *)
let test_loop_live_out_forced () =
  let f =
    Func.create "liveout"
      ~params:[ (0, Types.Ptr Types.I32); (1, Types.i64); (2, Types.i64); (3, Types.i64) ]
      ~ret:Types.Void ~spmd:{ Func.gang_size = 8; partial = false }
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let i = Builder.add b (Builder.mul b (Instr.Var 2) (Instr.ci64 8)) lane in
  let x = Builder.load b (Builder.gep b (Instr.Var 0) i) in
  Builder.br b "h";
  let bh = Builder.add_block b "h" in
  Builder.position b bh;
  let cnt = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let live = Builder.add b (Instr.Var 1) (Instr.ci64 1) in
  let inside = Builder.mul b (Instr.Var 1) (Instr.ci64 2) in
  let c = Builder.icmp b Instr.Slt cnt x in
  Builder.condbr b c "body" "x";
  let bb = Builder.add_block b "body" in
  Builder.position b bb;
  let cnt' = Builder.add b cnt (Instr.ci32 1) in
  ignore (Builder.add b inside (Instr.ci64 1));
  Builder.br b "h";
  Builder.add_incoming b bh (match cnt with Instr.Var v -> v | _ -> assert false)
    [ ("body", cnt') ];
  let bx = Builder.add_block b "x" in
  Builder.position b bx;
  Builder.store b (Builder.cast b Instr.Trunc live Types.i32) (Builder.gep b (Instr.Var 0) i);
  Builder.ret_void b;
  Builder.finish b;
  Panalysis.Check.check_func f;
  let info = Pshapes.Shapes.analyze f in
  check_varying "loop phi" (Pshapes.Shapes.shape_of info cnt);
  check_varying "live-out" (Pshapes.Shapes.shape_of info live);
  check_uniform "header value used inside" (Pshapes.Shapes.shape_of info inside)

let suites =
  [
    ( "shapes",
      [
        Alcotest.test_case "uniform / strided / varying classification" `Quick
          test_basic_classification;
        Alcotest.test_case "uniform loops stay scalar" `Quick test_uniform_propagation;
        Alcotest.test_case "divergent loop forcing" `Quick test_divergence_forcing;
        Alcotest.test_case "SoA alloca stays packed" `Quick test_soa_alloca_shape;
        Alcotest.test_case "indexed multiply needs constant bases" `Quick
          test_mul_indexed_needs_const_bases;
        Alcotest.test_case "rule hits count each instruction once" `Quick
          test_rule_hits_once;
        Alcotest.test_case "widening re-runs unchanged phis" `Quick
          test_widening_reruns_phis;
        Alcotest.test_case "if-join phi forced in a second round" `Quick
          test_if_join_forced;
        Alcotest.test_case "loop live-out forced by a varying exit" `Quick
          test_loop_live_out_forced;
      ] );
  ]
