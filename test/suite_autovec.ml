(* Tests for the auto-vectorization baseline: legality decisions must
   match the classic vectorizer behavior the paper describes, and
   transformed loops must preserve semantics bit-for-bit. *)

open Pir

let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

let compile src =
  let m = Pfrontend.Lower.compile src in
  Panalysis.Check.check_module m;
  m

let run ?(autovec = false) src ~host ~arrays ~scalars =
  let m = compile src in
  let reports = if autovec then Pautovec.Autovec.run_module m else [] in
  if autovec then Panalysis.Check.check_module m;
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let addrs =
    List.map
      (fun (s, vals) -> Pmachine.Memory.alloc_array mem s vals)
      arrays
  in
  let args =
    List.map (fun a -> Pmachine.Value.I (Int64.of_int a)) addrs @ scalars
  in
  ignore (Pmachine.Interp.run t host args);
  let out =
    List.map2
      (fun addr (s, vals) ->
        Pmachine.Memory.read_array mem s addr (Array.length vals))
      addrs arrays
  in
  (out, reports, Pmachine.Interp.stats t)

let i32s = Array.map (fun x -> Pmachine.Value.I (Int64.of_int x))

let host_report reports host =
  List.find (fun (r : Pautovec.Autovec.report) -> r.func = host) reports

let check_identical ~msg a b =
  List.iteri
    (fun i (x, y) ->
      Alcotest.check (Alcotest.array valt) (Fmt.str "%s: array %d" msg i) x y)
    (List.combine a b)

(* 1. restrict saxpy vectorizes at VF=16 and speeds up *)
let test_saxpy_vectorizes () =
  let src =
    {|
void saxpy(int32* restrict x, int32* restrict y, int32 a, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    y[i] = a * x[i] + y[i];
  }
}
|}
  in
  let arrays =
    [ (Types.I32, i32s (Array.init 100 (fun i -> i)));
      (Types.I32, i32s (Array.init 100 (fun i -> i * 2))) ]
  in
  let scalars = [ Pmachine.Value.I 7L; Pmachine.Value.I 100L ] in
  let ref_out, _, ref_stats = run src ~host:"saxpy" ~arrays ~scalars in
  let vec_out, reports, vec_stats =
    run ~autovec:true src ~host:"saxpy" ~arrays ~scalars
  in
  check_identical ~msg:"saxpy" ref_out vec_out;
  let r = host_report reports "saxpy" in
  (match Pautovec.Autovec.vectorized_loops r with
  | [ (_, vf) ] -> Alcotest.(check int) "VF = 512/32" 16 vf
  | _ -> Alcotest.fail "expected one vectorized loop");
  Alcotest.(check bool)
    (Fmt.str "autovec faster (%g vs %g)" vec_stats.cycles ref_stats.cycles)
    true
    (vec_stats.cycles < ref_stats.cycles /. 4.0)

(* 2. Listing 1: loop-carried dependence must NOT vectorize *)
let test_listing1_rejected () =
  let src =
    {|
void shift(int32* a, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    int32 tmp = a[i];
    a[i + 1] = tmp;
  }
}
|}
  in
  let arrays = [ (Types.I32, i32s (Array.init 32 (fun i -> i))) ] in
  let scalars = [ Pmachine.Value.I 31L ] in
  let ref_out, _, _ = run src ~host:"shift" ~arrays ~scalars in
  let vec_out, reports, _ = run ~autovec:true src ~host:"shift" ~arrays ~scalars in
  check_identical ~msg:"shift" ref_out vec_out;
  let r = host_report reports "shift" in
  Alcotest.(check int) "not vectorized" 0
    (List.length (Pautovec.Autovec.vectorized_loops r));
  match (List.hd r.loops).outcome with
  | Error (Pautovec.Autovec.Loop_carried _) -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Pautovec.Autovec.reason_to_string e)
  | Ok _ -> Alcotest.fail "should not vectorize"

(* 3. without restrict, two-pointer loops must not vectorize *)
let test_no_restrict_rejected () =
  let src =
    {|
void copy(int32* a, int32* b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    b[i] = a[i];
  }
}
|}
  in
  let _, reports, _ =
    run ~autovec:true src ~host:"copy"
      ~arrays:[ (Types.I32, i32s [| 1; 2; 3; 4 |]); (Types.I32, i32s [| 0; 0; 0; 0 |]) ]
      ~scalars:[ Pmachine.Value.I 4L ]
  in
  let r = host_report reports "copy" in
  match (List.hd r.loops).outcome with
  | Error (Pautovec.Autovec.May_alias _) -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Pautovec.Autovec.reason_to_string e)
  | Ok _ -> Alcotest.fail "should not vectorize without restrict"

(* 4. sum reduction vectorizes and matches *)
let test_reduction () =
  let src =
    {|
void total(int32* restrict a, int32* restrict out, int64 n) {
  int32 acc = 0;
  for (int64 i = 0; i < n; i = i + 1) {
    acc = acc + a[i];
  }
  out[0] = acc;
}
|}
  in
  let a = Array.init 77 (fun i -> (i * 3) mod 23) in
  let arrays = [ (Types.I32, i32s a); (Types.I32, i32s [| 0 |]) ] in
  let scalars = [ Pmachine.Value.I 77L ] in
  let ref_out, _, _ = run src ~host:"total" ~arrays ~scalars in
  let vec_out, reports, _ = run ~autovec:true src ~host:"total" ~arrays ~scalars in
  check_identical ~msg:"reduction" ref_out vec_out;
  let r = host_report reports "total" in
  Alcotest.(check int) "vectorized" 1
    (List.length (Pautovec.Autovec.vectorized_loops r))

(* 5. data-dependent inner while rejects vectorization (mandelbrot-like) *)
let test_divergent_loop_rejected () =
  let src =
    {|
void iters(int32* restrict a, int32* restrict b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    int32 x = a[i];
    int32 c = 0;
    while (x > 1) {
      x = x / 2;
      c = c + 1;
    }
    b[i] = c;
  }
}
|}
  in
  let arrays =
    [ (Types.I32, i32s [| 1; 8; 64; 3; 100; 7; 2; 9 |]);
      (Types.I32, i32s (Array.make 8 0)) ]
  in
  let scalars = [ Pmachine.Value.I 8L ] in
  let ref_out, _, _ = run src ~host:"iters" ~arrays ~scalars in
  let vec_out, reports, _ = run ~autovec:true src ~host:"iters" ~arrays ~scalars in
  check_identical ~msg:"divergent" ref_out vec_out;
  let r = host_report reports "iters" in
  (* the outer loop is not innermost; the inner loop has no supported
     bound: nothing vectorizes *)
  Alcotest.(check int) "nothing vectorized" 0
    (List.length (Pautovec.Autovec.vectorized_loops r))

(* 6. widest-type rule: u8 data with i32 intermediates gets VF=16, not 64 *)
let test_widest_type_rule () =
  let src =
    {|
void widen8(uint8* restrict a, uint8* restrict b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    int32 v = (int32)a[i];
    int32 w = v * 2 + 1;
    b[i] = (uint8)clamp(w, 0, 255);
  }
}
|}
  in
  let a = Array.init 64 (fun i -> (i * 7) mod 256) in
  let arrays = [ (Types.I8, i32s a); (Types.I8, i32s (Array.make 64 0)) ] in
  let scalars = [ Pmachine.Value.I 64L ] in
  let ref_out, _, _ = run src ~host:"widen8" ~arrays ~scalars in
  let vec_out, reports, _ = run ~autovec:true src ~host:"widen8" ~arrays ~scalars in
  check_identical ~msg:"widen8" ref_out vec_out;
  let r = host_report reports "widen8" in
  match Pautovec.Autovec.vectorized_loops r with
  | [ (_, vf) ] -> Alcotest.(check int) "VF limited by i32 intermediates" 16 vf
  | _ -> Alcotest.fail "expected one vectorized loop"

(* 7. odd trip counts exercise the scalar remainder loop *)
let test_remainder_loop () =
  let src =
    {|
void incr(int32* restrict a, int32* restrict b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    b[i] = a[i] + 1;
  }
}
|}
  in
  List.iter
    (fun n ->
      let a = Array.init 40 (fun i -> i * 3) in
      let arrays = [ (Types.I32, i32s a); (Types.I32, i32s (Array.make 40 0)) ] in
      let scalars = [ Pmachine.Value.I (Int64.of_int n) ] in
      let ref_out, _, _ = run src ~host:"incr" ~arrays ~scalars in
      let vec_out, _, _ = run ~autovec:true src ~host:"incr" ~arrays ~scalars in
      check_identical ~msg:(Fmt.str "n=%d" n) ref_out vec_out)
    [ 0; 1; 15; 16; 17; 31; 33; 40 ]

(* 8. loops calling libm are not vectorized (no -fveclib), but still
   execute correctly *)
let test_math_vectorizes () =
  let src =
    {|
void roots(float32* restrict a, float32* restrict b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    b[i] = sqrtf(a[i]) + 1.0;
  }
}
|}
  in
  let mkf = Array.map (fun x -> Pmachine.Value.F x) in
  let a = mkf (Array.init 32 (fun i -> float_of_int (i * i))) in
  let zero = mkf (Array.make 32 0.0) in
  let m = compile src in
  let reports = Pautovec.Autovec.run_module m in
  Panalysis.Check.check_module m;
  let r = host_report reports "roots" in
  Alcotest.(check int) "not vectorized (libm call)" 0
    (List.length (Pautovec.Autovec.vectorized_loops r));
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let aa = Pmachine.Memory.alloc_array mem Types.F32 a in
  let bb = Pmachine.Memory.alloc_array mem Types.F32 zero in
  ignore
    (Pmachine.Interp.run t "roots"
       [ Pmachine.Value.I (Int64.of_int aa); Pmachine.Value.I (Int64.of_int bb); Pmachine.Value.I 32L ]);
  let out = Pmachine.Memory.read_array mem Types.F32 bb 32 in
  Array.iteri
    (fun i v ->
      Alcotest.check valt (Fmt.str "b[%d]" i)
        (Pmachine.Value.F (float_of_int i +. 1.0))
        v)
    out

let suites =
  [
    ( "autovec",
      [
        Alcotest.test_case "saxpy vectorizes (restrict)" `Quick test_saxpy_vectorizes;
        Alcotest.test_case "Listing 1 rejected" `Quick test_listing1_rejected;
        Alcotest.test_case "no restrict rejected" `Quick test_no_restrict_rejected;
        Alcotest.test_case "add reduction" `Quick test_reduction;
        Alcotest.test_case "divergent inner loop rejected" `Quick
          test_divergent_loop_rejected;
        Alcotest.test_case "widest-type VF rule" `Quick test_widest_type_rule;
        Alcotest.test_case "remainder loop" `Quick test_remainder_loop;
        Alcotest.test_case "math library calls stay scalar" `Quick
          test_math_vectorizes;
      ] );
  ]
