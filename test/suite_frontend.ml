(* End-to-end tests of the PsimC front-end: parse -> desugar -> inline ->
   lower -> (SPMD reference | vectorize) -> execute, comparing the three
   execution strategies on the same inputs. *)

open Pir

let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

let compile src =
  let m = Pfrontend.Lower.compile src in
  Panalysis.Check.check_module m;
  m

(* Run [host] in a fresh interpreter after allocating i32 arrays; returns
   the contents of the arrays after the call. [vectorize] selects the
   execution strategy (reference executor vs Parsimony). *)
let run_i32 ?(vectorize = false) ?opts src ~host ~arrays ~scalars =
  let m = compile src in
  if vectorize then begin
    ignore (Parsimony.Vectorizer.run_module ?opts m);
    Panalysis.Check.check_module m
  end;
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let addrs =
    List.map (fun vals -> Pmachine.Memory.alloc_array mem Types.I32 vals) arrays
  in
  let args =
    List.map (fun a -> Pmachine.Value.I (Int64.of_int a)) addrs @ scalars
  in
  ignore (Pmachine.Interp.run t host args);
  List.map2
    (fun addr vals -> Pmachine.Memory.read_array mem Types.I32 addr (Array.length vals))
    addrs arrays

let check_both ?opts src ~host ~arrays ~scalars =
  let ref_out = run_i32 src ~host ~arrays ~scalars in
  let vec_out = run_i32 ~vectorize:true ?opts src ~host ~arrays ~scalars in
  List.iteri
    (fun i (r, v) ->
      Alcotest.check (Alcotest.array valt) (Fmt.str "array %d" i) r v)
    (List.combine ref_out vec_out);
  ref_out

let i32s = Array.map (fun x -> Pmachine.Value.I (Int64.of_int x))

(* -- parse/lex errors -- *)

let test_parse_error () =
  match Pfrontend.Lower.compile "void f( {" with
  | exception Pfrontend.Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_type_error () =
  match
    Pfrontend.Lower.compile
      "void f(float* a) { float32 x = a; }"
  with
  | exception Pfrontend.Lower.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected type error"

let test_return_in_psim_rejected () =
  match
    Pfrontend.Lower.compile
      "void f(int* a, int64 n) { psim gang_size(8) num_spmd_threads(n) { return; } }"
  with
  | exception Pfrontend.Lower.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected error for return in psim region"

let test_gang_size_must_be_const () =
  match
    Pfrontend.Lower.compile
      "void f(int* a, int64 n) { psim gang_size(n) num_spmd_threads(n) { int64 i = psim_thread_num(); } }"
  with
  | exception Pfrontend.Lower.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected error for non-constant gang size"

(* -- end-to-end semantics -- *)

let test_saxpy_like () =
  let src =
    {|
void kscale(int32* a, int32* b, int32 s, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    b[i] = a[i] * s + (int32)i;
  }
}
|}
  in
  let a = Array.init 24 (fun i -> (i * 5) mod 17) in
  let out =
    check_both src ~host:"kscale"
      ~arrays:[ i32s a; i32s (Array.make 24 0) ]
      ~scalars:[ Pmachine.Value.I 3L; Pmachine.Value.I 24L ]
  in
  (match out with
  | [ _; b ] ->
      Array.iteri
        (fun i v ->
          Alcotest.check valt (Fmt.str "b[%d]" i)
            (Pmachine.Value.I (Int64.of_int ((a.(i) * 3) + i)))
            v)
        b
  | _ -> assert false)

let test_tail_gang () =
  (* 19 threads, gang 8: two full gangs + one partial *)
  let src =
    {|
void fill(int32* a, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    a[i] = (int32)(i * 2);
  }
}
|}
  in
  let out =
    check_both src ~host:"fill"
      ~arrays:[ i32s (Array.make 24 999) ]
      ~scalars:[ Pmachine.Value.I 19L ]
  in
  (match out with
  | [ a ] ->
      Array.iteri
        (fun i v ->
          let expect = if i < 19 then i * 2 else 999 in
          Alcotest.check valt (Fmt.str "a[%d]" i)
            (Pmachine.Value.I (Int64.of_int expect))
            v)
        a
  | _ -> assert false)

let test_divergence_and_loops () =
  let src =
    {|
void countdown(int32* a, int32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = a[i];
    int32 steps = 0;
    while (x > 1) {
      if (x % 2 == 0) {
        x = x / 2;
      } else {
        x = 3 * x + 1;
      }
      steps = steps + 1;
      if (steps > 100) { break; }
    }
    b[i] = steps;
  }
}
|}
  in
  ignore
    (check_both src ~host:"countdown"
       ~arrays:
         [ i32s [| 1; 2; 3; 7; 27; 97; 8; 100; 5; 6; 11; 12; 13; 14; 15; 16 |];
           i32s (Array.make 16 0) ]
       ~scalars:[ Pmachine.Value.I 16L ])

let test_for_continue () =
  let src =
    {|
void sums(int32* a, int32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 acc = 0;
    for (int32 j = 0; j < 10; j = j + 1) {
      if (j == 5) { continue; }
      acc += a[i] + j;
    }
    b[i] = acc;
  }
}
|}
  in
  let a = Array.init 8 (fun i -> i) in
  let out =
    check_both src ~host:"sums"
      ~arrays:[ i32s a; i32s (Array.make 8 0) ]
      ~scalars:[ Pmachine.Value.I 8L ]
  in
  match out with
  | [ _; b ] ->
      Array.iteri
        (fun i v ->
          (* 9 iterations execute: sum of (a+j) for j in 0..9, j<>5 *)
          let expect = (9 * a.(i)) + (45 - 5) in
          Alcotest.check valt (Fmt.str "b[%d]" i)
            (Pmachine.Value.I (Int64.of_int expect))
            v)
        b
  | _ -> assert false

let test_shuffle_reverse () =
  let src =
    {|
void rev(int32* a, int32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    uint64 l = psim_lane_num();
    int32 v = a[psim_thread_num()];
    int32 r = psim_shuffle(v, 7 - l);
    b[psim_thread_num()] = r;
  }
}
|}
  in
  let a = Array.init 8 (fun i -> i * 10) in
  let out =
    check_both src ~host:"rev"
      ~arrays:[ i32s a; i32s (Array.make 8 0) ]
      ~scalars:[ Pmachine.Value.I 8L ]
  in
  match out with
  | [ _; b ] ->
      Array.iteri
        (fun i v ->
          Alcotest.check valt (Fmt.str "b[%d]" i)
            (Pmachine.Value.I (Int64.of_int a.(7 - i)))
            v)
        b
  | _ -> assert false

let test_inline_user_function () =
  let src =
    {|
inline int32 square_plus(int32 x, int32 y) {
  int32 s = x * x;
  return s + y;
}
void apply(int32* a, int32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    b[i] = square_plus(a[i], 5);
  }
}
|}
  in
  let a = Array.init 8 (fun i -> i + 1) in
  let out =
    check_both src ~host:"apply"
      ~arrays:[ i32s a; i32s (Array.make 8 0) ]
      ~scalars:[ Pmachine.Value.I 8L ]
  in
  match out with
  | [ _; b ] ->
      Array.iteri
        (fun i v ->
          Alcotest.check valt (Fmt.str "b[%d]" i)
            (Pmachine.Value.I (Int64.of_int ((a.(i) * a.(i)) + 5)))
            v)
        b
  | _ -> assert false

let test_short_circuit_safety () =
  (* a[i] must not be read when i >= limit: short-circuit && guards it;
     element limit..n-1 of a are "poison" that would change the result *)
  let src =
    {|
void guard(int32* a, int32* b, int32 limit, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 r = 0;
    if (i < (int64)limit && a[i] > 0) {
      r = a[i];
    }
    b[i] = r;
  }
}
|}
  in
  ignore
    (check_both src ~host:"guard"
       ~arrays:[ i32s [| 5; 6; 7; 8; 9; 10; 11; 12 |]; i32s (Array.make 8 0) ]
       ~scalars:[ Pmachine.Value.I 4L; Pmachine.Value.I 8L ])

let test_head_tail_gang_api () =
  let src =
    {|
void edges(int32* a, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 v = 1;
    if (psim_is_head_gang()) { v = 2; }
    if (psim_is_tail_gang()) { v = 3; }
    a[i] = v;
  }
}
|}
  in
  let out =
    check_both src ~host:"edges"
      ~arrays:[ i32s (Array.make 24 0) ]
      ~scalars:[ Pmachine.Value.I 24L ]
  in
  match out with
  | [ a ] ->
      Array.iteri
        (fun i v ->
          let expect = if i < 8 then 2 else if i >= 16 then 3 else 1 in
          Alcotest.check valt (Fmt.str "a[%d]" i)
            (Pmachine.Value.I (Int64.of_int expect))
            v)
        a
  | _ -> assert false

(* serial and psim versions of the same kernel agree *)
let test_serial_matches_psim () =
  let src =
    {|
void serial(int32* a, int32* b, int64 n) {
  for (int64 i = 0; i < n; i = i + 1) {
    int32 x = a[i];
    if (x > 50) { x = 50 + (x - 50) / 2; }
    b[i] = x * 2;
  }
}
void parallel(int32* a, int32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = a[i];
    if (x > 50) { x = 50 + (x - 50) / 2; }
    b[i] = x * 2;
  }
}
|}
  in
  let a = Array.init 16 (fun i -> i * 9) in
  let arrays = [ i32s a; i32s (Array.make 16 0) ] in
  let scalars = [ Pmachine.Value.I 16L ] in
  let serial_out = run_i32 src ~host:"serial" ~arrays ~scalars in
  let psim_out = run_i32 ~vectorize:true src ~host:"parallel" ~arrays ~scalars in
  List.iteri
    (fun i (r, v) ->
      Alcotest.check (Alcotest.array valt) (Fmt.str "array %d" i) r v)
    (List.combine serial_out psim_out)

let suites =
  [
    ( "frontend.errors",
      [
        Alcotest.test_case "parse error" `Quick test_parse_error;
        Alcotest.test_case "type error" `Quick test_type_error;
        Alcotest.test_case "return in psim" `Quick test_return_in_psim_rejected;
        Alcotest.test_case "non-const gang size" `Quick test_gang_size_must_be_const;
      ] );
    ( "frontend.e2e",
      [
        Alcotest.test_case "saxpy-like kernel" `Quick test_saxpy_like;
        Alcotest.test_case "tail gang masking" `Quick test_tail_gang;
        Alcotest.test_case "divergent loop + break (collatz)" `Quick
          test_divergence_and_loops;
        Alcotest.test_case "for + continue" `Quick test_for_continue;
        Alcotest.test_case "shuffle reverse" `Quick test_shuffle_reverse;
        Alcotest.test_case "user function inlining" `Quick test_inline_user_function;
        Alcotest.test_case "short-circuit safety" `Quick test_short_circuit_safety;
        Alcotest.test_case "head/tail gang API" `Quick test_head_tail_gang_api;
        Alcotest.test_case "serial = psim" `Quick test_serial_matches_psim;
      ] );
  ]
