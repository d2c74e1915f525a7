(* Differential tests for the back-end legalizer: vectorized functions
   with gang-width vectors (wider than one 512-bit register) must
   compute the same results after being split to machine width, and the
   legalized function must contain no over-wide vector. *)

open Pir

let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

let run_module m host args ~bufspec =
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let addrs =
    List.map
      (fun (s, vals) -> Pmachine.Memory.alloc_array mem s vals)
      bufspec
  in
  let vargs =
    List.map (fun a -> Pmachine.Value.I (Int64.of_int a)) addrs @ args
  in
  ignore (Pmachine.Interp.run t host vargs);
  List.map2
    (fun addr (s, vals) ->
      Pmachine.Memory.read_array mem s addr (Array.length vals))
    addrs bufspec

let differential_legalize src host args ~bufspec =
  let compile () =
    let m = Pfrontend.Lower.compile src in
    ignore (Parsimony.Vectorizer.run_module m);
    m
  in
  let m1 = compile () in
  let wide =
    List.fold_left (fun acc f -> max acc (Pbackend.Legalize.max_vector_bits f)) 0 m1.funcs
  in
  Alcotest.(check bool) "program uses wider-than-machine vectors" true (wide > 512);
  let before = run_module m1 host args ~bufspec in
  let m2 = compile () in
  Pbackend.Legalize.legalize_module m2;
  List.iter
    (fun f ->
      let w = Pbackend.Legalize.max_vector_bits f in
      if w > 512 then
        Alcotest.failf "%s still has a %d-bit vector after legalization"
          f.Func.fname w)
    m2.funcs;
  Panalysis.Check.check_module m2;
  let after = run_module m2 host args ~bufspec in
  List.iteri
    (fun i (x, y) ->
      Alcotest.check (Alcotest.array valt) (Fmt.str "buffer %d" i) x y)
    (List.combine before after)

let i32s = Array.map (fun x -> Pmachine.Value.I (Int64.of_int x))

(* gang 64 of u8 widened to u16: 1024-bit virtual vectors *)
let test_widening_map () =
  differential_legalize
    {|
void widen(uint8* a, uint8* dst, int64 n) {
  psim gang_size(64) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    uint16 v = (uint16)a[i] * 3;
    dst[i] = (uint8)(v >> 2);
  }
}
|}
    "widen"
    [ Pmachine.Value.I 128L ]
    ~bufspec:
      [
        (Types.I8, i32s (Array.init 128 (fun i -> (i * 7) mod 256)));
        (Types.I8, i32s (Array.make 128 0));
      ]

(* divergent control flow at gang 64 with i32 math: 2048-bit vectors,
   masks, selects, and a masked loop all get split *)
let test_divergent_wide () =
  differential_legalize
    {|
void steps(uint8* a, uint8* dst, int64 n) {
  psim gang_size(64) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = (int32)a[i];
    int32 c = 0;
    while (x > 1) {
      if (x % 2 == 0) { x = x / 2; } else { x = x + 1; }
      c = c + 1;
    }
    dst[i] = (uint8)c;
  }
}
|}
    "steps"
    [ Pmachine.Value.I 64L ]
    ~bufspec:
      [
        (Types.I8, i32s (Array.init 64 (fun i -> (i * 13) mod 200)));
        (Types.I8, i32s (Array.make 64 0));
      ]

(* reductions: psadbw + wide adds split across chunks *)
let test_reduction_wide () =
  differential_legalize
    (Option.get (Psimdlib.Registry.find "value_sum")).psim_src "value_sum"
    [ Pmachine.Value.I 128L ]
    ~bufspec:
      [
        (Types.I8, i32s (Array.init 128 (fun i -> (i * 11) mod 256)));
        (Types.I64, i32s (Array.make 8 0));
        (Types.I64, i32s [| 0 |]);
      ]

(* psadbw whose group sums span two result chunks: a gang of 128 u8
   lanes legalized to 8 lanes per register gives 16 sums, regrouped into
   two 8-lane chunks *)
let test_psadbw_two_chunks () =
  differential_legalize
    {|
void sad128(uint8* a, uint64* out, int64 n) {
  psim gang_size(128) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    out[i] = psim_sad_u8(a[i], (uint8)3);
  }
}
|}
    "sad128"
    [ Pmachine.Value.I 128L ]
    ~bufspec:
      [
        (Types.I8, i32s (Array.init 128 (fun i -> (i * 37) mod 256)));
        (Types.I64, i32s (Array.make 128 0));
      ]

(* the main-gang functions of the Simd Library kernels that reduce
   through psadbw: a 4-lane chunk would split psadbw's 8-byte groups, so
   the legalizer refuses with [Unsupported] (a skip for the fuzz oracle,
   a typed error for verify-kernel); 8 and 16 lanes legalize *)
let test_psadbw_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Psimdlib.Registry.find name) in
      let m = Pfrontend.Lower.compile k.Psimdlib.Workload.psim_src in
      ignore (Parsimony.Vectorizer.run_module m);
      Panalysis.Check.check_module m;
      Parsimony.Simplify.run_module m;
      let main = Func.find_func m (name ^ "__psim1") in
      (match Pbackend.Legalize.legalize_func ~lanes:4 main with
      | exception Pbackend.Legalize.Unsupported reason ->
          if not (Astring_contains.contains reason "psadbw") then
            Alcotest.failf "%s at 4 lanes: unexpected reason %S" name reason
      | _ -> Alcotest.failf "%s: legalized psadbw to 4-lane chunks" name);
      List.iter
        (fun lanes -> Panalysis.Check.check_func (Pbackend.Legalize.legalize_func ~lanes main))
        [ 8; 16 ])
    [
      "value_sum";
      "abs_difference_sum";
      "abs_difference_sum_masked";
      "conditional_count8u";
      "conditional_sum";
      "get_statistic";
    ]

(* hardware-width sweep over a pinned generated batch: for every
   register width the legalizer supports (4, 8 and 16 lanes per
   register), legalizing the vectorized code must preserve the reference
   semantics exactly.  8 and 16 lanes exercise the single-chunk paths
   (gang-8 vectors fit one register); 4 lanes forces real splitting of
   every vector value, mask, phi and memory access.  The batch mixes the
   generator presets so packed, shuffled, gathered and scattered
   accesses all appear. *)
let pinned_batch =
  lazy
    (List.concat_map
       (fun cfg -> List.init 5 (fun i -> Pfuzz.Gen.generate ~cfg (i + 1)))
       [
         Pfuzz.Gen.int_cfg; Pfuzz.Gen.float_cfg; Pfuzz.Gen.mem_cfg;
         Pfuzz.Gen.default_cfg;
       ])

let test_legalize_width lanes () =
  List.iter
    (fun (case : Pfuzz.Gen.case) ->
      let s = Pfuzz.Oracle.of_case case in
      let reference = Pfuzz.Oracle.exec (Pfuzz.Oracle.compile_scalar s) s in
      match Pfuzz.Oracle.exec_config (Pfuzz.Oracle.Legalized lanes) s with
      | exception Pfuzz.Oracle.Skip reason ->
          Alcotest.failf "seed %d: legalize at %d lanes bailed out (%s)"
            case.Pfuzz.Gen.seed lanes reason
      | legalized -> (
          match Pfuzz.Oracle.compare_buffers reference legalized with
          | None -> ()
          | Some diff ->
              Alcotest.failf "seed %d at %d lanes: %s@.%s" case.Pfuzz.Gen.seed
                lanes diff case.Pfuzz.Gen.src))
    (Lazy.force pinned_batch)

let suites =
  [
    ( "backend.legalize",
      [
        Alcotest.test_case "widening map (1024b)" `Quick test_widening_map;
        Alcotest.test_case "divergent masked loop (2048b)" `Quick test_divergent_wide;
        Alcotest.test_case "psadbw reduction" `Quick test_reduction_wide;
        Alcotest.test_case "pinned batch at 4 lanes" `Quick (test_legalize_width 4);
        Alcotest.test_case "pinned batch at 8 lanes" `Quick (test_legalize_width 8);
        Alcotest.test_case "pinned batch at 16 lanes" `Quick
          (test_legalize_width 16);
        Alcotest.test_case "psadbw sums over two chunks" `Quick test_psadbw_two_chunks;
        Alcotest.test_case "psadbw kernels at 4, 8 and 16 lanes" `Quick
          test_psadbw_kernels;
      ] );
  ]
