(* Pinned-verdict tests for the kernel-level translation validator
   (Parsimony.Tv / Psmt.Equiv): straight-line and strided kernels must
   *prove*, and each seeded miscompile family — flipped blend mask,
   injected cross-lane race, injected out-of-bounds access — must
   produce a concrete counterexample, with a lane-level diff where the
   divergence is a wrong value and a fault report where it is a memory
   violation. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let compile src =
  fst
    (Pharness.Pipeline.compile
       ~cfg:
         { Pharness.Pipeline.default with vectorize = false; simplify = false }
       ~name:"tv-test" src)

(* a psim block lowers to two SPMD functions (full-gang body plus the
   partial-gang tail); every one must prove *)
let expect_proved name src =
  let results = Parsimony.Tv.verify_module (compile src) in
  checkb (name ^ ": found SPMD functions") true (results <> []);
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      match r.verdict with
      | Psmt.Equiv.Proved { cases; _ } ->
          checkb (name ^ "/" ^ r.vfunc ^ ": ran real cases") true (cases > 0)
      | v ->
          Alcotest.failf "%s/%s: expected Proved, got %a" name r.vfunc
            Psmt.Equiv.pp_verdict v)
    results

(* -- pinned Proved: the acceptance-criteria kernels -- *)

let test_saxpy_proved () =
  expect_proved "saxpy"
       {|
void saxpy(float32* restrict x, float32* restrict y, float32 a, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}

let test_strided_proved () =
  expect_proved "strided"
       {|
void strided(int32* restrict a, int32* restrict b, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    b[i] = a[2*i] + a[2*i + 1];
  }
}
|}

(* a divergent branch that vectorizes to a linearized Select blend; used
   both as a Proved baseline and as the flip-mask refutation target *)
let divergent_src =
  {|
void sel(int32* restrict a, int32* restrict b, int64 n) {
  psim gang_size(4) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 x = a[i];
    int32 y = 0;
    if (x > 0) { y = x + 1; } else { y = x - 7; }
    b[i] = y;
  }
}
|}

(* the data-dependent branch forces the checker to concretize the loaded
   cells; at the default 8-bit width the case product blows the budget,
   so the divergent tests bound inputs to 4 bits (arithmetic still runs
   at native width — only the enumerated domain shrinks) *)
let div_params =
  { Parsimony.Tv.default_params with width = 2; max_cases = 100_000 }

let test_divergent_proved () =
  let results =
    Parsimony.Tv.verify_module ~params:div_params (compile divergent_src)
  in
  checkb "divergent: found SPMD functions" true (results <> []);
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      match r.verdict with
      | Psmt.Equiv.Proved { cases; _ } ->
          checkb ("divergent/" ^ r.vfunc ^ ": ran real cases") true (cases > 0)
      | v ->
          Alcotest.failf "divergent/%s: expected Proved, got %a" r.vfunc
            Psmt.Equiv.pp_verdict v)
    results

(* -- pinned Counterexample: flipped blend mask gives a lane-level diff -- *)

let test_flip_mask_refuted () =
  let m = compile divergent_src in
  let transform vm =
    Parsimony.Tv.default_transform vm;
    checkb "mutation found a blend to flip" true
      (Pfuzz.Mutate.flip_linearized_mask vm)
  in
  let results = Parsimony.Tv.verify_module ~params:div_params ~transform m in
  (* the mutation lands in one of the two lowered SPMD functions; that
     one must refute with a concrete lane-level diff *)
  match
    List.filter_map
      (fun (r : Parsimony.Tv.result) ->
        match r.verdict with Psmt.Equiv.Refuted { cx; _ } -> Some cx | _ -> None)
      results
  with
  | cx :: _ ->
      checkb "counterexample has a lane-level diff" true (cx.cx_diffs <> []);
      checkb "divergence is a wrong value, not a fault" true (cx.cx_fault = None);
      (* the witness assigns every modelled cell of both buffers (the
         -4 .. 11 window) and the thread count, by the names the
         reports print *)
      let cells buf = List.init 16 (fun e -> Fmt.str "%s[%d]" buf (e - 4)) in
      check
        Alcotest.(list string)
        "witness names"
        (List.sort compare (cells "a0" @ cells "a1" @ [ "num_threads" ]))
        (List.map fst cx.cx_witness);
      check
        Alcotest.(list string)
        "diff locations" [ "a1[0]"; "a1[1]"; "a1[2]"; "a1[3]" ]
        (List.map (fun (b, e, _, _) -> Fmt.str "%s[%d]" b e) cx.cx_diffs)
  | [] ->
      Alcotest.failf "flip-mask: no Counterexample among %a"
        Fmt.(list ~sep:comma (fun ppf (r : Parsimony.Tv.result) ->
                 Psmt.Equiv.pp_verdict ppf r.verdict))
        results

(* -- pinned Counterexample: the PR-5 seeded-bug families, checked
   through the same whole-module path the fuzz re-triage uses -- *)

let check_injected name inject ~seed =
  let case = inject (Pfuzz.Gen.generate ~cfg:Pfuzz.Gen.mem_cfg seed) in
  let s = Pfuzz.Oracle.of_case case in
  let config = Option.get (Pfuzz.Oracle.config_of_name "vec-default") in
  match Pfuzz.Oracle.check_config s config with
  | Some (Psmt.Equiv.Refuted { cx; _ }) -> cx
  | Some v ->
      Alcotest.failf "%s seed %d: expected Counterexample, got %a" name seed
        Psmt.Equiv.pp_verdict v
  | None -> Alcotest.failf "%s seed %d: checker did not run" name seed

let test_race_refuted () =
  let cx = check_injected "inject_race" Pfuzz.Gen.inject_race ~seed:1 in
  checkb "race counterexample has a lane-level diff" true (cx.cx_diffs <> [])

let test_oob_refuted () =
  let cx = check_injected "inject_oob" Pfuzz.Gen.inject_oob ~seed:1 in
  checkb "oob counterexample reports the fault" true (cx.cx_fault <> None)

(* -- pinned verdicts of built-in kernels at verify-kernel's defaults,
   as its report prints them: verdict, case count, vacuous count or
   Bounded reason -- *)

let expect_verdicts name expected =
  let k = Option.get (Psimdlib.Registry.find name) in
  check
    Alcotest.(list (triple string int string))
    name expected
    (List.map
       (fun (r : Parsimony.Tv.result) ->
         (r.vfunc, r.gang_used, Fmt.str "%a" Psmt.Equiv.pp_verdict r.verdict))
       (Parsimony.Tv.verify_module (compile k.psim_src)))

(* every access of a 3x3 stencil leaves the default window, so both
   functions prove only through Tv's wide-window retry *)
let test_stencil_wide_window () =
  expect_verdicts "mean_filter_3x3"
    [
      ("mean_filter_3x3__psim1", 4, "Proved (75 cases, 181 vacuous)");
      ("mean_filter_3x3__psim1_tail", 4, "Proved (306 cases, 718 vacuous)");
    ]

(* psim.sad_u8 raises the gang to 8 *)
let test_sad_gang_raise () =
  expect_verdicts "abs_difference_sum"
    [ ("abs_difference_sum__psim1", 8, "Proved (256 cases, 0 vacuous)") ]

(* a branch on two loaded 8-bit cells concretizes both: 256^2 cases
   (sad_u8 again, so gang 8) *)
let test_concretization_budget () =
  expect_verdicts "conditional_sum"
    [
      ( "conditional_sum__psim1",
        8,
        "Bounded-out (2 concretized inputs span 65536 cases (budget 50000); 0 cases)" );
    ]

let suites =
  [
    ( "verify-kernel",
      [
        Alcotest.test_case "saxpy proves at gang 4 / width 8" `Quick
          test_saxpy_proved;
        Alcotest.test_case "strided access proves" `Quick test_strided_proved;
        Alcotest.test_case "divergent branch proves unmutated" `Quick
          test_divergent_proved;
        Alcotest.test_case "flip-mask mutant refuted with lane diff" `Quick
          test_flip_mask_refuted;
        Alcotest.test_case "injected race refuted" `Quick test_race_refuted;
        Alcotest.test_case "injected oob refuted as a fault" `Quick
          test_oob_refuted;
        Alcotest.test_case "3x3 stencil proves in the wide window" `Quick
          test_stencil_wide_window;
        Alcotest.test_case "sad_u8 kernel proves at gang 8" `Quick
          test_sad_gang_raise;
        Alcotest.test_case "concretization budget bounds out" `Quick
          test_concretization_budget;
      ] );
  ]
