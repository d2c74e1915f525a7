(* Tests for the z3 stand-in: fact inference soundness (property-based)
   and the two-phase validation of the shape-transformation rules. *)

open Psmt

(* -- offline phase: every shipped rule verifies, and tampering with a
   precondition is caught -- *)

let test_all_rules_verify () =
  let reports = Verify.check_all () in
  List.iter
    (fun (r : Verify.report) ->
      match r.counterexample with
      | Some c -> Alcotest.failf "rule %s refuted: %s" r.rule c
      | None ->
          Alcotest.(check bool)
            (Fmt.str "rule %s fired at least once" r.rule)
            true (r.cases_checked > 0))
    reports

let test_checker_catches_broken_rule () =
  (* an unsound "rule": claims (b+o) >> 1 = (b >> 1) + (o >> 1)
     unconditionally (false when b and o have low bits that carry) *)
  let broken =
    {
      Rules.name = "lshr.broken";
      op = Pir.Instr.LShr;
      apply =
        (fun ~w a b ->
          match b.Rules.facts.Facts.const with
          | Some 1L ->
              Some (Array.map (fun o -> Pir.Ints.lshr w o 1L) a.Rules.offsets)
          | _ -> None);
    }
  in
  let report = Verify.check_rule broken in
  Alcotest.(check bool) "counterexample found" true (report.counterexample <> None)

(* -- facts: every abstract transfer must over-approximate the concrete
   operation (alignment and range soundness) -- *)

let ops =
  [
    Pir.Instr.Add; Pir.Instr.Sub; Pir.Instr.Mul; Pir.Instr.And; Pir.Instr.Or;
    Pir.Instr.Xor; Pir.Instr.Shl; Pir.Instr.LShr; Pir.Instr.UDiv;
    Pir.Instr.URem; Pir.Instr.UMin;
  ]

let prop_facts_sound =
  QCheck.Test.make ~name:"fact transfer over-approximates concrete values"
    ~count:2000
    QCheck.(triple (oneofl ops) (int_bound 255) (int_bound 255))
    (fun (op, a, b) ->
      let w = 8 in
      let a64 = Int64.of_int a and b64 = Int64.of_int b in
      let fa = Facts.of_const w a64 and fb = Facts.of_const w b64 in
      let fr = Facts.ibin op w fa fb in
      let concrete = Pir.Fold.ibin op w a64 b64 in
      (* alignment claim: concrete must be a multiple of 2^align *)
      let align_ok =
        fr.Facts.align >= 64
        || Int64.rem concrete (Int64.shift_left 1L (min 62 fr.Facts.align)) = 0L
      in
      (* range claim: concrete within [lo, hi] *)
      let range_ok =
        match fr.Facts.range with
        | None -> true
        | Some (lo, hi) ->
            Int64.unsigned_compare lo concrete <= 0
            && Int64.unsigned_compare concrete hi <= 0
      in
      (* const claim: exact *)
      let const_ok =
        match fr.Facts.const with None -> true | Some c -> c = concrete
      in
      align_ok && range_ok && const_ok)

let test_fact_helpers () =
  let f = Facts.of_const 8 48L in
  Alcotest.(check bool) "align of 48 is 4" true (Facts.align_at_least f 4);
  Alcotest.(check bool) "align of 48 is not 5" false (Facts.align_at_least f 5);
  Alcotest.(check bool) "48+208 doesn't fit u8" false (Facts.max_plus_fits f 208L 8);
  Alcotest.(check bool) "48+207 fits u8" true (Facts.max_plus_fits f 207L 8);
  let j = Facts.join (Facts.of_const 8 16L) (Facts.of_const 8 32L) in
  Alcotest.(check bool) "join keeps common alignment" true (Facts.align_at_least j 4);
  Alcotest.(check bool) "join drops constant" true (j.Facts.const = None)

(* The offset-pattern library must cover every stride class a rule's
   precondition can distinguish: uniform, the positive strides the
   vectorizer emits (1/2/4/8), negative strides, irregular-but-bounded
   offsets (the [all_in_pow2] / [all_aligned] preconditions), and
   patterns that wrap past [max_unsigned] at the check width — the class
   the original 7-pattern library missed entirely. *)
let test_offset_pattern_coverage () =
  let w = 8 and n = 8 in
  let pats = List.map (Array.map (Pir.Ints.norm w)) (Verify.offset_patterns n) in
  Alcotest.(check int) "pattern library is pinned" 11 (List.length pats);
  let stride (o : int64 array) =
    (* constant signed lane-to-lane difference at width w, if any *)
    let d = Pir.Ints.sub w o.(1) o.(0) in
    let ok = ref true in
    for i = 0 to n - 2 do
      if Pir.Ints.sub w o.(i + 1) o.(i) <> d then ok := false
    done;
    if !ok then Some (Pir.Ints.sext w d) else None
  in
  let has pred name =
    Alcotest.(check bool) name true (List.exists pred pats)
  in
  has (fun o -> Array.for_all (fun x -> x = 0L) o) "uniform zero";
  List.iter
    (fun s ->
      has (fun o -> stride o = Some (Int64.of_int s)) (Fmt.str "stride %+d" s))
    [ 1; 2; 4; 8; -1; -4 ];
  has (fun o -> stride o = None) "irregular";
  (* bounded below 2^4 but not all aligned: exercises the low-mask and
     pow2-divisor preconditions *)
  has
    (fun o ->
      Array.for_all (fun x -> Int64.unsigned_compare x 16L < 0) o
      && Array.exists (fun x -> Int64.rem x 2L <> 0L) o
      && Array.exists (fun x -> x <> 0L) o)
    "irregular below 2^4";
  has (fun o -> Array.for_all (fun x -> Int64.rem x 8L = 0L) o) "aligned to 8";
  (* wraps past max_unsigned *mid-gang*: some adjacent pair descends in
     the unsigned order while the signed stride is positive *)
  has
    (fun o ->
      match stride o with
      | Some d when Int64.compare d 0L > 0 ->
          let descends = ref false in
          for i = 0 to n - 2 do
            if Int64.unsigned_compare o.(i + 1) o.(i) < 0 then descends := true
          done;
          !descends
      | _ -> false)
    "wraps past max_unsigned mid-gang";
  has
    (fun o -> Array.for_all (fun x -> x = Pir.Ints.max_unsigned w) o)
    "uniform at max_unsigned"

(* online phase: rules fire only when their preconditions hold *)
let test_online_preconditions () =
  let w = 8 in
  let iota = Array.init 4 Int64.of_int in
  let aligned_base = { Rules.offsets = iota; facts = Facts.of_const w 64L } in
  let unaligned_base = { Rules.offsets = iota; facts = Facts.of_const w 65L } in
  let mask = { Rules.offsets = Array.make 4 0L; facts = Facts.of_const w 7L } in
  (match Rules.try_apply ~w Pir.Instr.And aligned_base mask with
  | Some ("and.low_mask", offs) ->
      Alcotest.(check bool) "offsets preserved" true (offs = iota)
  | other ->
      Alcotest.failf "expected and.low_mask, got %s"
        (match other with Some (n, _) -> n | None -> "nothing"));
  (match Rules.try_apply ~w Pir.Instr.And unaligned_base mask with
  | None -> ()
  | Some (n, _) -> Alcotest.failf "rule %s fired despite misaligned base" n);
  (* unknown base facts: must not fire either *)
  let unknown = { Rules.offsets = iota; facts = Facts.top } in
  match Rules.try_apply ~w Pir.Instr.And unknown mask with
  | None -> ()
  | Some (n, _) -> Alcotest.failf "rule %s fired with no facts" n

(* hash-consing keeps -0.0 and 0.0 apart: folding 1/x tells them
   apart, and a folded case must be the execution the machine runs *)
let test_signed_zero_nodes () =
  let ctx = Symexec.create_ctx () in
  let f32 = Symexec.float_const ctx Pir.Types.F32 in
  let zero = f32 0.0 and neg_zero = f32 (-0.0) in
  Alcotest.(check bool) "-0.0 is its own node" true
    (zero.Symexec.eid <> neg_zero.Symexec.eid);
  let q = Symexec.mk_fbin ctx Pir.Instr.FDiv Pir.Types.F32 (f32 1.0) neg_zero in
  let machine = Pmachine.Eval.fbin_scalar Pir.Instr.FDiv Pir.Types.F32 1.0 (-0.0) in
  Alcotest.(check bool) "the machine divides 1 by -0.0 to -inf" true
    (machine = Float.neg_infinity);
  (match q.Symexec.node with
  | Symexec.NFloat v -> Alcotest.(check bool) "1/-0.0 folds to -inf" true (v = machine)
  | _ -> Alcotest.fail "1/-0.0 did not fold");
  Alcotest.(check int) "one NaN node" (f32 Float.nan).Symexec.eid
    (f32 Float.nan).Symexec.eid

let suites =
  [
    ( "smt",
      [
        Alcotest.test_case "all shipped rules verify" `Quick test_all_rules_verify;
        Alcotest.test_case "checker refutes a broken rule" `Quick
          test_checker_catches_broken_rule;
        Alcotest.test_case "offset patterns cover all stride classes" `Quick
          test_offset_pattern_coverage;
        Alcotest.test_case "fact helpers" `Quick test_fact_helpers;
        Alcotest.test_case "online preconditions gate rules" `Quick
          test_online_preconditions;
        Alcotest.test_case "-0.0 and 0.0 hash-cons apart" `Quick
          test_signed_zero_nodes;
        QCheck_alcotest.to_alcotest prop_facts_sound;
      ] );
  ]
