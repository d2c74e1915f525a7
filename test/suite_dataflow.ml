(* Tests for the PIR dataflow framework (lib/dataflow), the SPMD
   sanitizer psan (lib/sanitize), the hardened IR verifier, and the
   analysis-feedback loop into the vectorizer (gather/scatter
   reclassification and uniform-branch precision). *)

open Pir

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let gang = 8

let spmd_func ?(partial = false) name params ret =
  Func.create name ~params ~ret ~spmd:{ Func.gang_size = gang; partial }

(* -- engine: fixpoint behaviour on hand-built CFGs -- *)

module MaxL = struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = max
  let pp = Fmt.int
end

module MaxE = Pdataflow.Engine.Make (MaxL)

(* entry -> (then | else) -> join; void so no phis needed *)
let build_diamond () =
  let f = spmd_func "diamond" [ (0, Types.i32) ] Types.Void in
  let b = Builder.create f in
  let c = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.ci32 3) in
  Builder.condbr b c "then" "else";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  Builder.br b "join";
  let be = Builder.add_block b "else" in
  Builder.position b be;
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  Builder.ret_void b;
  Builder.finish b;
  f

let test_engine_forward_diamond () =
  let f = build_diamond () in
  let cfg = Panalysis.Cfg.build f in
  let transfer name x =
    match name with "then" -> max x 5 | "else" -> max x 3 | _ -> x
  in
  let r = MaxE.run ~boundary:1 ~transfer cfg in
  Alcotest.(check int) "entry out" 1 (MaxE.block_out r "entry");
  Alcotest.(check int) "then out" 5 (MaxE.block_out r "then");
  Alcotest.(check int) "join in = join of branches" 5 (MaxE.block_in r "join");
  (* acyclic CFG in RPO priority order: one visit per block *)
  Alcotest.(check int) "visits" 4 r.MaxE.visits

let build_two_block_loop () =
  let f = Func.create "looper" ~params:[ (0, Types.i32) ] ~ret:Types.Void in
  let b = Builder.create f in
  Builder.br b "header";
  let bh = Builder.add_block b "header" in
  Builder.position b bh;
  let c = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.ci32 10) in
  Builder.condbr b c "header" "exit";
  let bx = Builder.add_block b "exit" in
  Builder.position b bx;
  Builder.ret_void b;
  Builder.finish b;
  f

let test_engine_loop_converges () =
  let f = build_two_block_loop () in
  let cfg = Panalysis.Cfg.build f in
  (* saturating counter: monotone, finite height -> must converge at
     the cap even though the header feeds itself *)
  let transfer name x = if name = "header" then min 10 (x + 1) else x in
  let r = MaxE.run ~boundary:1 ~transfer cfg in
  Alcotest.(check int) "header out saturates" 10 (MaxE.block_out r "header");
  Alcotest.(check int) "exit sees fixpoint" 10 (MaxE.block_out r "exit");
  Alcotest.(check bool) "iteration bounded" true (r.MaxE.visits <= 3 * 12)

let test_engine_backward () =
  let f = build_diamond () in
  let cfg = Panalysis.Cfg.build f in
  (* "liveness"-style: facts flow from the exit backwards *)
  let transfer name x = if name = "then" then max x 7 else x in
  let r = MaxE.run ~direction:Pdataflow.Engine.Backward ~boundary:2 ~transfer cfg in
  Alcotest.(check int) "join in(=backward out) is boundary" 2
    (MaxE.block_out r "join");
  Alcotest.(check int) "then picks up its gen" 7 (MaxE.block_in r "then");
  Alcotest.(check int) "entry joins both branches" 7 (MaxE.block_in r "entry")

(* -- divergence -- *)

let lane_num b = Builder.call b Types.i64 Intrinsics.lane_num []

let test_divergence_basics () =
  let f = spmd_func "div1" [ (0, Types.Ptr Types.F32); (1, Types.i64) ] Types.Void in
  let b = Builder.create f in
  let i = lane_num b in
  let z = Builder.sub b i i in
  let p = Builder.gep b (Instr.Var 0) i in
  let a = Builder.ins b (Types.Ptr Types.F32) (Instr.Alloca (Types.F32, 4)) in
  let u = Builder.ins b Types.f32 (Instr.Load (Instr.Var 0)) in
  let v = Builder.ins b Types.f32 (Instr.Load p) in
  Builder.ret_void b;
  Builder.finish b;
  let dv = Pdataflow.Divergence.analyze f in
  let open Pdataflow.Divergence in
  Alcotest.(check bool) "param uniform" true (is_uniform dv (Instr.Var 1));
  Alcotest.(check bool) "lane_num varying" false (is_uniform dv i);
  Alcotest.(check bool) "x - x uniform" true (is_uniform dv z);
  Alcotest.(check bool) "varying gep varying" false (is_uniform dv p);
  Alcotest.(check bool) "alloca varying (per-thread)" false (is_uniform dv a);
  Alcotest.(check bool) "load from uniform addr uniform" true (is_uniform dv u);
  Alcotest.(check bool) "load from varying addr varying" false (is_uniform dv v)

let test_divergence_control () =
  (* if (lane < 3) x = 1 else x = 1  -- the phi's incomings agree, so
     the value is uniform even though the join is control-divergent *)
  let f = spmd_func "div2" [ (0, Types.i64) ] Types.Void in
  let b = Builder.create f in
  let i = lane_num b in
  let c = Builder.icmp b Instr.Slt i (Instr.ci64 3) in
  Builder.condbr b c "then" "else";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  Builder.br b "join";
  let be = Builder.add_block b "else" in
  Builder.position b be;
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  let same = Builder.phi b Types.i64 [ ("then", Instr.ci64 1); ("else", Instr.ci64 1) ] in
  let diff = Builder.phi b Types.i64 [ ("then", Instr.ci64 1); ("else", Instr.ci64 2) ] in
  Builder.ret_void b;
  Builder.finish b;
  let dv = Pdataflow.Divergence.analyze f in
  let open Pdataflow.Divergence in
  Alcotest.(check bool) "then control-divergent" true (block_divergent dv "then");
  Alcotest.(check bool) "else control-divergent" true (block_divergent dv "else");
  Alcotest.(check bool) "join converged" false (block_divergent dv "join");
  Alcotest.(check bool) "phi of equal incomings uniform" true (is_uniform dv same);
  Alcotest.(check bool) "phi at divergent join varying" false (is_uniform dv diff)

(* -- range / affine stride -- *)

let test_range_stride () =
  let f = spmd_func "rng" [ (0, Types.Ptr Types.F32); (1, Types.i64) ] Types.Void in
  let b = Builder.create f in
  let i = lane_num b in
  let two_i = Builder.mul b i (Instr.ci64 2) in
  let idx = Builder.add b two_i (Instr.ci64 1) in
  let p = Builder.gep b (Instr.Var 0) idx in
  let q = Builder.gep b (Instr.Var 0) (Instr.Var 1) in
  Builder.ret_void b;
  Builder.finish b;
  let dv = Pdataflow.Divergence.analyze f in
  let rg = Pdataflow.Range.analyze dv f in
  let open Pdataflow.Range in
  Alcotest.(check (option int64)) "lane stride 1" (Some 1L) (stride_of rg i);
  Alcotest.(check (option int64)) "2i+1 stride 2" (Some 2L) (stride_of rg idx);
  (* gep scales by the f32 element size *)
  Alcotest.(check (option int64)) "address stride 8" (Some 8L) (stride_of rg p);
  Alcotest.(check (option int64)) "uniform address stride 0" (Some 0L)
    (stride_of rg q);
  (match aff_of rg p with
  | Some a ->
      Alcotest.(check int64) "address base 4" 4L a.base;
      Alcotest.(check int) "one opaque term (the pointer)" 1 (List.length a.terms)
  | None -> Alcotest.fail "no affine form for strided address");
  (* the value-range facts know lane_num's bounds *)
  match (facts_of rg i).Psmt.Facts.range with
  | Some (lo, hi) ->
      Alcotest.(check int64) "lane lo" 0L lo;
      Alcotest.(check bool) "lane hi < gang" true (hi <= 7L)
  | None -> Alcotest.fail "no range for lane_num"

let test_range_no_wrap_gating () =
  (* at i8, lane*40 can exceed the signed range (7*40 = 280), so the
     multiply must NOT keep its affine form; lane*10 fits and must *)
  let f = spmd_func "wrap" [] Types.Void in
  let b = Builder.create f in
  let i = lane_num b in
  let i8 = Builder.ins b Types.i8 (Instr.Cast (Instr.Trunc, i, Types.i8)) in
  let big = Builder.ins b Types.i8 (Instr.Ibin (Instr.Mul, i8, Instr.cint Types.I8 40L)) in
  let small = Builder.ins b Types.i8 (Instr.Ibin (Instr.Mul, i8, Instr.cint Types.I8 10L)) in
  Builder.ret_void b;
  Builder.finish b;
  let dv = Pdataflow.Divergence.analyze f in
  let rg = Pdataflow.Range.analyze dv f in
  let open Pdataflow.Range in
  Alcotest.(check (option int64)) "trunc keeps stride (fits i8)" (Some 1L)
    (stride_of rg i8);
  Alcotest.(check (option int64)) "lane*10 keeps stride" (Some 10L)
    (stride_of rg small);
  Alcotest.(check (option int64)) "lane*40 may wrap -> no form" None
    (stride_of rg big)

(* -- alias roots -- *)

let test_alias_roots () =
  let f =
    Func.create "al" ~noalias:[ 1 ]
      ~params:[ (0, Types.Ptr Types.F32); (1, Types.Ptr Types.F32) ]
      ~ret:Types.Void
      ~spmd:{ Func.gang_size = gang; partial = false }
  in
  let b = Builder.create f in
  let a1 = Builder.ins b (Types.Ptr Types.I32) (Instr.Alloca (Types.I32, 4)) in
  let a2 = Builder.ins b (Types.Ptr Types.I32) (Instr.Alloca (Types.I32, 4)) in
  let g1 = Builder.gep b a1 (Instr.ci64 2) in
  let g0 = Builder.gep b (Instr.Var 0) (Instr.ci64 1) in
  let c = Builder.icmp b Instr.Slt (Instr.ci64 0) (Instr.ci64 1) in
  let m = Builder.select b c a1 g1 in
  let m2 = Builder.select b c a1 a2 in
  Builder.ret_void b;
  Builder.finish b;
  let al = Pdataflow.Alias.analyze f in
  let open Pdataflow.Alias in
  Alcotest.(check bool) "gep keeps root" true
    (equal_root (root_of al g1) (root_of al a1));
  Alcotest.(check bool) "select of same root keeps it" true
    (equal_root (root_of al m) (root_of al a1));
  Alcotest.(check bool) "merge of distinct allocas unknown" true
    (equal_root (root_of al m2) Unknown);
  Alcotest.(check bool) "distinct allocas don't alias" false
    (may_alias al (root_of al a1) (root_of al a2));
  Alcotest.(check bool) "alloca vs param don't alias" false
    (may_alias al (root_of al a1) (root_of al g0));
  Alcotest.(check bool) "param vs restrict param don't alias" false
    (may_alias al (Param 0) (Param 1));
  Alcotest.(check bool) "param may alias itself" true
    (may_alias al (Param 0) (Param 0));
  match root_of al a1 with
  | Alloc id -> (
      match alloc_size al id with
      | Some (Types.I32, 4) -> ()
      | _ -> Alcotest.fail "alloc size not (i32, 4)")
  | _ -> Alcotest.fail "a1 root is not an alloc"

(* -- per-lane (vector) value analysis + reclassification plans -- *)

let test_lanes_facts () =
  let f = Func.create "lv" ~params:[] ~ret:Types.Void in
  let b = Builder.create f in
  let iota = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Splat (Instr.ci64 0, 4)) in
  ignore iota;
  let cst = Instr.cvec Types.I64 [| 0L; 2L; 4L; 6L |] in
  let base = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Splat (Instr.ci64 5, 4)) in
  let sum = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Ibin (Instr.Add, base, cst)) in
  let scaled = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Ibin (Instr.Mul, sum, Instr.cvec Types.I64 [| 3L; 3L; 3L; 3L |])) in
  Builder.ret_void b;
  Builder.finish b;
  let lv = Pdataflow.Lanes.analyze f in
  let open Pdataflow.Lanes in
  (match of_operand lv sum with
  | Exact a -> Alcotest.(check (array int64)) "exact add" [| 5L; 7L; 9L; 11L |] a
  | other -> Alcotest.failf "sum: %a" pp_fact other);
  match of_operand lv scaled with
  | Exact a -> Alcotest.(check int64) "scaled lane1" 21L a.(1)
  | other -> Alcotest.failf "scaled: %a" pp_fact other

let test_lanes_loop_phi () =
  (* the loop-carried address-vector pattern the vectorizer emits:
     phi [iota*2, header+splat(16)] -- both sides stride 2 *)
  let f = Func.create "lphi" ~params:[ (0, Types.i64) ] ~ret:Types.Void in
  let b = Builder.create f in
  let init = Instr.cvec Types.I64 [| 0L; 2L; 4L; 6L |] in
  Builder.br b "header";
  let bh = Builder.add_block b "header" in
  Builder.position b bh;
  let iv = Builder.phi b (Types.Vec (Types.I64, 4)) [ ("entry", init); ("header", Instr.Var 99) ] in
  let step = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Splat (Instr.ci64 8, 4)) in
  let next = Builder.ins b (Types.Vec (Types.I64, 4)) (Instr.Ibin (Instr.Add, iv, step)) in
  let c = Builder.icmp b Instr.Slt (Instr.ci64 0) (Instr.Var 0) in
  Builder.condbr b c "header" "exit";
  let bx = Builder.add_block b "exit" in
  Builder.position b bx;
  Builder.ret_void b;
  Builder.finish b;
  (* patch the placeholder back-edge operand *)
  bh.instrs <-
    List.map
      (fun (ins : Instr.instr) ->
        match ins.op with
        | Instr.Phi inc ->
            { ins with op = Instr.Phi (List.map (fun (l, v) -> if v = Instr.Var 99 then (l, next) else (l, v)) inc) }
        | _ -> ins)
      bh.instrs;
  let lv = Pdataflow.Lanes.analyze f in
  match Pdataflow.Lanes.of_operand lv iv with
  | Pdataflow.Lanes.Stride 2L -> ()
  | other -> Alcotest.failf "loop phi: %a" Pdataflow.Lanes.pp_fact other

let test_reclass_plans () =
  let open Psmt.Reclass in
  (* unit stride *)
  (match plan (lanes_rel ~stride:1 8) with
  | Some p ->
      Alcotest.(check bool) "unit plan" true (is_unit p);
      Alcotest.(check int) "one chunk" 1 (List.length p.chunks)
  | None -> Alcotest.fail "unit plan rejected");
  (* stride 2: two chunks, not unit *)
  (match plan (lanes_rel ~stride:2 8) with
  | Some p ->
      Alcotest.(check bool) "stride-2 not unit" false (is_unit p);
      Alcotest.(check int) "two chunks" 2 (List.length p.chunks);
      let c0 = List.hd p.chunks in
      Alcotest.(check int) "chunk0 at 0" 0 c0.coff;
      (* even slots picked by lanes 0..3, odd slots unused *)
      Alcotest.(check int) "inv[0]=lane0" 0 c0.inv.(0);
      Alcotest.(check int) "inv[1] empty" (-1) c0.inv.(1);
      Alcotest.(check int) "inv[2]=lane1" 1 c0.inv.(2)
  | None -> Alcotest.fail "stride-2 plan rejected");
  (* preconditions *)
  Alcotest.(check bool) "duplicate picks rejected" true
    (plan [| 0; 1; 1; 2 |] = None);
  Alcotest.(check bool) "decreasing picks rejected" true
    (plan [| 0; 2; 1; 3 |] = None);
  Alcotest.(check bool) "nonzero origin rejected" true
    (plan [| 1; 2; 3; 4 |] = None);
  Alcotest.(check bool) "span over bound rejected" true
    (plan ~bound:2 (lanes_rel ~stride:3 8) = None);
  Alcotest.(check bool) "irregular increasing accepted" true
    (plan [| 0; 1; 5; 9 |] <> None)

let test_reclass_model_check () =
  let reports = Psmt.Verify.check_reclass () in
  Alcotest.(check int) "four reclassification rules" 4 (List.length reports);
  List.iter
    (fun (r : Psmt.Verify.report) ->
      Alcotest.(check bool)
        (Fmt.str "%s checked cases" r.rule)
        true (r.cases_checked > 0);
      match r.counterexample with
      | None -> ()
      | Some c -> Alcotest.failf "%s refuted: %s" r.rule c)
    reports;
  (* and they ride along in the full offline sweep *)
  let all = Psmt.Verify.check_all () in
  Alcotest.(check bool) "check_all includes reclass rules" true
    (List.exists (fun (r : Psmt.Verify.report) -> r.rule = "reclass.load.shuffle") all);
  Alcotest.(check bool) "full sweep ok" true (Psmt.Verify.all_ok all)

(* -- hardened verifier: reachability in Pir.Verifier, use-dominance in
   Panalysis.Check, its only home -- *)

let test_verifier_unreachable () =
  let f = Func.create "unreach" ~params:[] ~ret:Types.Void in
  let b = Builder.create f in
  Builder.ret_void b;
  Builder.finish b;
  let orphan = Builder.add_block b "orphan" in
  Builder.position b orphan;
  Builder.ret_void b;
  Builder.finish b;
  match Verifier.verify_func f with
  | Ok () -> Alcotest.fail "verifier accepted unreachable block"
  | Error es ->
      Alcotest.(check bool) "mentions unreachable" true
        (List.exists
           (fun (e : Verifier.error) ->
             contains e.msg "unreachable")
           es)

let test_verifier_use_dominance () =
  (* value defined in "then" used in "else": sibling branches, no
     dominance *)
  let f = Func.create "nodom" ~params:[ (0, Types.i32) ] ~ret:Types.Void in
  let b = Builder.create f in
  let c = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.ci32 0) in
  Builder.condbr b c "then" "else";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  let x = Builder.add b (Instr.Var 0) (Instr.ci32 1) in
  Builder.br b "join";
  let be = Builder.add_block b "else" in
  Builder.position b be;
  ignore (Builder.add b x (Instr.ci32 2));
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  Builder.ret_void b;
  Builder.finish b;
  (match Panalysis.Check.verify_ssa f with
  | Ok () -> Alcotest.fail "verifier accepted non-dominating use"
  | Error es ->
      Alcotest.(check bool) "mentions dominance" true
        (List.exists (fun e -> contains e "dominated") es));
  (* the same value used behind the defining branch is fine *)
  let g = Func.create "domok" ~params:[ (0, Types.i32) ] ~ret:Types.Void in
  let b = Builder.create g in
  let c = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.ci32 0) in
  Builder.condbr b c "then" "join";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  let x = Builder.add b (Instr.Var 0) (Instr.ci32 1) in
  Builder.br b "inner";
  let bi = Builder.add_block b "inner" in
  Builder.position b bi;
  ignore (Builder.add b x (Instr.ci32 2));
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  Builder.ret_void b;
  Builder.finish b;
  match Panalysis.Check.verify_ssa g with
  | Ok () -> ()
  | Error es -> Alcotest.failf "rejected dominated use: %s" (String.concat "; " es)

let test_verifier_phi_incoming_dominance () =
  (* phi incoming value must dominate the *end of the predecessor*;
     here the else-arm incoming is defined in the then-arm *)
  let f = Func.create "phidom" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let c = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.ci32 0) in
  Builder.condbr b c "then" "else";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  let x = Builder.add b (Instr.Var 0) (Instr.ci32 1) in
  Builder.br b "join";
  let be = Builder.add_block b "else" in
  Builder.position b be;
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  let r = Builder.phi b Types.i32 [ ("then", x); ("else", x) ] in
  Builder.ret b (Some r);
  Builder.finish b;
  match Panalysis.Check.verify_ssa f with
  | Ok () -> Alcotest.fail "verifier accepted phi incoming without dominance"
  | Error es ->
      Alcotest.(check bool) "mentions pred" true
        (List.exists (fun e -> contains e "pred") es)

(* -- the sanitizer on PsimC sources -- *)

(* the test binary runs from _build/default/test under dune and from
   the repo root when invoked directly; walk up to find examples/ *)
let examples_dir =
  lazy
    (let rec up d n =
       let cand = Filename.concat d "examples" in
       if Sys.file_exists (Filename.concat cand "racy.psim") then cand
       else if n = 0 then Alcotest.fail "examples/ directory not found"
       else up (Filename.concat d Filename.parent_dir_name) (n - 1)
     in
     up (Sys.getcwd ()) 5)

let read_example name =
  Pharness.Pipeline.read_file (Filename.concat (Lazy.force examples_dir) name)

let lint_src ?opts ~name src = Pharness.Pipeline.lint ?opts ~name src

let racy_src = {|
void shift_sum(float32* tmp, float32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    tmp[i + 1] = out[i] * 0.5;
    out[i] = tmp[i];
  }
}
|}

let synced_src = {|
void shift_sum(float32* tmp, float32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    tmp[i + 1] = out[i] * 0.5;
    psim_gang_sync();
    out[i] = tmp[i];
  }
}
|}

let test_psan_race () =
  let fs = lint_src ~name:"racy" racy_src in
  Alcotest.(check bool) "race reported" true
    (List.exists (fun (f : Psan.finding) -> f.check = "race") fs);
  Alcotest.(check bool) "race is an error" true
    (List.for_all
       (fun (f : Psan.finding) -> f.check <> "race" || f.severity = Psan.Error)
       fs);
  let fs' = lint_src ~name:"racy" synced_src in
  Alcotest.(check int) "gang_sync clears the race" 0 (List.length fs')

let test_psan_restrict_no_race () =
  (* same shape as the race, but through clearly distinct objects: the
     write goes to a restrict pointer, the read comes from another *)
  let src = {|
void ok(float32* restrict tmp, float32* restrict out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    tmp[i + 1] = out[i] * 0.5;
    out[i] = tmp[i + 1] * 0.0;
  }
}
|}
  in
  (* tmp[i+1] write vs tmp[i+1] read: same lane only -> no cross-lane
     collision; tmp vs out: restrict -> no alias *)
  let fs = lint_src ~name:"restrict" src in
  Alcotest.(check int) "no findings" 0
    (List.length (List.filter (fun (f : Psan.finding) -> f.check = "race") fs))

let oob_src = {|
void window(float32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    float32 acc[4];
    float32 scratch[2];
    acc[0] = 1.5;
    acc[1] = 2.5;
    float32 bad = acc[5] + acc[3];
    scratch[0] = bad;
    out[i] = bad + acc[0] + acc[1];
  }
}
|}

let test_psan_oob_uninit_dead () =
  let fs = lint_src ~name:"oob" oob_src in
  let has check = List.exists (fun (f : Psan.finding) -> f.check = check) fs in
  Alcotest.(check bool) "oob reported" true (has "oob");
  Alcotest.(check bool) "uninit reported" true (has "uninit");
  Alcotest.(check bool) "dead store reported" true (has "dead-store");
  Alcotest.(check bool) "no race invented" false (has "race")

let test_psan_deterministic_order () =
  let fs1 = lint_src ~name:"oob" oob_src in
  let fs2 = lint_src ~name:"oob" oob_src in
  Alcotest.(check (list string))
    "two runs, identical rendered findings"
    (List.map (Fmt.str "%a" Psan.pp_finding) fs1)
    (List.map (Fmt.str "%a" Psan.pp_finding) fs2);
  (* sorted by (function, block, instruction index) *)
  let keys =
    List.map (fun (f : Psan.finding) -> (f.func, f.block_idx, f.instr_idx)) fs1
  in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys)

let test_psan_examples_on_disk () =
  let expect_dirty name =
    let fs = lint_src ~name (read_example name) in
    Alcotest.(check bool) (name ^ " flagged") true (fs <> [])
  in
  let expect_clean name =
    let fs = lint_src ~name (read_example name) in
    Alcotest.(check (list string)) (name ^ " clean") []
      (List.map (Fmt.str "%a" Psan.pp_finding) fs)
  in
  expect_dirty "racy.psim";
  expect_dirty "oob.psim";
  expect_clean "sync_ok.psim";
  expect_clean "saxpy.psim";
  expect_clean "strided.psim"

(* zero-false-positive sweep: every shipped benchmark kernel must lint
   clean, both its scalar SPMD form and its vectorized form *)
let test_psan_registry_clean () =
  List.iter
    (fun (k : Psimdlib.Workload.kernel) ->
      let fs = lint_src ~name:k.kname k.psim_src in
      if fs <> [] then
        Alcotest.failf "%s: unexpected findings:@.%a" k.kname
          Fmt.(list ~sep:(any "@.") Psan.pp_finding)
          fs)
    (Psimdlib.Registry.all @ Pispc.Suite.all)

(* -- analysis feedback: reclassification -- *)

let compile_kernel ?(opts = Parsimony.Options.default) (k : Psimdlib.Workload.kernel) =
  let cfg = { Pharness.Pipeline.default with opts } in
  Pharness.Pipeline.compile ~cfg ~name:k.kname k.psim_src

let total_reclassified reports =
  List.fold_left
    (fun acc (r : Parsimony.Vectorizer.report) ->
      acc + r.reclassified_loads + r.reclassified_stores)
    0 reports

let feedback_opts =
  { Parsimony.Options.default with analysis_feedback = true }

let test_reclassify_fires () =
  let k = Option.get (Psimdlib.Registry.find "bgra_to_gray") in
  let _, base = compile_kernel k in
  Alcotest.(check int) "baseline reclassifies nothing" 0 (total_reclassified base);
  let _, fed = compile_kernel ~opts:feedback_opts k in
  let tail =
    List.find
      (fun (r : Parsimony.Vectorizer.report) ->
        contains r.func "tail")
      fed
  in
  Alcotest.(check int) "tail gathers reclassified" 3 tail.reclassified_loads;
  Alcotest.(check int) "no gathers left" 0 tail.gathers;
  Alcotest.(check bool) "rule hit recorded" true
    (List.mem_assoc "reclass.load.shuffle" tail.rule_hits);
  (* scatters too *)
  let k = Option.get (Psimdlib.Registry.find "gray_to_bgra") in
  let _, fed = compile_kernel ~opts:feedback_opts k in
  let tail =
    List.find
      (fun (r : Parsimony.Vectorizer.report) ->
        contains r.func "tail")
      fed
  in
  Alcotest.(check int) "tail scatters reclassified" 4 tail.reclassified_stores;
  Alcotest.(check int) "no scatters left" 0 tail.scatters

(* byte-identical interpreter outputs with the feedback on vs off, over
   a kernel mix covering figure-5 (Simd Library) and figure-4 (ispc) *)
let differential_kernels =
  [
    "bgra_to_gray";
    "deinterleave_uv";
    "gray_to_bgra";
    "get_col_sums";
    "gaussian_blur_3x3";
    "operation_binary8u_saturated_add";
  ]

let test_feedback_differential () =
  let kernels =
    List.filter_map Psimdlib.Registry.find differential_kernels
    @ List.filter
        (fun (k : Psimdlib.Workload.kernel) -> k.kname = "mandelbrot")
        Pispc.Suite.all
  in
  Alcotest.(check bool) "kernel mix resolved" true (List.length kernels >= 6);
  let reclassified = ref 0 in
  List.iter
    (fun (k : Psimdlib.Workload.kernel) ->
      let base = Pharness.Runner.run ~check:true k (Pharness.Runner.ParsimonyImpl Parsimony.Options.default) in
      let fed = Pharness.Runner.run ~check:true k (Pharness.Runner.ParsimonyImpl feedback_opts) in
      List.iter2
        (fun (name, expected) (name', got) ->
          Alcotest.(check string) "buffer name" name name';
          Array.iteri
            (fun i e ->
              if not (Pmachine.Value.equal e got.(i)) then
                Alcotest.failf "%s: %s[%d] differs under analysis feedback: %a vs %a"
                  k.kname name i Pmachine.Value.pp e Pmachine.Value.pp got.(i))
            expected)
        base.Pharness.Runner.outputs fed.Pharness.Runner.outputs;
      let _, reports = compile_kernel ~opts:feedback_opts k in
      reclassified := !reclassified + total_reclassified reports)
    kernels;
  Alcotest.(check bool) "at least one access reclassified across the mix" true
    (!reclassified > 0)

(* -- analysis feedback: uniform-branch precision -- *)

(* [t ^ t] is zero on every lane, so the branch condition is uniform —
   but the shape analysis has no xor-collapse rule (its xor.disjoint
   rule needs disjoint bit ranges), so it sees a varying condition and
   linearizes.  The divergence analysis proves it uniform. *)
let branchy_src = {|
void feedback(float32* inp, float32* out, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int64 t = i * 3 + 1;
    int64 j = t ^ t;
    float32 v = 1.0;
    if (j > 0) {
      v = 2.0;
    }
    out[i] = v + inp[i];
  }
}
|}

let run_branchy opts =
  let cfg = { Pharness.Pipeline.default with opts } in
  let m, reports = Pharness.Pipeline.compile ~cfg ~name:"fb" branchy_src in
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let n = 16 in
  let buf init =
    let addr = Pmachine.Memory.alloc mem ((n * 4) + 64) in
    for i = 0 to n - 1 do
      Pmachine.Memory.store_scalar mem Types.F32
        (addr + (i * 4))
        (Pmachine.Value.F (init i))
    done;
    addr
  in
  let inp = buf (fun i -> float_of_int i *. 0.25) in
  let out = buf (fun _ -> 0.0) in
  ignore
    (Pmachine.Interp.run t "feedback"
       [
         Pmachine.Value.I (Int64.of_int inp);
         Pmachine.Value.I (Int64.of_int out);
         Pmachine.Value.I (Int64.of_int n);
       ]);
  (Pmachine.Memory.read_array mem Types.F32 out n, reports)

let test_uniform_branch_feedback () =
  let out_base, base = run_branchy Parsimony.Options.default in
  let out_fed, fed = run_branchy feedback_opts in
  let count f reports =
    List.fold_left (fun acc (r : Parsimony.Vectorizer.report) -> acc + f r) 0 reports
  in
  Alcotest.(check bool) "baseline linearizes the varying-shaped branch" true
    (count (fun r -> r.linearized_branches) base > 0);
  Alcotest.(check int) "baseline proves nothing" 0
    (count (fun r -> r.analysis_uniform_branches) base);
  Alcotest.(check bool) "divergence analysis keeps it scalar" true
    (count (fun r -> r.analysis_uniform_branches) fed > 0);
  Alcotest.(check (array (Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal)))
    "identical outputs" out_base out_fed

let suites =
  [
    ( "dataflow.engine",
      [
        Alcotest.test_case "forward diamond" `Quick test_engine_forward_diamond;
        Alcotest.test_case "loop converges" `Quick test_engine_loop_converges;
        Alcotest.test_case "backward direction" `Quick test_engine_backward;
      ] );
    ( "dataflow.analyses",
      [
        Alcotest.test_case "divergence basics" `Quick test_divergence_basics;
        Alcotest.test_case "divergence control deps" `Quick test_divergence_control;
        Alcotest.test_case "range: strides + affine forms" `Quick test_range_stride;
        Alcotest.test_case "range: no-wrap gating" `Quick test_range_no_wrap_gating;
        Alcotest.test_case "alias roots" `Quick test_alias_roots;
        Alcotest.test_case "per-lane facts" `Quick test_lanes_facts;
        Alcotest.test_case "per-lane loop phi" `Quick test_lanes_loop_phi;
      ] );
    ( "dataflow.reclass",
      [
        Alcotest.test_case "chunk plans" `Quick test_reclass_plans;
        Alcotest.test_case "offline model check" `Quick test_reclass_model_check;
        Alcotest.test_case "reclassification fires" `Quick test_reclassify_fires;
        Alcotest.test_case "differential: feedback on = off" `Slow test_feedback_differential;
        Alcotest.test_case "uniform-branch feedback" `Quick test_uniform_branch_feedback;
      ] );
    ( "dataflow.verifier",
      [
        Alcotest.test_case "rejects unreachable block" `Quick test_verifier_unreachable;
        Alcotest.test_case "rejects non-dominating use" `Quick test_verifier_use_dominance;
        Alcotest.test_case "rejects bad phi incoming" `Quick test_verifier_phi_incoming_dominance;
      ] );
    ( "psan",
      [
        Alcotest.test_case "race detected, sync clears" `Quick test_psan_race;
        Alcotest.test_case "restrict: no race" `Quick test_psan_restrict_no_race;
        Alcotest.test_case "oob/uninit/dead-store" `Quick test_psan_oob_uninit_dead;
        Alcotest.test_case "deterministic order" `Quick test_psan_deterministic_order;
        Alcotest.test_case "shipped examples" `Quick test_psan_examples_on_disk;
        Alcotest.test_case "registry lints clean" `Slow test_psan_registry_clean;
      ] );
  ]
