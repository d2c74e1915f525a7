(* Unit and property tests for the PIR substrate: integer semantics,
   types, builder/verifier, and CFG analyses. *)

open Pir

let i64t = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* -- Ints: canonical narrow-width arithmetic -- *)

let test_norm_sext () =
  Alcotest.check i64t "norm 8 256" 0L (Ints.norm 8 256L);
  Alcotest.check i64t "norm 8 255" 255L (Ints.norm 8 255L);
  Alcotest.check i64t "sext 8 0xFF" (-1L) (Ints.sext 8 0xFFL);
  Alcotest.check i64t "sext 8 0x7F" 127L (Ints.sext 8 0x7FL);
  Alcotest.check i64t "sext 16 0x8000" (-32768L) (Ints.sext 16 0x8000L);
  Alcotest.check i64t "zext identity" 200L (Ints.zext 8 200L)

let test_sat () =
  Alcotest.check i64t "uadd_sat 8 saturates" 255L (Ints.uadd_sat 8 200L 100L);
  Alcotest.check i64t "uadd_sat 8 plain" 150L (Ints.uadd_sat 8 100L 50L);
  Alcotest.check i64t "usub_sat 8 floor" 0L (Ints.usub_sat 8 50L 100L);
  Alcotest.check i64t "sadd_sat 8 pos" 127L (Ints.sadd_sat 8 100L 100L);
  Alcotest.check i64t "sadd_sat 8 neg" 128L (Ints.sadd_sat 8 (Ints.norm 8 (-100L)) (Ints.norm 8 (-100L)));
  Alcotest.check i64t "ssub_sat 8" 127L (Ints.ssub_sat 8 100L (Ints.norm 8 (-100L)))

let test_misc_ops () =
  Alcotest.check i64t "avgr_u rounding" 2L (Ints.avgr_u 8 1L 2L);
  Alcotest.check i64t "avgr_u 255 255" 255L (Ints.avgr_u 8 255L 255L);
  Alcotest.check i64t "abs_diff_u" 55L (Ints.abs_diff_u 8 200L 145L);
  Alcotest.check i64t "abs_diff_u sym" 55L (Ints.abs_diff_u 8 145L 200L);
  Alcotest.check i64t "mulhi_u 16" 1L (Ints.mulhi_u 16 0x100L 0x100L);
  Alcotest.check i64t "mulhi_s neg" (Ints.norm 16 (-1L))
    (Ints.mulhi_s 16 (Ints.norm 16 (-2L)) 0x4000L);
  Alcotest.check i64t "clz 8" 4L (Ints.clz 8 0x0FL);
  Alcotest.check i64t "ctz 8" 2L (Ints.ctz 8 0x0CL);
  Alcotest.check i64t "popcnt" 4L (Ints.popcnt 8 0xF0L);
  Alcotest.check i64t "udiv by zero defined" 255L (Ints.udiv 8 7L 0L)

let test_shifts () =
  Alcotest.check i64t "shl" 0xF0L (Ints.shl 8 0x0FL 4L);
  Alcotest.check i64t "shl overflow drops" 0L (Ints.shl 8 0x80L 1L);
  Alcotest.check i64t "lshr" 0x0FL (Ints.lshr 8 0xF0L 4L);
  Alcotest.check i64t "ashr sign" 0xFFL (Ints.ashr 8 0x80L 7L);
  Alcotest.check i64t "ashr wide shift" 0xFFL (Ints.ashr 8 0x80L 63L)

(* round-trip property: norm/sext are inverses on the value range *)
let prop_sext_norm =
  QCheck.Test.make ~name:"sext then norm is identity on canonical values"
    ~count:500
    (QCheck.pair (QCheck.oneofl [ 8; 16; 32 ]) QCheck.int64)
    (fun (w, x) ->
      let c = Ints.norm w x in
      Ints.norm w (Ints.sext w c) = c)

let prop_sat_bounds =
  QCheck.Test.make ~name:"uadd_sat within range" ~count:500
    (QCheck.triple (QCheck.oneofl [ 8; 16 ]) QCheck.int64 QCheck.int64)
    (fun (w, a, b) ->
      let r = Ints.uadd_sat w (Ints.norm w a) (Ints.norm w b) in
      Int64.unsigned_compare r (Ints.max_unsigned w) <= 0)

let prop_mulhi_u_16 =
  QCheck.Test.make ~name:"mulhi_u matches wide multiply at 16 bits" ~count:500
    (QCheck.pair QCheck.int64 QCheck.int64)
    (fun (a, b) ->
      let a = Ints.norm 16 a and b = Ints.norm 16 b in
      Ints.mulhi_u 16 a b = Int64.shift_right_logical (Int64.mul a b) 16)

(* -- Types -- *)

let test_types () =
  Alcotest.(check int) "bits of <16 x i32>" 512 (Types.bits (Types.Vec (Types.I32, 16)));
  Alcotest.(check int) "lanes of scalar" 1 (Types.lanes Types.i32);
  Alcotest.(check bool) "widen ptr" true
    (Types.equal (Types.widen (Types.Ptr Types.I8) 4) (Types.Vec (Types.I64, 4)));
  Alcotest.(check string) "pp vec" "<8 x f32>" (Types.to_string (Types.Vec (Types.F32, 8)));
  Alcotest.(check string) "pp ptr" "i8*" (Types.to_string (Types.Ptr Types.I8))

(* -- Builder + Verifier -- *)

(* A small function: f(a, b) = if a < b then a + b else a - b *)
let build_branchy () =
  let f =
    Func.create "branchy"
      ~params:[ (0, Types.i32); (1, Types.i32) ]
      ~ret:Types.i32
  in
  let b = Builder.create f in
  let cond = Builder.icmp b Instr.Slt (Instr.Var 0) (Instr.Var 1) in
  Builder.condbr b cond "then" "else";
  let bt = Builder.add_block b "then" in
  Builder.position b bt;
  let s = Builder.add b (Instr.Var 0) (Instr.Var 1) in
  Builder.br b "join";
  let be = Builder.add_block b "else" in
  Builder.position b be;
  let d = Builder.sub b (Instr.Var 0) (Instr.Var 1) in
  Builder.br b "join";
  let bj = Builder.add_block b "join" in
  Builder.position b bj;
  let r = Builder.phi b Types.i32 [ ("then", s); ("else", d) ] in
  Builder.ret b (Some r);
  Builder.finish b;
  f

let test_builder_verifier () =
  let f = build_branchy () in
  (match Verifier.verify_func f with
  | Ok () -> ()
  | Error es -> Alcotest.failf "verifier rejected: %s" (Verifier.errors_to_string es));
  Panalysis.Check.check_func f

(* emission is constant-time: 5,000 appends to one block, with the
   builder switching to another block and back every 500, keep their
   order in both blocks and allocate far less than re-copying the block
   per append would (about 37 M words) *)
let test_builder_long_block () =
  let f = Func.create "long" ~params:[ (0, Types.i64) ] ~ret:Types.i64 in
  let b = Builder.create f in
  let entry = Builder.current b in
  let side = Builder.add_block b "side" in
  let w0 = Gc.minor_words () in
  let acc = ref (Instr.Var 0) and side_acc = ref (Instr.Var 0) in
  for k = 1 to 5000 do
    acc := Builder.add b !acc (Instr.ci64 1);
    if k mod 500 = 0 then begin
      Builder.position b side;
      side_acc := Builder.add b !side_acc (Instr.ci64 2);
      Builder.position b entry
    end
  done;
  Builder.br b "side";
  Builder.position b side;
  Builder.ret b (Some !side_acc);
  Builder.finish b;
  let words = Gc.minor_words () -. w0 in
  if words >= 1e6 then Alcotest.failf "5000 appends allocated %.0f minor words" words;
  let chain (blk : Func.block) =
    List.fold_left
      (fun prev (i : Instr.instr) ->
        (match i.op with
        | Instr.Ibin (Instr.Add, Instr.Var p, _) when p = prev -> ()
        | _ -> Alcotest.failf "%s: %%%d does not extend %%%d" blk.bname i.id prev);
        i.id)
      0 blk.instrs
  in
  Alcotest.(check int) "entry ends at the last add" (match !acc with Instr.Var v -> v | _ -> -1)
    (chain entry);
  Alcotest.(check int) "entry length" 5000 (List.length entry.instrs);
  Alcotest.(check int) "side length" 10 (List.length side.instrs);
  ignore (chain side);
  Alcotest.(check (list string)) "block order" [ "entry"; "side" ]
    (List.map (fun (blk : Func.block) -> blk.bname) f.blocks);
  match Verifier.verify_func f with
  | Ok () -> ()
  | Error es -> Alcotest.failf "verifier rejected: %s" (Verifier.errors_to_string es)

let test_verifier_rejects () =
  let f = Func.create "bad" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  (* type mismatch: i32 + f32 *)
  let x = Builder.ins b Types.i32 (Instr.Ibin (Instr.Add, Instr.Var 0, Instr.cf32 1.0)) in
  Builder.ret b (Some x);
  Builder.finish b;
  match Verifier.verify_func f with
  | Ok () -> Alcotest.fail "verifier accepted ill-typed add"
  | Error _ -> ()

let test_verifier_rejects_bad_label () =
  let f = Func.create "badlbl" ~params:[] ~ret:Types.Void in
  let b = Builder.create f in
  Builder.br b "nowhere";
  Builder.finish b;
  match Verifier.verify_func f with
  | Ok () -> Alcotest.fail "verifier accepted dangling label"
  | Error _ -> ()

let test_printer_roundtrip_shape () =
  let f = build_branchy () in
  let s = Printer.func_to_string f in
  Alcotest.(check bool) "mentions phi" true
    (Astring_contains.contains s "phi");
  Alcotest.(check bool) "mentions icmp slt" true
    (Astring_contains.contains s "icmp slt")

(* -- CFG / dominators / loops / regions -- *)

let build_loop () =
  (* for (i = 0; i < n; i++) sum += i; return sum *)
  let f = Func.create "looper" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  Builder.br b "header";
  let bh = Builder.add_block b "header" in
  Builder.position b bh;
  let i = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0); ("latch", Instr.Var 99) ] in
  let sum = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0); ("latch", Instr.Var 98) ] in
  let c = Builder.icmp b Instr.Slt i (Instr.Var 0) in
  Builder.condbr b c "latch" "exit";
  let bl = Builder.add_block b "latch" in
  Builder.position b bl;
  let sum' = Builder.add b sum i in
  let i' = Builder.add b i (Instr.ci32 1) in
  Builder.br b "header";
  let bx = Builder.add_block b "exit" in
  Builder.position b bx;
  Builder.ret b (Some sum);
  Builder.finish b;
  (* patch phi placeholders with real ids *)
  let patch inst =
    match inst.Instr.op with
    | Instr.Phi inc ->
        let inc =
          List.map
            (fun (l, v) ->
              match v with
              | Instr.Var 99 -> (l, i')
              | Instr.Var 98 -> (l, sum')
              | _ -> (l, v))
            inc
        in
        { inst with Instr.op = Instr.Phi inc }
    | _ -> inst
  in
  bh.instrs <- List.map patch bh.instrs;
  f

let test_dominators () =
  let f = build_branchy () in
  let cfg = Panalysis.Cfg.build f in
  let dom = Panalysis.Dom.compute cfg in
  Alcotest.(check bool) "entry dominates join" true
    (Panalysis.Dom.dominates dom "entry" "join");
  Alcotest.(check bool) "then does not dominate join" false
    (Panalysis.Dom.dominates dom "then" "join");
  let pdom = Panalysis.Dom.compute_post cfg in
  Alcotest.(check (option string)) "join postdominates entry" (Some "join")
    (Panalysis.Dom.ipostdom pdom "entry")

let test_loops () =
  let f = build_loop () in
  Panalysis.Check.check_func f;
  let cfg = Panalysis.Cfg.build f in
  let loops = Panalysis.Loops.find cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops.loops);
  let l = List.hd loops.loops in
  Alcotest.(check string) "header" "header" l.header;
  Alcotest.(check bool) "latch in body" true (List.mem "latch" l.body);
  let ivs = Panalysis.Loops.induction_vars cfg l in
  Alcotest.(check int) "one constant-step induction var" 1
    (List.length (List.filter (fun iv -> iv.Panalysis.Loops.step = 1L) ivs))

let test_regions_if () =
  let f = build_branchy () in
  let rs = Panalysis.Regions.of_func f in
  match rs with
  | [ Panalysis.Regions.Basic _; Panalysis.Regions.If { join; then_; else_; _ }; Panalysis.Regions.Basic _ ] ->
      Alcotest.(check string) "join" "join" join;
      Alcotest.(check int) "then blocks" 1 (List.length then_);
      Alcotest.(check int) "else blocks" 1 (List.length else_)
  | _ -> Alcotest.failf "unexpected region shape (%d regions)" (List.length rs)

let test_regions_loop () =
  let f = build_loop () in
  let rs = Panalysis.Regions.of_func f in
  match rs with
  | [ Panalysis.Regions.Basic _; Panalysis.Regions.Loop { exit; body; _ }; Panalysis.Regions.Basic _ ] ->
      Alcotest.(check string) "exit" "exit" exit;
      Alcotest.(check int) "body regions" 1 (List.length body)
  | _ -> Alcotest.failf "unexpected region shape (%d regions)" (List.length rs)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "ir.ints",
      [
        Alcotest.test_case "norm/sext" `Quick test_norm_sext;
        Alcotest.test_case "saturating" `Quick test_sat;
        Alcotest.test_case "misc ops" `Quick test_misc_ops;
        Alcotest.test_case "shifts" `Quick test_shifts;
      ]
      @ qsuite [ prop_sext_norm; prop_sat_bounds; prop_mulhi_u_16 ] );
    ( "ir.core",
      [
        Alcotest.test_case "types" `Quick test_types;
        Alcotest.test_case "builder+verifier accept" `Quick test_builder_verifier;
        Alcotest.test_case "verifier rejects ill-typed" `Quick test_verifier_rejects;
        Alcotest.test_case "verifier rejects bad label" `Quick test_verifier_rejects_bad_label;
        Alcotest.test_case "printer output" `Quick test_printer_roundtrip_shape;
        Alcotest.test_case "builder appends in constant time" `Quick
          test_builder_long_block;
      ] );
    ( "ir.analysis",
      [
        Alcotest.test_case "dominators" `Quick test_dominators;
        Alcotest.test_case "loops" `Quick test_loops;
        Alcotest.test_case "regions: if" `Quick test_regions_if;
        Alcotest.test_case "regions: loop" `Quick test_regions_loop;
      ] );
  ]
