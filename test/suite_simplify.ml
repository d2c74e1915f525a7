(* Tests for the late cleanup pass: CSE of pure ops and loads, load
   invalidation across stores, DCE, and masked store coalescing — each
   checked both structurally and by differential execution. *)

open Pir

let count_op f pred =
  Func.fold_instrs f 0 (fun acc _ i -> if pred i then acc + 1 else acc)

let is_load (i : Instr.instr) =
  match i.Instr.op with Instr.Load _ -> true | _ -> false

let run_func (f : Func.t) args mem_setup =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let extra = mem_setup (Pmachine.Interp.mem t) in
  ignore (Pmachine.Interp.run t f.fname (args @ extra));
  (Pmachine.Interp.mem t)

let test_cse_merges_pure_and_loads () =
  let f = Func.create "cse" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let x1 = Builder.load b (Instr.Var 0) in
  let x2 = Builder.load b (Instr.Var 0) in
  let s1 = Builder.add b x1 (Instr.ci32 5) in
  let s2 = Builder.add b x2 (Instr.ci32 5) in
  let r = Builder.mul b s1 s2 in
  Builder.ret b (Some r);
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Panalysis.Check.check_func f;
  Alcotest.(check int) "loads merged" 1 (count_op f is_load);
  Alcotest.(check int) "adds merged" 1
    (count_op f (fun i ->
         match i.Instr.op with Instr.Ibin (Instr.Add, _, _) -> true | _ -> false))

let test_stores_invalidate_loads () =
  let f = Func.create "inval" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let x1 = Builder.load b (Instr.Var 0) in
  Builder.store b (Instr.ci32 42) (Instr.Var 0);
  let x2 = Builder.load b (Instr.Var 0) in
  let r = Builder.add b x1 x2 in
  Builder.ret b (Some r);
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Alcotest.(check int) "both loads survive the store" 2 (count_op f is_load);
  (* semantics: old + 42 *)
  let mem =
    run_func f [] (fun mem ->
        let a = Pmachine.Memory.alloc_array mem Types.I32 [| Pmachine.Value.I 7L |] in
        [ Pmachine.Value.I (Int64.of_int a) ])
  in
  ignore mem

let test_dce_drops_dead_code () =
  let f = Func.create "dead" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let _dead1 = Builder.mul b (Instr.Var 0) (Instr.ci32 3) in
  let live = Builder.add b (Instr.Var 0) (Instr.ci32 1) in
  let _dead2 = Builder.xor b live (Instr.ci32 9) in
  Builder.ret b (Some live);
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Alcotest.(check int) "only the live add remains" 1
    (Func.fold_instrs f 0 (fun acc _ _ -> acc + 1))

let test_store_coalescing () =
  (* two masked stores to the same chunk with disjoint constant masks
     merge into one; execution semantics preserved *)
  let build () =
    let f = Func.create "co" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.Void in
    let b = Builder.create f in
    let base = Builder.gep b (Instr.Var 0) (Instr.ci64 0) in
    let v1 = Instr.cvec Types.I32 (Array.init 4 (fun i -> Int64.of_int (10 + i))) in
    let v2 = Instr.cvec Types.I32 (Array.init 4 (fun i -> Int64.of_int (20 + i))) in
    let m1 = Instr.cvec Types.I1 [| 1L; 0L; 1L; 0L |] in
    let m2 = Instr.cvec Types.I1 [| 0L; 1L; 0L; 0L |] in
    Builder.vstore b ~mask:m1 v1 base;
    Builder.vstore b ~mask:m2 v2 base;
    Builder.ret_void b;
    Builder.finish b;
    f
  in
  let exec f =
    let m = Func.create_module "t" in
    Func.add_func m f;
    let t = Pmachine.Interp.create m in
    let a =
      Pmachine.Memory.alloc_array (Pmachine.Interp.mem t) Types.I32
        (Array.make 4 (Pmachine.Value.I 99L))
    in
    ignore (Pmachine.Interp.run t "co" [ Pmachine.Value.I (Int64.of_int a) ]);
    Pmachine.Memory.read_array (Pmachine.Interp.mem t) Types.I32 a 4
  in
  let before = exec (build ()) in
  let f = build () in
  Parsimony.Simplify.run_func f;
  Panalysis.Check.check_func f;
  Alcotest.(check int) "stores merged" 1
    (count_op f (fun i ->
         match i.Instr.op with Instr.VStore _ -> true | _ -> false));
  let after = exec f in
  Alcotest.(check bool) "same memory effect" true
    (Array.for_all2 Pmachine.Value.equal before after);
  (* expected: [10; 21; 12; 99] *)
  Alcotest.(check bool) "merged contents" true
    (Array.for_all2 Pmachine.Value.equal after
       [| Pmachine.Value.I 10L; Pmachine.Value.I 21L; Pmachine.Value.I 12L; Pmachine.Value.I 99L |])

let test_coalescing_blocked_by_load () =
  (* a load between the two stores must prevent merging *)
  let f = Func.create "noco" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.Void in
  let b = Builder.create f in
  let base = Builder.gep b (Instr.Var 0) (Instr.ci64 0) in
  let v1 = Instr.cvec Types.I32 (Array.make 4 1L) in
  let v2 = Instr.cvec Types.I32 (Array.make 4 2L) in
  let m1 = Instr.cvec Types.I1 [| 1L; 0L; 0L; 0L |] in
  let m2 = Instr.cvec Types.I1 [| 0L; 1L; 0L; 0L |] in
  Builder.vstore b ~mask:m1 v1 base;
  let x = Builder.load b (Instr.Var 0) in
  Builder.vstore b ~mask:m2 v2 base;
  Builder.store b x (Instr.Var 0);
  Builder.ret_void b;
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Alcotest.(check int) "stores not merged" 2
    (count_op f (fun i ->
         match i.Instr.op with Instr.VStore _ -> true | _ -> false))

(* -- the CSE key: float constants by bit pattern, vectors by lane -- *)

let count_fbin f k =
  count_op f (fun i ->
      match i.Instr.op with Instr.Fbin (k', _, _) -> k' = k | _ -> false)

(* [op x c1] and [op x c2] feeding one result, simplified *)
let two_ops ty op c1 c2 =
  let f = Func.create "k" ~params:[ (0, ty) ] ~ret:ty in
  let b = Builder.create f in
  let a = op b (Instr.Var 0) c1 in
  let a' = op b (Instr.Var 0) c2 in
  Builder.ret b (Some (Builder.fsub b a a'));
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Panalysis.Check.check_func f;
  f

let test_cse_signed_zeros () =
  let f = two_ops Types.f32 Builder.fadd (Instr.cf32 0.0) (Instr.cf32 (-0.0)) in
  Alcotest.(check int) "fadd x, 0.0 and fadd x, -0.0 stay apart" 2
    (count_fbin f Instr.FAdd)

let test_cse_equal_floats () =
  let f = two_ops Types.f32 Builder.fmul (Instr.cf32 1.5) (Instr.cf32 1.5) in
  Alcotest.(check int) "two fmul x, 1.5 merge" 1 (count_fbin f Instr.FMul)

let test_cse_nan_bits () =
  let nan bits = Instr.cf64 (Int64.float_of_bits bits) in
  let f = two_ops Types.f64 Builder.fadd (nan 0x7ff8000000000001L) (nan 0x7ff8000000000001L) in
  Alcotest.(check int) "the same NaN merges" 1 (count_fbin f Instr.FAdd);
  let f = two_ops Types.f64 Builder.fadd (nan 0x7ff8000000000001L) (nan 0x7ff8000000000002L) in
  Alcotest.(check int) "different NaN payloads stay apart" 2 (count_fbin f Instr.FAdd)

let test_cse_vector_lanes () =
  let ty = Types.Vec (Types.I32, 4) in
  let f = Func.create "lanes" ~params:[ (0, ty) ] ~ret:ty in
  let b = Builder.create f in
  let c1 = Instr.cvec Types.I32 [| 1L; 2L; 3L; 4L |] in
  let c2 = Instr.cvec Types.I32 [| 1L; 2L; 3L; 5L |] in
  let a = Builder.add b (Instr.Var 0) c1 in
  let a' = Builder.add b (Instr.Var 0) c2 in
  let a'' = Builder.add b (Instr.Var 0) c1 in
  Builder.ret b (Some (Builder.xor b (Builder.xor b a a') a''));
  Builder.finish b;
  Parsimony.Simplify.run_func f;
  Panalysis.Check.check_func f;
  Alcotest.(check int) "one add per distinct vector constant" 2
    (count_op f (fun i ->
         match i.Instr.op with Instr.Ibin (Instr.Add, _, _) -> true | _ -> false))

(* masked stores of lane k's value k + 1 into one 4-lane chunk at
   [gep %0, 4], each through its own gep, against an i32[8] of 99s *)
let chunk_stores lanes =
  let build () =
    let f = Func.create "chunk" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.Void in
    let b = Builder.create f in
    List.iter
      (fun k ->
        let p = Builder.gep b (Instr.Var 0) (Instr.ci64 4) in
        let v = Instr.cvec Types.I32 (Array.make 4 (Int64.of_int (k + 1))) in
        let m = Instr.cvec Types.I1 (Array.init 4 (fun l -> if l = k then 1L else 0L)) in
        Builder.vstore b ~mask:m v p)
      lanes;
    Builder.ret_void b;
    Builder.finish b;
    f
  in
  let exec f =
    let m = Func.create_module "t" in
    Func.add_func m f;
    let t = Pmachine.Interp.create m in
    let a =
      Pmachine.Memory.alloc_array (Pmachine.Interp.mem t) Types.I32
        (Array.make 8 (Pmachine.Value.I 99L))
    in
    ignore (Pmachine.Interp.run t "chunk" [ Pmachine.Value.I (Int64.of_int a) ]);
    Pmachine.Memory.read_array (Pmachine.Interp.mem t) Types.I32 a 8
  in
  (build, exec)

let count_vstores f =
  count_op f (fun i -> match i.Instr.op with Instr.VStore _ -> true | _ -> false)

let test_coalescing_gep_offset () =
  let build, exec = chunk_stores [ 0; 2 ] in
  let before = exec (build ()) in
  (* two geps with the same base and offset: the key is (base, offset),
     not the gep that computed the address *)
  let f = build () in
  Parsimony.Simplify.coalesce_stores f;
  Panalysis.Check.check_func f;
  Alcotest.(check int) "stores merged" 1 (count_vstores f);
  Alcotest.(check bool) "same memory effect" true
    (Array.for_all2 Pmachine.Value.equal before (exec f))

let test_coalescing_three_stores () =
  let build, exec = chunk_stores [ 0; 1; 3 ] in
  let before = exec (build ()) in
  let f = build () in
  Parsimony.Simplify.run_func f;
  Panalysis.Check.check_func f;
  Alcotest.(check int) "three stores merged into one" 1 (count_vstores f);
  let after = exec f in
  Alcotest.(check bool) "same memory effect" true
    (Array.for_all2 Pmachine.Value.equal before after);
  Alcotest.(check bool) "merged contents" true
    (Array.for_all2 Pmachine.Value.equal after
       (Array.map
          (fun x -> Pmachine.Value.I (Int64.of_int x))
          [| 99; 99; 99; 99; 1; 2; 99; 4 |]))

let suites =
  [
    ( "simplify",
      [
        Alcotest.test_case "CSE merges pure ops and loads" `Quick
          test_cse_merges_pure_and_loads;
        Alcotest.test_case "stores invalidate load CSE" `Quick
          test_stores_invalidate_loads;
        Alcotest.test_case "DCE" `Quick test_dce_drops_dead_code;
        Alcotest.test_case "masked store coalescing" `Quick test_store_coalescing;
        Alcotest.test_case "coalescing blocked by loads" `Quick
          test_coalescing_blocked_by_load;
        Alcotest.test_case "CSE keeps 0.0 and -0.0 apart" `Quick test_cse_signed_zeros;
        Alcotest.test_case "CSE merges equal float constants" `Quick
          test_cse_equal_floats;
        Alcotest.test_case "CSE keys NaN by bit pattern" `Quick test_cse_nan_bits;
        Alcotest.test_case "CSE keeps vector constants apart by lane" `Quick
          test_cse_vector_lanes;
        Alcotest.test_case "coalescing keys gep base and offset" `Quick
          test_coalescing_gep_offset;
        Alcotest.test_case "three masked stores coalesce" `Quick
          test_coalescing_three_stores;
      ] );
  ]

(* head/tail gang specialization (paper §3): the mid-gang copy must have
   the boundary checks folded away entirely *)
let test_head_tail_specialization () =
  let src =
    {|
void edges(int32* a, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    int32 v = 1;
    if (psim_is_head_gang()) { v = v + 100; }
    if (psim_is_tail_gang()) { v = v + 200; }
    a[i] = v;
  }
}
|}
  in
  let m = Pfrontend.Lower.compile src in
  ignore (Parsimony.Vectorizer.run_module m);
  Parsimony.Simplify.run_module m;
  Panalysis.Check.check_module m;
  (* three specialized copies exist *)
  let names = List.map (fun f -> f.Func.fname) m.funcs in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " exists") true (List.mem n names))
    [ "edges__psim1_head"; "edges__psim1"; "edges__psim1_tail" ];
  (* the mid copy is branch-free straight-line code *)
  let mid = Func.find_func m "edges__psim1" in
  Alcotest.(check int) "mid copy has a single block" 1 (List.length mid.blocks);
  (* and execution is still correct across all gang positions *)
  let t = Pmachine.Interp.create m in
  let a =
    Pmachine.Memory.alloc_array (Pmachine.Interp.mem t) Types.I32
      (Array.make 24 (Pmachine.Value.I 0L))
  in
  ignore
    (Pmachine.Interp.run t "edges"
       [ Pmachine.Value.I (Int64.of_int a); Pmachine.Value.I 21L ]);
  let out = Pmachine.Memory.read_array (Pmachine.Interp.mem t) Types.I32 a 24 in
  Array.iteri
    (fun i v ->
      let expect =
        if i >= 21 then 0
        else if i < 8 then 101
        else if i >= 16 then 201
        else 1
      in
      Alcotest.(check bool) (Fmt.str "a[%d]" i) true
        (Pmachine.Value.equal v (Pmachine.Value.I (Int64.of_int expect))))
    out

let suites =
  suites
  @ [
      ( "simplify.specialization",
        [
          Alcotest.test_case "head/tail gang copies fold boundary checks" `Quick
            test_head_tail_specialization;
        ] );
    ]
