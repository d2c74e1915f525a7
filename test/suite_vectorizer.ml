(* Differential tests for the Parsimony vectorizer: for each SPMD
   function, execute (a) the scalar function under the SPMD reference
   executor and (b) the vectorized function under the plain interpreter,
   with identical initial memory, and require identical final memory.

   This is the central correctness property of the paper's pass: the
   vector translation preserves the programming-model semantics. *)

open Pir

let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

(* Run [f] (SPMD or vectorized) in a fresh module+memory.  [setup]
   allocates inputs and returns (captured args, readback).  Argument
   convention: captured ++ [gang_num; num_threads]. *)
let execute (f : Func.t) ~gangs ~num_threads ~setup =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let args, read = setup t.Pmachine.Interp.mem in
  for g = 0 to gangs - 1 do
    ignore
      (Pmachine.Interp.run t f.Func.fname
         (args
         @ [
             Pmachine.Value.I (Int64.of_int g);
             Pmachine.Value.I (Int64.of_int num_threads);
           ]))
  done;
  (read (), t)

(* Differential check: reference vs vectorized must produce identical
   outputs. The vectorized function must pass the verifier and contain no
   remaining psim intrinsics. *)
let differential ?(opts = Parsimony.Options.default) ?(gangs = 1) ?num_threads
    (f : Func.t) ~setup () =
  Panalysis.Check.check_func f;
  let gang =
    match f.Func.spmd with Some s -> s.Func.gang_size | None -> assert false
  in
  let num_threads = Option.value ~default:(gangs * gang) num_threads in
  let expected, _ = execute f ~gangs ~num_threads ~setup in
  let nf, report = Parsimony.Vectorizer.vectorize_func ~opts f in
  Panalysis.Check.check_func nf;
  Func.iter_instrs nf (fun _ i ->
      match i.Instr.op with
      | Instr.Call (n, _) when Intrinsics.is_psim n ->
          Alcotest.failf "psim intrinsic %s survived vectorization" n
      | _ -> ());
  let actual, _ = execute nf ~gangs ~num_threads ~setup in
  Alcotest.check (Alcotest.array valt) "reference = vectorized" expected actual;
  report

(* -- helpers to build SPMD test functions -- *)

let gang = 8

let spmd_func ?(partial = false) name params ret =
  Func.create name ~params ~ret ~spmd:{ Func.gang_size = gang; partial }

let thread_num b gang_param =
  (* gang_num * G + lane *)
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let base = Builder.mul b (Instr.Var gang_param) (Instr.ci64 gang) in
  Builder.add b base lane

let setup_arrays mem specs =
  (* allocate named arrays; returns (args, readback of all of them) *)
  let allocs =
    List.map
      (fun (s, vals) -> (s, Pmachine.Memory.alloc_array mem s vals))
      specs
  in
  let args =
    List.map (fun (_, a) -> Pmachine.Value.I (Int64.of_int a)) allocs
  in
  let read () =
    Array.concat
      (List.map2
         (fun (s, addr) (_, vals) ->
           Pmachine.Memory.read_array mem s addr (Array.length vals))
         allocs specs)
  in
  (args, read)

let i32s = Array.map (fun x -> Pmachine.Value.I (Int64.of_int x))

(* 1. straight-line strided: b[i] = a[i] * 2 + i *)
let test_straightline () =
  let f =
    spmd_func "sl"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let v = Builder.load b p in
  let v2 = Builder.mul b v (Instr.ci32 2) in
  let i32 = Builder.cast b Instr.Trunc i Types.i32 in
  let r = Builder.add b v2 i32 in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b r q;
  Builder.ret_void b;
  Builder.finish b;
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s (Array.init gang (fun i -> (i * 7) mod 50)));
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check int) "one packed load" 1 rep.Parsimony.Vectorizer.packed_loads;
  Alcotest.(check int) "one packed store" 1 rep.Parsimony.Vectorizer.packed_stores;
  Alcotest.(check int) "no gathers" 0 rep.Parsimony.Vectorizer.gathers

(* 2. divergent if: b[i] = a[i] > 10 ? a[i]*3 : 7 *)
let test_divergent_if () =
  let f =
    spmd_func "dif"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let v = Builder.load b p in
  let c = Builder.icmp b Instr.Sgt v (Instr.ci32 10) in
  Builder.condbr b c "t" "e";
  let bt = Builder.add_block b "t" in
  Builder.position b bt;
  let v3 = Builder.mul b v (Instr.ci32 3) in
  Builder.br b "j";
  let be = Builder.add_block b "e" in
  Builder.position b be;
  Builder.br b "j";
  let bj = Builder.add_block b "j" in
  Builder.position b bj;
  let r = Builder.phi b Types.i32 [ ("t", v3); ("e", Instr.ci32 7) ] in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b r q;
  Builder.ret_void b;
  Builder.finish b;
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s [| 3; 15; 9; 100; 11; 10; 0; 42 |]);
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check int) "one linearized branch" 1
    rep.Parsimony.Vectorizer.linearized_branches

(* 3. divergent loop (iteration count depends on lane): collatz-ish
   counter with a data-dependent trip count, plus a live-out *)
let test_divergent_loop () =
  let f =
    spmd_func "dloop"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let n = Builder.load b p in
  Builder.br b "h";
  let bh = Builder.add_block b "h" in
  Builder.position b bh;
  let x = Builder.phi b Types.i32 [ ("entry", n) ] in
  let cnt = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let c = Builder.icmp b Instr.Sgt x (Instr.ci32 1) in
  Builder.condbr b c "body" "x";
  let bb = Builder.add_block b "body" in
  Builder.position b bb;
  let x2 = Builder.ibin b Instr.SDiv x (Instr.ci32 2) in
  let cnt2 = Builder.add b cnt (Instr.ci32 1) in
  Builder.br b "h";
  let bx = Builder.add_block b "x" in
  Builder.position b bx;
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b cnt q;
  Builder.ret_void b;
  Builder.finish b;
  (match bh.instrs with
  | p1 :: p2 :: rest ->
      bh.instrs <-
        { p1 with Instr.op = Instr.Phi [ ("entry", n); ("body", x2) ] }
        :: { p2 with Instr.op = Instr.Phi [ ("entry", Instr.ci32 0); ("body", cnt2) ] }
        :: rest
  | _ -> assert false);
  ignore (x, cnt);
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s [| 1; 2; 64; 9; 0; 100; 7; 31 |]);
            (Types.I32, i32s (Array.make gang (-1)));
          ])
      ()
  in
  Alcotest.(check int) "one masked loop" 1 rep.Parsimony.Vectorizer.masked_loops

(* 4. horizontal shuffle: b[i] = value of lane i^1 *)
let test_shuffle () =
  let f =
    spmd_func "shuf"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let v = Builder.load b p in
  let src = Builder.xor b lane (Instr.ci64 1) in
  let got = Builder.call b Types.i32 Intrinsics.shuffle [ v; src ] in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b got q;
  Builder.ret_void b;
  Builder.finish b;
  ignore
    (differential f
       ~setup:(fun mem ->
         setup_arrays mem
           [
             (Types.I32, i32s (Array.init gang (fun i -> i * 11)));
             (Types.I32, i32s (Array.make gang 0));
           ])
       ())

(* 5. stride-2 load: b[i] = a[2i] + a[2i+1] -> packed+shuffle path *)
let test_strided_load () =
  let f =
    spmd_func "str2"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let i2 = Builder.mul b i (Instr.ci64 2) in
  let p0 = Builder.gep b (Instr.Var 0) i2 in
  let v0 = Builder.load b p0 in
  let i21 = Builder.add b i2 (Instr.ci64 1) in
  let p1 = Builder.gep b (Instr.Var 0) i21 in
  let v1 = Builder.load b p1 in
  let s = Builder.add b v0 v1 in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b s q;
  Builder.ret_void b;
  Builder.finish b;
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s (Array.init (2 * gang) (fun i -> i * 3)));
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check int) "strided loads shuffled" 2
    rep.Parsimony.Vectorizer.strided_shuffles;
  Alcotest.(check int) "no gathers" 0 rep.Parsimony.Vectorizer.gathers

(* 6. gather: b[i] = a[idx[i]] *)
let test_gather () =
  let f =
    spmd_func "gat"
      [
        (0, Types.Ptr Types.I32);
        (1, Types.Ptr Types.I32);
        (2, Types.Ptr Types.I32);
        (3, Types.i64);
        (4, Types.i64);
      ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 3 in
  let pidx = Builder.gep b (Instr.Var 1) i in
  let idx = Builder.load b pidx in
  let idx64 = Builder.cast b Instr.SExt idx Types.i64 in
  let pa = Builder.gep b (Instr.Var 0) idx64 in
  let v = Builder.load b pa in
  let q = Builder.gep b (Instr.Var 2) i in
  Builder.store b v q;
  Builder.ret_void b;
  Builder.finish b;
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s (Array.init 16 (fun i -> i * 100)));
            (Types.I32, i32s [| 0; 5; 3; 3; 15; 1; 8; 2 |]);
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check bool) "emitted a gather" true (rep.Parsimony.Vectorizer.gathers >= 1)

(* 7. uniform branch stays scalar *)
let test_uniform_branch () =
  let f =
    spmd_func "ub"
      [ (0, Types.Ptr Types.I32); (1, Types.i32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let c = Builder.icmp b Instr.Sgt (Instr.Var 1) (Instr.ci32 5) in
  Builder.condbr b c "t" "e";
  let bt = Builder.add_block b "t" in
  Builder.position b bt;
  Builder.br b "j";
  let be = Builder.add_block b "e" in
  Builder.position b be;
  Builder.br b "j";
  let bj = Builder.add_block b "j" in
  Builder.position b bj;
  let r = Builder.phi b Types.i32 [ ("t", Instr.ci32 1); ("e", Instr.ci32 2) ] in
  let q = Builder.gep b (Instr.Var 0) i in
  Builder.store b r q;
  Builder.ret_void b;
  Builder.finish b;
  let setup big mem =
    let args, read =
      setup_arrays mem [ (Types.I32, i32s (Array.make gang 0)) ]
    in
    (args @ [ Pmachine.Value.I (if big then 10L else 3L) ], read)
  in
  let rep = differential f ~setup:(setup true) () in
  Alcotest.(check int) "uniform branch kept" 1
    rep.Parsimony.Vectorizer.uniform_branches_kept;
  Alcotest.(check int) "no linearization" 0
    rep.Parsimony.Vectorizer.linearized_branches;
  ignore (differential f ~setup:(setup false) ())

(* 8. uniform loop with varying accumulator: b[i] = sum_j a[i*K+j] *)
let test_uniform_loop () =
  let k = 4 in
  let f =
    spmd_func "uloop"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  Builder.br b "h";
  let bh = Builder.add_block b "h" in
  Builder.position b bh;
  let j = Builder.phi b Types.i64 [ ("entry", Instr.ci64 0) ] in
  let acc = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let c = Builder.icmp b Instr.Slt j (Instr.ci64 k) in
  Builder.condbr b c "body" "x";
  let bb = Builder.add_block b "body" in
  Builder.position b bb;
  let ik = Builder.mul b i (Instr.ci64 k) in
  let ikj = Builder.add b ik j in
  let p = Builder.gep b (Instr.Var 0) ikj in
  let v = Builder.load b p in
  let acc2 = Builder.add b acc v in
  let j2 = Builder.add b j (Instr.ci64 1) in
  Builder.br b "h";
  let bx = Builder.add_block b "x" in
  Builder.position b bx;
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b acc q;
  Builder.ret_void b;
  Builder.finish b;
  (match bh.instrs with
  | p1 :: p2 :: rest ->
      bh.instrs <-
        { p1 with Instr.op = Instr.Phi [ ("entry", Instr.ci64 0); ("body", j2) ] }
        :: { p2 with Instr.op = Instr.Phi [ ("entry", Instr.ci32 0); ("body", acc2) ] }
        :: rest
  | _ -> assert false);
  ignore (j, acc);
  let rep =
    differential f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s (Array.init (gang * k) (fun i -> (i * 13) mod 97)));
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check int) "loop stayed uniform" 1 rep.Parsimony.Vectorizer.uniform_loops;
  Alcotest.(check int) "no masked loop" 0 rep.Parsimony.Vectorizer.masked_loops

(* 9. partial gangs over multiple gangs: 3 gangs, 19 threads *)
let test_partial_gang () =
  let mkf partial =
    let f =
      spmd_func ~partial "pg"
        [ (0, Types.Ptr Types.I32); (1, Types.i64); (2, Types.i64) ]
        Types.Void
    in
    let b = Builder.create f in
    let i = thread_num b 1 in
    let p = Builder.gep b (Instr.Var 0) i in
    let i32 = Builder.cast b Instr.Trunc i Types.i32 in
    Builder.store b i32 p;
    Builder.ret_void b;
    Builder.finish b;
    f
  in
  (* the partial variant used for the tail gang *)
  let f = mkf true in
  ignore
    (differential f ~gangs:3 ~num_threads:19
       ~setup:(fun mem ->
         setup_arrays mem [ (Types.I32, i32s (Array.make 24 (-7))) ])
       ())

(* 10. sad_u8 horizontal op vs psadbw *)
let test_sad_u8 () =
  let f =
    spmd_func "sad"
      [ (0, Types.Ptr Types.I8); (1, Types.Ptr Types.I8); (2, Types.Ptr Types.I64); (3, Types.i64); (4, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 3 in
  let pa = Builder.gep b (Instr.Var 0) i in
  let a = Builder.load b pa in
  let pb = Builder.gep b (Instr.Var 1) i in
  let b8 = Builder.load b pb in
  let s = Builder.call b Types.i64 Intrinsics.sad_u8 [ a; b8 ] in
  let q = Builder.gep b (Instr.Var 2) i in
  Builder.store b s q;
  Builder.ret_void b;
  Builder.finish b;
  ignore
    (differential f
       ~setup:(fun mem ->
         setup_arrays mem
           [
             (Types.I8, i32s [| 10; 250; 3; 40; 5; 6; 77; 8 |]);
             (Types.I8, i32s [| 9; 1; 30; 4; 50; 60; 7; 80 |]);
             (Types.I64, i32s (Array.make gang 0));
           ])
       ())

(* 11. ablation: shape analysis off must still be correct (all gathers) *)
let test_no_shape_analysis_correct () =
  let f =
    spmd_func "nsa"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let v = Builder.load b p in
  let r = Builder.add b v (Instr.ci32 1) in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b r q;
  Builder.ret_void b;
  Builder.finish b;
  let opts = { Parsimony.Options.default with shape_analysis = false } in
  let rep =
    differential ~opts f
      ~setup:(fun mem ->
        setup_arrays mem
          [
            (Types.I32, i32s (Array.init gang (fun i -> i)));
            (Types.I32, i32s (Array.make gang 0));
          ])
      ()
  in
  Alcotest.(check bool) "ablation uses gathers" true
    (rep.Parsimony.Vectorizer.gathers >= 1)

(* 12. boscc on a divergent if is still correct *)
let test_boscc () =
  let f =
    spmd_func "boscc"
      [ (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.i64); (3, Types.i64) ]
      Types.Void
  in
  let b = Builder.create f in
  let i = thread_num b 2 in
  let p = Builder.gep b (Instr.Var 0) i in
  let v = Builder.load b p in
  let c = Builder.icmp b Instr.Sgt v (Instr.ci32 1000) in
  Builder.condbr b c "t" "e";
  let bt = Builder.add_block b "t" in
  Builder.position b bt;
  let v3 = Builder.mul b v (Instr.ci32 3) in
  Builder.br b "j";
  let be = Builder.add_block b "e" in
  Builder.position b be;
  Builder.br b "j";
  let bj = Builder.add_block b "j" in
  Builder.position b bj;
  let r = Builder.phi b Types.i32 [ ("t", v3); ("e", v) ] in
  let q = Builder.gep b (Instr.Var 1) i in
  Builder.store b r q;
  Builder.ret_void b;
  Builder.finish b;
  let opts = { Parsimony.Options.default with boscc = true } in
  (* all lanes take else: the then side is skipped at runtime *)
  ignore
    (differential ~opts f
       ~setup:(fun mem ->
         setup_arrays mem
           [
             (Types.I32, i32s (Array.init gang (fun i -> i)));
             (Types.I32, i32s (Array.make gang 0));
           ])
       ());
  (* mixed lanes *)
  ignore
    (differential ~opts f
       ~setup:(fun mem ->
         setup_arrays mem
           [
             (Types.I32, i32s [| 1; 2000; 3; 4000; 5; 6; 7000; 8 |]);
             (Types.I32, i32s (Array.make gang 0));
           ])
       ())

let suites =
  [
    ( "vectorizer.diff",
      [
        Alcotest.test_case "straight-line strided" `Quick test_straightline;
        Alcotest.test_case "divergent if" `Quick test_divergent_if;
        Alcotest.test_case "divergent loop + live-out" `Quick test_divergent_loop;
        Alcotest.test_case "horizontal shuffle" `Quick test_shuffle;
        Alcotest.test_case "stride-2 load via shuffle" `Quick test_strided_load;
        Alcotest.test_case "gather" `Quick test_gather;
        Alcotest.test_case "uniform branch" `Quick test_uniform_branch;
        Alcotest.test_case "uniform loop" `Quick test_uniform_loop;
        Alcotest.test_case "partial gangs" `Quick test_partial_gang;
        Alcotest.test_case "sad_u8 / psadbw" `Quick test_sad_u8;
        Alcotest.test_case "ablation: no shape analysis" `Quick
          test_no_shape_analysis_correct;
        Alcotest.test_case "boscc" `Quick test_boscc;
      ] );
  ]
