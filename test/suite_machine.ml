(* Tests for the machine substrate: memory, math library, scalar
   interpreter, vector operations, cost accounting, and the SPMD gang
   semantics of both reference executors (interpreter and symbolic
   executor). *)

open Pir

let i64t = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal
let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

(* -- Memory -- *)

let test_memory_rw () =
  let m = Pmachine.Memory.create () in
  let a = Pmachine.Memory.alloc m 64 in
  Alcotest.(check bool) "aligned" true (a mod 64 = 0);
  Pmachine.Memory.store_scalar m Types.I16 a (Pmachine.Value.I 0xBEEFL);
  Alcotest.check valt "i16 roundtrip" (Pmachine.Value.I 0xBEEFL)
    (Pmachine.Memory.load_scalar m Types.I16 a);
  Pmachine.Memory.store_scalar m Types.F32 (a + 8) (Pmachine.Value.F 1.5);
  Alcotest.check valt "f32 roundtrip" (Pmachine.Value.F 1.5)
    (Pmachine.Memory.load_scalar m Types.F32 (a + 8));
  Pmachine.Memory.store_scalar m Types.I8 (a + 2) (Pmachine.Value.I 0x1FFL);
  Alcotest.check valt "i8 truncates" (Pmachine.Value.I 0xFFL)
    (Pmachine.Memory.load_scalar m Types.I8 (a + 2))

let test_memory_fault () =
  let m = Pmachine.Memory.create () in
  Alcotest.check_raises "null deref"
    (Pmachine.Memory.Fault "load of 4 bytes at address 0 out of bounds")
    (fun () -> ignore (Pmachine.Memory.load_scalar m Types.I32 0))

let test_memory_frames () =
  let m = Pmachine.Memory.create () in
  let mark = Pmachine.Memory.mark m in
  let _ = Pmachine.Memory.alloc m 1024 in
  Pmachine.Memory.release m mark;
  let a1 = Pmachine.Memory.alloc m 16 in
  Pmachine.Memory.release m mark;
  let a2 = Pmachine.Memory.alloc m 16 in
  Alcotest.(check int) "frame reuse" a1 a2

(* The memory materialises its backing lazily; [Eager] is the model it
   must be indistinguishable from: the whole architectural size held in
   zeroed bytes from the start, grown by doubling when an allocation
   passes it. *)
module Eager = struct
  type t = { mutable data : Bytes.t; mutable brk : int }

  let create () = { data = Bytes.make (1 lsl 20) '\000'; brk = 64 }

  let alloc t bytes =
    let addr = (t.brk + 63) / 64 * 64 in
    let n = Bytes.length t.data in
    if addr + bytes > n then begin
      let data = Bytes.make (max (addr + bytes) (2 * n)) '\000' in
      Bytes.blit t.data 0 data 0 n;
      t.data <- data
    end;
    t.brk <- addr + bytes;
    addr

  let check t addr len what =
    if addr < 64 || addr + len > Bytes.length t.data then
      raise
        (Pmachine.Memory.Fault
           (Fmt.str "%s of %d bytes at address %d out of bounds" what len addr))

  let load t (s : Types.scalar) addr : Pmachine.Value.t =
    check t addr (Types.scalar_bytes s) "load";
    let d = t.data in
    match s with
    | I1 -> I (if Bytes.get_uint8 d addr <> 0 then 1L else 0L)
    | I8 -> I (Int64.of_int (Bytes.get_uint8 d addr))
    | I16 -> I (Int64.of_int (Bytes.get_uint16_le d addr))
    | I32 -> I (Int64.logand (Int64.of_int32 (Bytes.get_int32_le d addr)) 0xFFFFFFFFL)
    | I64 -> I (Bytes.get_int64_le d addr)
    | F32 -> F (Int32.float_of_bits (Bytes.get_int32_le d addr))
    | F64 -> F (Int64.float_of_bits (Bytes.get_int64_le d addr))

  let store t (s : Types.scalar) addr (v : Pmachine.Value.t) =
    check t addr (Types.scalar_bytes s) "store";
    let d = t.data in
    match (s, v) with
    | I1, I x -> Bytes.set_uint8 d addr (if x = 0L then 0 else 1)
    | I8, I x -> Bytes.set_uint8 d addr (Int64.to_int x land 0xFF)
    | I16, I x -> Bytes.set_uint16_le d addr (Int64.to_int x land 0xFFFF)
    | I32, I x -> Bytes.set_int32_le d addr (Int64.to_int32 x)
    | I64, I x -> Bytes.set_int64_le d addr x
    | F32, F x -> Bytes.set_int32_le d addr (Int32.bits_of_float x)
    | F64, F x -> Bytes.set_int64_le d addr (Int64.bits_of_float x)
    | _ -> invalid_arg "Eager.store"

  let snapshot t = Bytes.sub t.data 0 t.brk
end

(* Where an access lands, resolved against the state when it runs:
   near null, the first mapped byte, the break, the materialised edge,
   the last [len] bytes of the architectural size, the size itself and
   past it. *)
type anchor = Zero | First | Brk | Resident | Last | Size | Past

type mem_op =
  | Alloc of int
  | Mark
  | Release
  | Load of Types.scalar * anchor * int
  | Store of Types.scalar * anchor * int * int64

let anchor_name = function
  | Zero -> "0"
  | First -> "64"
  | Brk -> "brk"
  | Resident -> "resident"
  | Last -> "size-len"
  | Size -> "size"
  | Past -> "size+64"

let pp_mem_op ppf = function
  | Alloc n -> Fmt.pf ppf "alloc %d" n
  | Mark -> Fmt.string ppf "mark"
  | Release -> Fmt.string ppf "release"
  | Load (s, a, off) ->
      Fmt.pf ppf "load %a @@%s%+d" Types.pp (Types.Scalar s) (anchor_name a) off
  | Store (s, a, off, x) ->
      Fmt.pf ppf "store %a @@%s%+d %Ld" Types.pp (Types.Scalar s) (anchor_name a)
        off x

let scalars = Types.[ I1; I8; I16; I32; I64; F32; F64 ]

let gen_mem_op =
  let open QCheck.Gen in
  let anchor = oneofl [ Zero; First; Brk; Resident; Last; Size; Past ] in
  let access =
    map3 (fun s a off -> (s, a, off)) (oneofl scalars) anchor (int_range (-9) 9)
  in
  frequency
    [
      (* mostly small blocks; a few big enough that two or three push the
         size past 1 MiB *)
      (4, map (fun n -> Alloc n) (int_bound 4096));
      (1, map (fun n -> Alloc n) (int_range 200_000 700_000));
      (1, return Mark);
      (1, return Release);
      (6, map (fun (s, a, off) -> Load (s, a, off)) access);
      (6, map2 (fun (s, a, off) x -> Store (s, a, off, x)) access ui64);
    ]

let run_mem_ops ops =
  let lazy_m = Pmachine.Memory.create () and eager = Eager.create () in
  let marks = ref [] in
  let addr s a off =
    let len = Types.scalar_bytes s and size = Bytes.length eager.data in
    off
    + (match a with
      | Zero -> 0
      | First -> 64
      | Brk -> eager.brk
      | Resident -> Pmachine.Memory.resident lazy_m
      | Last -> size - len
      | Size -> size
      | Past -> size + 64)
  in
  let value (s : Types.scalar) x : Pmachine.Value.t =
    if Types.is_float_scalar s then F (Int64.float_of_bits x) else I x
  in
  let outcome f = match f () with v -> Ok v | exception Pmachine.Memory.Fault e -> Error e in
  List.iter
    (fun op ->
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%a: %s differs" pp_mem_op op what
      in
      match op with
      | Alloc n -> same "address" (Pmachine.Memory.alloc lazy_m n) (Eager.alloc eager n)
      | Mark ->
          let m = Pmachine.Memory.mark lazy_m in
          same "mark" m eager.brk;
          marks := m :: !marks
      | Release -> (
          match !marks with
          | m :: rest ->
              Pmachine.Memory.release lazy_m m;
              eager.brk <- m;
              marks := rest
          | [] -> ())
      | Load (s, a, off) -> (
          let at = addr s a off in
          match
            (outcome (fun () -> Pmachine.Memory.load_scalar lazy_m s at),
             outcome (fun () -> Eager.load eager s at))
          with
          | Ok x, Ok y when Pmachine.Value.equal x y -> ()
          | Error x, Error y when x = y -> ()
          | _ -> QCheck.Test.fail_reportf "%a at %d: results differ" pp_mem_op op at)
      | Store (s, a, off, x) ->
          let at = addr s a off and v = value s x in
          same "store outcome"
            (outcome (fun () -> Pmachine.Memory.store_scalar lazy_m s at v))
            (outcome (fun () -> Eager.store eager s at v)))
    ops;
  Bytes.equal (Pmachine.Memory.snapshot lazy_m) (Eager.snapshot eager)

let prop_memory_matches_eager =
  QCheck.Test.make ~name:"lazy memory matches the eager model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_mem_op) ops)
       QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
    run_mem_ops

let test_memory_boundaries () =
  let m = Pmachine.Memory.create () in
  Alcotest.(check int) "fresh memory materialises nothing" 0
    (Pmachine.Memory.resident m);
  Alcotest.check valt "a load ending at 1 MiB reads 0" (Pmachine.Value.I 0L)
    (Pmachine.Memory.load_scalar m Types.I32 ((1 lsl 20) - 4));
  Alcotest.check_raises "one byte further faults"
    (Pmachine.Memory.Fault "load of 4 bytes at address 1048573 out of bounds")
    (fun () -> ignore (Pmachine.Memory.load_scalar m Types.I32 ((1 lsl 20) - 3)))

(* an engine and its buffers pay for what they allocate, not for the
   1 MiB the memory may grow to *)
let test_memory_resident_saxpy () =
  let src =
    "void saxpy(float32* x, float32* y, float32 a, int64 n) {\n\
    \  psim gang_size(16) num_spmd_threads(n) {\n\
    \    int64 i = psim_thread_num();\n\
    \    y[i] = a * x[i] + y[i];\n\
    \  }\n\
     }\n"
  in
  let m, _ = Pharness.Pipeline.compile ~name:"saxpy" src in
  let t = Pmachine.Engine.create m in
  let mem = Pmachine.Engine.mem t in
  let n = 1000 in
  let buf k =
    let a = Pmachine.Memory.alloc mem (4 * n) in
    for i = 0 to n - 1 do
      Pmachine.Memory.store_scalar mem Types.F32 (a + (4 * i))
        (Pmachine.Value.F (float_of_int (k * i)))
    done;
    a
  in
  let within_twice_break when_ =
    let brk = Pmachine.Memory.mark mem and resident = Pmachine.Memory.resident mem in
    Alcotest.(check bool)
      (Fmt.str "%s: resident %d <= 2 * break %d" when_ resident brk)
      true
      (resident <= 2 * brk)
  in
  let x = buf 1 and y = buf 2 in
  within_twice_break "buffers";
  ignore
    (Pmachine.Engine.run t "saxpy"
       Pmachine.Value.[ I (Int64.of_int x); I (Int64.of_int y); F 3.0; I (Int64.of_int n) ]);
  Alcotest.check valt "y[7] = 3 * 7 + 14" (Pmachine.Value.F 35.0)
    (Pmachine.Memory.load_scalar mem Types.F32 (y + 28));
  within_twice_break "run"

(* Integer loads below 2^16 share [Pmachine.Value]'s cells; the table
   lives there alone ([Bc.box64] reads it too). *)
let test_memory_shared_cells () =
  let m = Pmachine.Memory.create () in
  let a = Pmachine.Memory.alloc m 64 in
  List.iter
    (fun (s, x) ->
      Pmachine.Memory.store_scalar m s a (Pmachine.Value.I x);
      let v = Pmachine.Memory.load_scalar m s a in
      let what = Fmt.str "%a %Ld" Types.pp (Types.Scalar s) x in
      Alcotest.check valt what (Pmachine.Value.I x) v;
      Alcotest.(check bool) (what ^ " is shared") true
        (v == Pmachine.Memory.load_scalar m s a))
    Types.
      [
        (I1, 1L); (I8, 0L); (I8, 255L); (I16, 0xBEEFL); (I16, 65535L);
        (I32, 7L); (I32, 65535L); (I64, 0L); (I64, 42L); (I64, 65535L);
      ];
  List.iter
    (fun (s, x) ->
      Pmachine.Memory.store_scalar m s a (Pmachine.Value.I x);
      Alcotest.check valt
        (Fmt.str "%a %Ld loads exactly" Types.pp (Types.Scalar s) x)
        (Pmachine.Value.I x)
        (Pmachine.Memory.load_scalar m s a))
    Types.
      [
        (I32, 65536L); (I32, 0xFFFF_FFFFL); (I64, 65536L); (I64, 0xFFFF_FFFFL);
        (I64, Int64.min_int); (I64, -1L);
      ];
  Alcotest.(check bool) "box64 reads Value.small64" true
    (Pmachine.Bc.box64 1234 == Pmachine.Value.small64.(1234))

(* -- Interpreter on straight-line and branchy code -- *)

let run_fn f args =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  (Pmachine.Interp.run t f.Func.fname args, t)

let test_interp_arith () =
  let f = Func.create "arith" ~params:[ (0, Types.i32); (1, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let s = Builder.add b (Instr.Var 0) (Instr.Var 1) in
  let p = Builder.mul b s (Instr.ci32 3) in
  Builder.ret b (Some p);
  Builder.finish b;
  let r, _ = run_fn f [ Pmachine.Value.I 4L; Pmachine.Value.I 5L ] in
  Alcotest.check valt "(4+5)*3" (Pmachine.Value.I 27L) r

let test_interp_branch_loop () =
  (* sum of 0..n-1 via loop *)
  let f = Func.create "sumn" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  Builder.br b "h";
  let bh = Builder.add_block b "h" in
  Builder.position b bh;
  (* reserve ids by creating phis with self references patched later *)
  let i = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let s = Builder.phi b Types.i32 [ ("entry", Instr.ci32 0) ] in
  let c = Builder.icmp b Instr.Slt i (Instr.Var 0) in
  Builder.condbr b c "body" "x";
  let bb = Builder.add_block b "body" in
  Builder.position b bb;
  let s' = Builder.add b s i in
  let i' = Builder.add b i (Instr.ci32 1) in
  Builder.br b "h";
  let bx = Builder.add_block b "x" in
  Builder.position b bx;
  Builder.ret b (Some s);
  Builder.finish b;
  (* complete the phis *)
  bh.instrs <-
    List.map
      (fun inst ->
        match inst.Instr.op with
        | Instr.Phi [ ("entry", init) ] ->
            let upd = if Instr.equal_operand (Instr.Var inst.Instr.id) i then i' else s' in
            { inst with Instr.op = Instr.Phi [ ("entry", init); ("body", upd) ] }
        | _ -> inst)
      bh.instrs;
  Panalysis.Check.check_func f;
  let r, t = run_fn f [ Pmachine.Value.I 10L ] in
  Alcotest.check valt "sum 0..9" (Pmachine.Value.I 45L) r;
  Alcotest.(check bool) "cycles accumulated" true (t.Pmachine.Interp.stats.cycles > 0.0)

let test_interp_vector_ops () =
  let f = Func.create "vec" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let v = Builder.vload b (Instr.Var 0) 4 in
  let w = Builder.ibin b Instr.Mul v (Instr.cvec Types.I32 [| 1L; 2L; 3L; 4L |]) in
  let r = Builder.reduce b Instr.RAdd w in
  Builder.ret b (Some r);
  Builder.finish b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let addr =
    Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.I32
      (Array.map (fun x -> Pmachine.Value.I x) [| 10L; 20L; 30L; 40L |])
  in
  let r = Pmachine.Interp.run t "vec" [ Pmachine.Value.I (Int64.of_int addr) ] in
  (* 10*1 + 20*2 + 30*3 + 40*4 = 300 *)
  Alcotest.check valt "dot" (Pmachine.Value.I 300L) r

let test_interp_masked_store () =
  let f = Func.create "mst" ~params:[ (0, Types.Ptr Types.I32) ] ~ret:Types.Void in
  let b = Builder.create f in
  let v = Builder.ins b (Types.Vec (Types.I32, 4)) (Instr.Splat (Instr.ci32 7, 4)) in
  let mask = Instr.cvec Types.I1 [| 1L; 0L; 1L; 0L |] in
  Builder.vstore b ~mask v (Instr.Var 0);
  Builder.ret_void b;
  Builder.finish b;
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let addr =
    Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.I32
      (Array.make 4 (Pmachine.Value.I 1L))
  in
  ignore (Pmachine.Interp.run t "mst" [ Pmachine.Value.I (Int64.of_int addr) ]);
  let out = Pmachine.Memory.read_array t.Pmachine.Interp.mem Types.I32 addr 4 in
  Alcotest.check (Alcotest.array valt) "masked lanes untouched"
    [| Pmachine.Value.I 7L; Pmachine.Value.I 1L; Pmachine.Value.I 7L; Pmachine.Value.I 1L |]
    out

let test_interp_gather_cost_exceeds_packed () =
  let mk use_gather =
    let f =
      Func.create (if use_gather then "g" else "p")
        ~params:[ (0, Types.Ptr Types.F32) ] ~ret:Types.Void
    in
    let b = Builder.create f in
    (if use_gather then
       let idx = Instr.cvec Types.I64 (Array.init 16 Int64.of_int) in
       ignore (Builder.gather b (Instr.Var 0) idx)
     else ignore (Builder.vload b (Instr.Var 0) 16));
    Builder.ret_void b;
    Builder.finish b;
    f
  in
  let run f =
    let m = Func.create_module "t" in
    Func.add_func m f;
    let t = Pmachine.Interp.create m in
    let addr =
      Pmachine.Memory.alloc_array t.Pmachine.Interp.mem Types.F32
        (Array.make 16 (Pmachine.Value.F 0.))
    in
    ignore (Pmachine.Interp.run t f.Func.fname [ Pmachine.Value.I (Int64.of_int addr) ]);
    t.Pmachine.Interp.stats.cycles
  in
  let cg = run (mk true) and cp = run (mk false) in
  Alcotest.(check bool)
    (Fmt.str "gather (%g) much slower than packed (%g)" cg cp)
    true
    (cg > 3.0 *. cp)

let test_mathlib () =
  Alcotest.check valt "pow" (Pmachine.Value.F 8.)
    (Pmachine.Mathlib.eval "math.pow.f64" [ Pmachine.Value.F 2.; Pmachine.Value.F 3. ]);
  match Pmachine.Mathlib.eval "sleef.sqrt.f32" [ Pmachine.Value.VF [| 4.0; 9.0 |] ] with
  | Pmachine.Value.VF [| a; b |] ->
      Alcotest.(check (float 1e-6)) "sqrt4" 2.0 a;
      Alcotest.(check (float 1e-6)) "sqrt9" 3.0 b
  | v -> Alcotest.failf "unexpected %a" Pmachine.Value.pp v

(* -- SPMD reference executors --

   Every case runs on both executors that give SPMD functions their
   reference semantics through [Pmachine.Gang]: the interpreter, and
   the symbolic executor on concrete inputs.  The function's leading
   parameters are [int32*] buffers with the given initial contents, the
   rest are [int64]s ending with [gang_num, num_threads].  Both
   executors must leave the same buffer contents, or fault with the
   same text. *)

type outcome = Bufs of int64 array list | Fault of string

let pp_outcome ppf = function
  | Bufs bs ->
      Fmt.(list ~sep:semi (brackets (array ~sep:semi int64))) ppf bs
  | Fault msg -> Fmt.pf ppf "fault: %s" msg

let outcome = Alcotest.testable pp_outcome ( = )

let run_interp (f : Func.t) ~bufs ~tail =
  let m = Func.create_module "t" in
  Func.add_func m f;
  let t = Pmachine.Interp.create m in
  let mem = t.Pmachine.Interp.mem in
  let addrs =
    List.map
      (fun b ->
        Pmachine.Memory.alloc_array mem Types.I32
          (Array.map (fun v -> Pmachine.Value.I v) b))
      bufs
  in
  let args =
    List.map (fun a -> Pmachine.Value.I (Int64.of_int a)) addrs
    @ List.map (fun v -> Pmachine.Value.I v) tail
  in
  match Pmachine.Interp.run t f.fname args with
  | exception Pmachine.Interp.Trap msg -> Fault msg
  | _ ->
      Bufs
        (List.map2
           (fun a b ->
             Pmachine.Memory.read_array mem Types.I32 a (Array.length b)
             |> Array.map (fun v -> Ints.norm 32 (Pmachine.Value.as_int v)))
           addrs bufs)

let run_symexec (f : Func.t) ~bufs ~tail =
  let module S = Psmt.Symexec in
  let ctx = S.create_ctx () in
  let st = { S.objs = [] } in
  let objs =
    List.mapi
      (fun k b ->
        S.add_obj st ~name:(Fmt.str "buf%d" k) ~kind:Types.I32
          ~cells:(Array.map (S.int_const ctx Types.I32) b)
          ~lo:0 ~private_:false)
      bufs
  in
  let args =
    List.map (fun (o : S.obj) -> S.S (S.int_const ctx Types.I64 (S.obj_base o.oid))) objs
    @ List.map (fun v -> S.S (S.int_const ctx Types.I64 v)) tail
  in
  let xc = { S.ctx; st; lookup = (fun _ -> None); fuel = 100_000 } in
  match S.exec_func xc f args with
  | exception S.Sym_fault msg -> Fault msg
  | _ ->
      Bufs
        (List.map
           (fun (o : S.obj) ->
             Array.map
               (fun c ->
                 match S.as_cint c with
                 | Some v -> v
                 | None -> Alcotest.fail "symbolic cell on concrete inputs")
               o.cells)
           objs)

let run_spmd f ~bufs ~tail =
  let r = run_interp f ~bufs ~tail in
  Alcotest.check outcome "interpreter and symbolic executor agree" r
    (run_symexec f ~bufs ~tail);
  r

let spmd_func name ~gang ?(partial = false) ~bufs () =
  let params =
    List.init bufs (fun k -> (k, Types.Ptr Types.I32))
    @ [ (bufs, Types.i64); (bufs + 1, Types.i64) ]
  in
  Func.create name ~params ~ret:Types.Void ~spmd:{ Func.gang_size = gang; partial }

let lanes n f = Array.init n (fun i -> Int64.of_int (f i))

(* SPMD function: a[i] = lane; then sync; then b[i] = a[(i+1) % G] read
   through memory — the Listing 3 pattern (explicit synchronization). *)
let build_spmd_listing3 gang =
  let f = spmd_func "spmd3" ~gang ~bufs:2 () in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let p = Builder.gep b (Instr.Var 0) lane in
  let lv = Builder.cast b Instr.Trunc lane Types.i32 in
  Builder.store b lv p;
  Builder.call_unit b Intrinsics.gang_sync [];
  let nxt = Builder.add b lane (Instr.ci64 1) in
  let nxt = Builder.ibin b Instr.URem nxt (Instr.ci64 gang) in
  let p2 = Builder.gep b (Instr.Var 0) nxt in
  let v = Builder.load b p2 in
  let q = Builder.gep b (Instr.Var 1) lane in
  Builder.store b v q;
  Builder.ret_void b;
  Builder.finish b;
  f

let test_spmd_sync_through_memory () =
  let gang = 8 in
  let f = build_spmd_listing3 gang in
  Panalysis.Check.check_func f;
  let zeros = Array.make gang 0L in
  Alcotest.check outcome "lane i reads its neighbour"
    (Bufs [ lanes gang Fun.id; lanes gang (fun i -> (i + 1) mod gang) ])
    (run_spmd f ~bufs:[ zeros; zeros ] ~tail:[ 0L; Int64.of_int gang ])

(* Without the gang_sync, the round-robin reference scheduler runs each
   thread to completion in turn, so lane i reads a stale neighbour value:
   the data race of Listing 1 made observable. *)
let test_spmd_race_without_sync () =
  let gang = 8 in
  let f = build_spmd_listing3 gang in
  (* strip the sync call *)
  List.iter
    (fun (bl : Func.block) ->
      bl.instrs <-
        List.filter
          (fun i ->
            match i.Instr.op with
            | Instr.Call (n, _) -> n <> Intrinsics.gang_sync
            | _ -> true)
          bl.instrs)
    f.Func.blocks;
  let zeros = Array.make gang 0L in
  match run_spmd f ~bufs:[ zeros; zeros ] ~tail:[ 0L; Int64.of_int gang ] with
  | Bufs [ _; out ] ->
      (* thread 0 runs to completion first and reads a[1] before thread 1
         wrote it: observes 0, not 1 *)
      Alcotest.(check int64) "lane 0 observes stale value" 0L out.(0)
  | r -> Alcotest.failf "unexpected %a" pp_outcome r

(* Every lane stores [shuffle (lane * 10, src lane)] to a[lane],
   exchanging the value as a [ty] (i64 or f32). *)
let build_spmd_shuffle ?(ty = Types.i64) ~gang ~partial src =
  let f = spmd_func "shuf" ~gang ~partial ~bufs:1 () in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let v = Builder.mul b lane (Instr.ci64 10) in
  let v, back =
    if ty = Types.i64 then (v, Instr.Trunc)
    else (Builder.cast b Instr.SIToFP v ty, Instr.FPToSI)
  in
  let got = Builder.call b ty Intrinsics.shuffle [ v; src b lane ] in
  let p = Builder.gep b (Instr.Var 0) lane in
  Builder.store b (Builder.cast b back got Types.i32) p;
  Builder.ret_void b;
  Builder.finish b;
  f

let test_spmd_shuffle () =
  let gang = 8 in
  (* butterfly exchange: lane l gets value of lane l^1 *)
  let f =
    build_spmd_shuffle ~gang ~partial:false (fun b lane ->
        Builder.xor b lane (Instr.ci64 1))
  in
  Alcotest.check outcome "lane l reads lane l^1"
    (Bufs [ lanes gang (fun i -> (i lxor 1) * 10) ])
    (run_spmd f ~bufs:[ Array.make gang 0L ] ~tail:[ 0L; Int64.of_int gang ])

(* In a partial gang the source lane wraps to the gang size, and a
   source at or past the active lanes reads the zero of the shuffled
   type. *)
let test_spmd_partial_shuffle () =
  let gang = 8 in
  List.iter
    (fun ty ->
      let f =
        build_spmd_shuffle ~ty ~gang ~partial:true (fun b lane ->
            Builder.add b lane (Instr.ci64 11))
      in
      (* 5 active lanes; lane l asks for lane (l + 11) mod 8 = l + 3 *)
      Alcotest.check outcome
        (Fmt.str "%a: sources 3, 4 delivered; 5, 6, 7 inactive" Types.pp ty)
        (Bufs [ [| 30L; 40L; 0L; 0L; 0L; 7L; 7L; 7L |] ])
        (run_spmd f ~bufs:[ Array.make gang 7L ] ~tail:[ 0L; 5L ]))
    [ Types.i64; Types.f32 ]

(* Every lane stores [sad_u8 (3 * lane, lane)] to a[lane]: each 8-lane
   group's sum of |3l - l| = 2l over its active lanes. *)
let test_spmd_partial_sad () =
  let gang = 16 in
  let f = spmd_func "sad" ~gang ~partial:true ~bufs:1 () in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let x = Builder.cast b Instr.Trunc (Builder.mul b lane (Instr.ci64 3)) Types.i8 in
  let y = Builder.cast b Instr.Trunc lane Types.i8 in
  let sad = Builder.call b Types.i64 Intrinsics.sad_u8 [ x; y ] in
  let p = Builder.gep b (Instr.Var 0) lane in
  Builder.store b (Builder.cast b Instr.Trunc sad Types.i32) p;
  Builder.ret_void b;
  Builder.finish b;
  (* 12 active lanes: group 0 is full (2 * (0 + ... + 7) = 56), group 1
     holds lanes 8..11 only (2 * (8 + 9 + 10 + 11) = 76) *)
  Alcotest.check outcome "per-group sums over active lanes"
    (Bufs [ lanes gang (fun i -> if i < 8 then 56 else if i < 12 then 76 else 1) ])
    (run_spmd f ~bufs:[ Array.make gang 1L ] ~tail:[ 0L; 12L ])

(* A gang whose lanes below [split] branch to block "s" and the rest to
   block "n"; [s] and [n] fill each block before it joins "j". *)
let build_spmd_diverge name ~gang ~split ~s ~n =
  let f = spmd_func name ~gang ~bufs:0 () in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let c = Builder.icmp b Instr.Ult lane (Instr.ci64 split) in
  Builder.condbr b c "s" "n";
  List.iter
    (fun (label, fill) ->
      Builder.position b (Builder.add_block b label);
      fill b;
      Builder.br b "j")
    [ ("s", s); ("n", n) ];
  Builder.position b (Builder.add_block b "j");
  Builder.ret_void b;
  Builder.finish b;
  f

let sync b = Builder.call_unit b Intrinsics.gang_sync []

(* Divergent sync: half the gang syncs, half does not -> the executor
   must report the weak-forward-progress violation. *)
let test_spmd_divergent_sync_detected () =
  let f = build_spmd_diverge "div" ~gang:4 ~split:2 ~s:sync ~n:ignore in
  match run_spmd f ~bufs:[] ~tail:[ 0L; 4L ] with
  | Fault msg ->
      Alcotest.(check bool) "mentions divergence" true
        (Astring_contains.contains msg "divergent")
  | r -> Alcotest.failf "divergent sync not detected: %a" pp_outcome r

let test_spmd_sync_sites_differ () =
  let f = build_spmd_diverge "sites" ~gang:4 ~split:2 ~s:sync ~n:sync in
  Alcotest.check outcome "different call sites fault"
    (Fault
       "divergent horizontal operation: gang threads synchronized at \
        different call sites in sites")
    (run_spmd f ~bufs:[] ~tail:[ 0L; 4L ])

let test_spmd_partial_arrival () =
  (* lane 0 returns while lanes 1..3 park at the sync *)
  let f = build_spmd_diverge "arrive" ~gang:4 ~split:1 ~s:ignore ~n:sync in
  Alcotest.check outcome "one thread finishing faults"
    (Fault
       "divergent horizontal operation: only 3 of 4 threads reached the \
        synchronization in arrive (weak forward progress violated)")
    (run_spmd f ~bufs:[] ~tail:[ 0L; 4L ])

(* Partial gangs: only threads below num_threads run. *)
let test_spmd_partial_gang () =
  let gang = 8 in
  let f = spmd_func "part" ~gang ~partial:true ~bufs:1 () in
  let b = Builder.create f in
  let lane = Builder.call b Types.i64 Intrinsics.lane_num [] in
  let p = Builder.gep b (Instr.Var 0) lane in
  Builder.store b (Instr.ci32 1) p;
  Builder.ret_void b;
  Builder.finish b;
  (* gang 0 of a 5-thread region: only lanes 0..4 active *)
  Alcotest.check outcome "lanes 0..4 store"
    (Bufs [ lanes gang (fun i -> if i < 5 then 1 else 0) ])
    (run_spmd f ~bufs:[ Array.make gang 0L ] ~tail:[ 0L; 5L ])

let suites =
  [
    ( "machine.memory",
      [
        Alcotest.test_case "read/write" `Quick test_memory_rw;
        Alcotest.test_case "faults" `Quick test_memory_fault;
        Alcotest.test_case "frames" `Quick test_memory_frames;
        Alcotest.test_case "boundaries of the lazy backing" `Quick test_memory_boundaries;
        Alcotest.test_case "saxpy materialises what it allocates" `Quick
          test_memory_resident_saxpy;
        Alcotest.test_case "shared integer cells" `Quick test_memory_shared_cells;
        QCheck_alcotest.to_alcotest prop_memory_matches_eager;
      ] );
    ( "machine.interp",
      [
        Alcotest.test_case "arith" `Quick test_interp_arith;
        Alcotest.test_case "branch+loop" `Quick test_interp_branch_loop;
        Alcotest.test_case "vector ops" `Quick test_interp_vector_ops;
        Alcotest.test_case "masked store" `Quick test_interp_masked_store;
        Alcotest.test_case "gather cost" `Quick test_interp_gather_cost_exceeds_packed;
        Alcotest.test_case "mathlib" `Quick test_mathlib;
      ] );
    ( "machine.spmd_ref",
      [
        Alcotest.test_case "sync through memory (Listing 3)" `Quick test_spmd_sync_through_memory;
        Alcotest.test_case "race without sync (Listing 1)" `Quick test_spmd_race_without_sync;
        Alcotest.test_case "shuffle exchange" `Quick test_spmd_shuffle;
        Alcotest.test_case "divergent sync detected" `Quick test_spmd_divergent_sync_detected;
        Alcotest.test_case "partial gang" `Quick test_spmd_partial_gang;
        Alcotest.test_case "sync at different call sites" `Quick test_spmd_sync_sites_differ;
        Alcotest.test_case "partial arrival" `Quick test_spmd_partial_arrival;
        Alcotest.test_case "partial-gang shuffle" `Quick test_spmd_partial_shuffle;
        Alcotest.test_case "partial-gang sad_u8" `Quick test_spmd_partial_sad;
      ] );
  ]
