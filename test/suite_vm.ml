(* Tests for the register-VM execution engine: pinned differential
   equivalence against the tree-walking interpreter over the full
   fig4/fig5 kernel sets (byte-identical buffers AND bit-identical
   cycle totals), cross-engine profile parity (per-block attribution
   sums to each engine's own Stats and agrees bit for bit across
   engines), the zero-cost-when-off property of attribution, frame-pool
   reuse, recursive calls, and each vector memory access against its
   scalar expansion on both engines. *)

open Pir

let valt = Alcotest.testable Pmachine.Value.pp Pmachine.Value.equal

(* -- differential: VM vs. interpreter over the benchmark suites --

   Both engines consume the same [Cost.schedule_func] schedule and
   charge it in the same order, so everything must match exactly: no
   tolerance anywhere. *)

let check_stats_equal name (a : Pmachine.Interp.stats)
    (b : Pmachine.Interp.stats) =
  let ck what f = Alcotest.(check int) (name ^ ": " ^ what) (f a) (f b) in
  ck "instrs" (fun s -> s.Pmachine.Interp.instrs);
  ck "vector_instrs" (fun s -> s.Pmachine.Interp.vector_instrs);
  ck "gathers" (fun s -> s.Pmachine.Interp.gathers);
  ck "scatters" (fun s -> s.Pmachine.Interp.scatters);
  ck "packed_mem" (fun s -> s.Pmachine.Interp.packed_mem);
  ck "scalar_mem" (fun s -> s.Pmachine.Interp.scalar_mem)

let diff_kernel (k : Psimdlib.Workload.kernel) (impl : Pharness.Runner.impl) =
  let ri = Pharness.Runner.run ~engine:Pmachine.Engine.Interp k impl in
  let rv = Pharness.Runner.run ~engine:Pmachine.Engine.Vm k impl in
  (* cycle totals must be bit-identical, not approximately equal *)
  Alcotest.(check bool)
    (Fmt.str "%s/%s: cycles %.17g = %.17g" k.kname
       (Pharness.Runner.impl_name impl)
       ri.cycles rv.cycles)
    true
    (Int64.equal (Int64.bits_of_float ri.cycles) (Int64.bits_of_float rv.cycles));
  check_stats_equal
    (k.kname ^ "/" ^ Pharness.Runner.impl_name impl)
    ri.stats rv.stats;
  List.iter2
    (fun (name, expected) (name', got) ->
      Alcotest.(check string) "buffer name" name name';
      Array.iteri
        (fun i e ->
          if not (Pmachine.Value.equal e got.(i)) then
            Alcotest.failf "%s/%s: vm diverges from interp at %s[%d]: %a vs %a"
              k.kname
              (Pharness.Runner.impl_name impl)
              name i Pmachine.Value.pp e Pmachine.Value.pp got.(i))
        expected)
    ri.outputs rv.outputs

let test_diff_fig4 () =
  List.iter
    (fun k ->
      diff_kernel k Pharness.Runner.Scalar;
      diff_kernel k
        (Pharness.Runner.ParsimonyImpl Parsimony.Options.default))
    Pispc.Suite.all

let test_diff_fig5 () =
  List.iter
    (fun k ->
      diff_kernel k Pharness.Runner.Scalar;
      diff_kernel k
        (Pharness.Runner.ParsimonyImpl Parsimony.Options.default))
    Psimdlib.Registry.all

(* -- profile parity: both engines attribute per-block cycles identically --

   Pinned form of the ISSUE acceptance criterion: per-block attribution
   must sum exactly to the engine's own [Stats] totals, and the
   interpreter's and VM's typed profiles must agree bit for bit
   (rows, opcode mix, folded call stacks, totals). *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Execute [m]'s kernel under [kind] with attribution on and return the
   captured profile plus the engine's stats.  The module is built ONCE
   per kernel and shared by both engines: generated block names embed a
   gensym counter, so two independent compiles would not produce
   comparable row keys. *)
let exec_profiled (k : Psimdlib.Workload.kernel) m kind =
  let t = Pmachine.Engine.create ~kind ~profile:true m in
  let mem = Pmachine.Engine.mem t in
  let addrs =
    List.map
      (fun (b : Psimdlib.Workload.buffer) ->
        let esz = Pir.Types.scalar_bytes b.elem in
        (* 64 bytes of slack for strided shuffle over-read, as in Runner *)
        let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
        for i = 0 to b.len - 1 do
          Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
        done;
        Pmachine.Value.I (Int64.of_int addr))
      k.buffers
  in
  ignore (Pmachine.Engine.run t k.kname (addrs @ k.scalars));
  (Pmachine.Engine.profile t, Pmachine.Engine.stats t)

let profile_kernel (k : Psimdlib.Workload.kernel) (impl : Pharness.Runner.impl)
    =
  let name = k.kname ^ "/" ^ Pharness.Runner.impl_name impl in
  let m = Pharness.Runner.build_module k impl in
  let pi, si = exec_profiled k m Pmachine.Engine.Interp in
  let pv, sv = exec_profiled k m Pmachine.Engine.Vm in
  let sums tag (s : Pmachine.Interp.stats) (p : Pmachine.Profile.t) =
    Alcotest.(check bool)
      (Fmt.str "%s: %s block cycles sum to stats (%.17g vs %.17g)" name tag
         (Pmachine.Profile.sum_cycles p) s.Pmachine.Interp.cycles)
      true
      (feq (Pmachine.Profile.sum_cycles p) s.Pmachine.Interp.cycles);
    Alcotest.(check int)
      (name ^ ": " ^ tag ^ " block instrs sum to stats")
      s.Pmachine.Interp.instrs
      (Pmachine.Profile.sum_instrs p);
    Alcotest.(check bool)
      (name ^ ": " ^ tag ^ " total cycles")
      true
      (feq p.Pmachine.Profile.p_total_cycles s.Pmachine.Interp.cycles)
  in
  sums "interp" si pi;
  sums "vm" sv pv;
  if not (Pmachine.Profile.equal pi pv) then begin
    (* name the first diverging component so a parity break is
       diagnosable from the test output alone *)
    let open Pmachine.Profile in
    let brow b =
      Fmt.str "%s/%s e=%d i=%d c=%.17g" b.pb_func b.pb_block b.pb_entries
        b.pb_instrs b.pb_cycles
    in
    List.iteri
      (fun i bi ->
        match List.nth_opt pv.p_blocks i with
        | Some bv
          when brow bi <> brow bv ->
            Alcotest.failf "%s: block row %d: interp %s, vm %s" name i
              (brow bi) (brow bv)
        | None -> Alcotest.failf "%s: vm profile is missing row %s" name (brow bi)
        | Some _ -> ())
      pi.p_blocks;
    if List.length pv.p_blocks > List.length pi.p_blocks then
      Alcotest.failf "%s: vm profile has %d extra block rows" name
        (List.length pv.p_blocks - List.length pi.p_blocks);
    if pi.p_opcode_mix <> pv.p_opcode_mix then
      Alcotest.failf "%s: opcode mixes differ: interp [%a], vm [%a]" name
        Fmt.(list ~sep:comma (pair ~sep:(any ":") string int))
        pi.p_opcode_mix
        Fmt.(list ~sep:comma (pair ~sep:(any ":") string int))
        pv.p_opcode_mix;
    if not
         (List.equal
            (fun (p, s) (p', s') ->
              p = p' && Int64.bits_of_float s = Int64.bits_of_float s')
            pi.p_folded pv.p_folded)
    then
      Alcotest.failf "%s: folded stacks differ: interp [%a], vm [%a]" name
        Fmt.(list ~sep:comma (pair ~sep:(any " ") string float))
        pi.p_folded
        Fmt.(list ~sep:comma (pair ~sep:(any " ") string float))
        pv.p_folded;
    Alcotest.failf "%s: profile totals differ: interp %.17g/%d, vm %.17g/%d"
      name pi.p_total_cycles pi.p_total_instrs pv.p_total_cycles
      pv.p_total_instrs
  end

let test_profile_fig4 () =
  List.iter
    (fun k ->
      profile_kernel k Pharness.Runner.Scalar;
      profile_kernel k
        (Pharness.Runner.ParsimonyImpl Parsimony.Options.default))
    Pispc.Suite.all

let test_profile_fig5 () =
  List.iter
    (fun k ->
      profile_kernel k Pharness.Runner.Scalar;
      profile_kernel k
        (Pharness.Runner.ParsimonyImpl Parsimony.Options.default))
    Psimdlib.Registry.all

(* Attribution must be observationally free: with profiling disabled the
   VM produces byte-identical buffers and bit-identical cycles to a
   profiled run of the same kernel, and no profile is materialized. *)
let test_profile_off_differential () =
  let check_off_on (k : Psimdlib.Workload.kernel) =
    let impl = Pharness.Runner.ParsimonyImpl Parsimony.Options.default in
    let off = Pharness.Runner.run ~engine:Pmachine.Engine.Vm k impl in
    let on_ =
      Pharness.Runner.run ~engine:Pmachine.Engine.Vm ~profile:true k impl
    in
    Alcotest.(check bool)
      (k.kname ^ ": no profile materialized when off")
      true (off.profile = None);
    Alcotest.(check bool)
      (Fmt.str "%s: cycles unchanged (%.17g vs %.17g)" k.kname off.cycles
         on_.cycles)
      true
      (feq off.cycles on_.cycles);
    check_stats_equal (k.kname ^ " profiling off/on") off.stats on_.stats;
    List.iter2
      (fun (name, e) (name', g) ->
        Alcotest.(check string) "buffer name" name name';
        Array.iteri
          (fun i ev -> Alcotest.check valt (Fmt.str "%s[%d]" name i) ev g.(i))
          e)
      off.outputs on_.outputs;
    match on_.profile with
    | None -> Alcotest.fail (k.kname ^ ": profiled run lost its profile")
    | Some p ->
        Alcotest.(check bool)
          (k.kname ^ ": profile has block rows")
          true
          (p.Pmachine.Profile.p_blocks <> [])
  in
  check_off_on (List.hd Pispc.Suite.all);
  check_off_on (List.hd Psimdlib.Registry.all)

(* -- gang accounting --

   Every executor charges a whole block when a thread enters it; a
   thread that stops mid-block at a horizontal operation resumes past
   the entry and is not charged again, so the totals equal those of
   charging each instruction as it runs.  In examples/sync_ok.psim
   every thread stops mid-block at [psim_gang_sync]; at n = 37 the
   kernel runs four full gangs of 8 and a tail gang of 5 (`psimc
   profile` prints the cycles rounded: 576.5, 448.0 and 70.0). *)

let test_gang_accounting () =
  let m, _ =
    Pharness.Pipeline.compile
      ~cfg:{ Pharness.Pipeline.default with vectorize = false }
      ~name:"sync_ok.psim"
      (Suite_dataflow.read_example "sync_ok.psim")
  in
  let run kind =
    let t = Pmachine.Engine.create ~kind ~profile:true m in
    let mem = Pmachine.Engine.mem t in
    let buf () =
      Pmachine.Value.I
        (Int64.of_int
           (Pmachine.Memory.alloc_array mem Types.I32
              (Array.init 40 (fun i -> Pmachine.Value.I (Int64.of_int i)))))
    in
    let a = buf () in
    let b = buf () in
    ignore (Pmachine.Engine.run t "shift_sum_synced" [ a; b; Pmachine.Value.I 37L ]);
    (Pmachine.Engine.profile t, Pmachine.Engine.stats t)
  in
  let row (p : Pmachine.Profile.t) func block =
    match
      List.find_opt
        (fun (r : Pmachine.Profile.block) -> r.pb_func = func && r.pb_block = block)
        p.p_blocks
    with
    | Some r -> (r.pb_entries, r.pb_instrs, r.pb_cycles)
    | None -> Alcotest.failf "no row %s/%s" func block
  in
  let rowt = Alcotest.(triple int int (float 0.0)) in
  let pi, si = run Pmachine.Engine.Interp in
  let pv, sv = run Pmachine.Engine.Vm in
  List.iter
    (fun (tag, p, (s : Pmachine.Interp.stats)) ->
      Alcotest.(check int) (tag ^ ": instrs") 503 s.instrs;
      Alcotest.(check bool)
        (Fmt.str "%s: cycles %.17g" tag s.cycles)
        true (feq 576.49774169921875 s.cycles);
      Alcotest.(check int) (tag ^ ": block entries") 50 (Pmachine.Profile.sum_entries p);
      Alcotest.check rowt (tag ^ ": full gangs") (32, 416, 447.998046875)
        (row p "shift_sum_synced__psim1" "entry");
      Alcotest.check rowt (tag ^ ": tail gang") (5, 65, 69.99969482421875)
        (row p "shift_sum_synced__psim1_tail" "entry"))
    [ ("interp", pi, si); ("vm", pv, sv) ];
  Alcotest.(check (list (pair string (float 0.0))))
    "folded stacks"
    [
      ("shift_sum_synced", 58.5);
      ("shift_sum_synced;shift_sum_synced__psim1", 447.998046875);
      ("shift_sum_synced;shift_sum_synced__psim1_tail", 69.99969482421875);
    ]
    pi.p_folded;
  Alcotest.(check (list (pair string (float 0.0))))
    "folded stacks across engines" pi.p_folded pv.p_folded;
  Alcotest.(check bool) "profiles equal across engines" true
    (Pmachine.Profile.equal pi pv)

(* A gang whose threads never leave their loop runs out of fuel, under
   either engine, with the serial interpreter's and the VM's message. *)
let test_gang_out_of_fuel () =
  let m =
    Pfrontend.Lower.compile ~name:"spin"
      "void spin(int32* a, int64 n) {\n\
      \  psim gang_size(4) num_spmd_threads(n) {\n\
      \    int64 i = psim_thread_num();\n\
      \    while (a[i] == 0) {\n\
      \      a[i] = 0;\n\
      \    }\n\
      \  }\n\
       }\n"
  in
  List.iter
    (fun kind ->
      let t = Pmachine.Engine.create ~kind ~fuel:10_000 m in
      let a =
        Pmachine.Memory.alloc_array (Pmachine.Engine.mem t) Types.I32
          (Array.make 8 (Pmachine.Value.I 0L))
      in
      match
        Pmachine.Engine.run t "spin" [ Pmachine.Value.I (Int64.of_int a); Pmachine.Value.I 6L ]
      with
      | _ -> Alcotest.fail "an endless gang returned"
      | exception Pmachine.State.Trap msg ->
          Alcotest.(check string)
            (Pmachine.Engine.kind_to_string kind ^ ": trap")
            "out of fuel (infinite loop?)" msg)
    Pmachine.Engine.all_kinds

(* -- recursion and the frame pool -- *)

(* fact(n) = n <= 1 ? 1 : n * fact(n - 1): self-call, one frame per
   live activation *)
let fact_module () =
  let m = Func.create_module "t" in
  let f = Func.create "fact" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let c = Builder.icmp b Instr.Sle (Instr.Var 0) (Instr.ci32 1) in
  Builder.condbr b c "base" "rec";
  let bb = Builder.add_block b "base" in
  Builder.position b bb;
  Builder.ret b (Some (Instr.ci32 1));
  Builder.finish b;
  let br_ = Builder.add_block b "rec" in
  Builder.position b br_;
  let n1 = Builder.sub b (Instr.Var 0) (Instr.ci32 1) in
  let r = Builder.call b Types.i32 "fact" [ n1 ] in
  let p = Builder.mul b (Instr.Var 0) r in
  Builder.ret b (Some p);
  Builder.finish b;
  Func.add_func m f;
  m

let test_vm_recursion () =
  let m = fact_module () in
  let vm = Pmachine.Vm.create m in
  Alcotest.check valt "fact 10 on vm" (Pmachine.Value.I 3628800L)
    (Pmachine.Vm.run vm "fact" [ Pmachine.Value.I 10L ]);
  (* and the interpreter agrees, cycles included *)
  let it = Pmachine.Interp.create (fact_module ()) in
  Alcotest.check valt "fact 10 on interp" (Pmachine.Value.I 3628800L)
    (Pmachine.Interp.run it "fact" [ Pmachine.Value.I 10L ]);
  Alcotest.(check bool)
    (Fmt.str "cycles agree: %.17g vs %.17g" (Pmachine.Vm.stats vm).cycles
       (Pmachine.Interp.stats it).cycles)
    true
    ((Pmachine.Vm.stats vm).cycles = (Pmachine.Interp.stats it).cycles);
  Alcotest.(check int) "instrs agree" (Pmachine.Interp.stats it).instrs
    (Pmachine.Vm.stats vm).instrs

let test_vm_frame_pool () =
  let m = fact_module () in
  let vm = Pmachine.Vm.create m in
  ignore (Pmachine.Vm.run vm "fact" [ Pmachine.Value.I 6L ]);
  let code = Pmachine.Vm.code_of vm (Func.find_func m "fact") in
  (* depth-6 recursion parked 6 frames in the pool on the way out *)
  Alcotest.(check int) "pool holds one frame per activation" 6
    (List.length code.Pmachine.Bc.c_pool);
  let frames_before = code.Pmachine.Bc.c_pool in
  Alcotest.check valt "second run (reused frames)" (Pmachine.Value.I 720L)
    (Pmachine.Vm.run vm "fact" [ Pmachine.Value.I 6L ]);
  (* the same frame records came back out of the pool: nothing fresh
     was allocated for the second run *)
  Alcotest.(check int) "pool size stable across runs" 6
    (List.length code.Pmachine.Bc.c_pool);
  List.iter
    (fun fr ->
      Alcotest.(check bool) "frame physically reused" true
        (List.memq fr frames_before))
    code.Pmachine.Bc.c_pool

(* a constant-heavy function keeps producing correct results from a
   pooled frame (constant slots are never clobbered) *)
let test_vm_pool_constants () =
  let m = Func.create_module "t" in
  let f = Func.create "axpb" ~params:[ (0, Types.i32) ] ~ret:Types.i32 in
  let b = Builder.create f in
  let ax = Builder.mul b (Instr.Var 0) (Instr.ci32 7) in
  let r = Builder.add b ax (Instr.ci32 13) in
  Builder.ret b (Some r);
  Builder.finish b;
  Func.add_func m f;
  let vm = Pmachine.Vm.create m in
  for i = 0 to 9 do
    Alcotest.check valt
      (Fmt.str "axpb %d" i)
      (Pmachine.Value.I (Int64.of_int ((7 * i) + 13)))
      (Pmachine.Vm.run vm "axpb" [ Pmachine.Value.I (Int64.of_int i) ])
  done

(* -- each vector access against its scalar expansion --

   Both engines run the vector accesses through one set of lane loops,
   so comparing them with each other cannot catch a wrong lane order,
   fault order or inactive-lane value.  The scalar expansion can: it
   does one scalar load or store per active lane, in lane order, reads
   zero for an inactive lane, and runs no lane loop at all.  Every
   access kind, element type and masking runs on both engines, twice
   per case with different data (masks come from buffer contents, so
   the VM's second call reuses a pooled frame's private registers under
   another mask); results or fault texts and memory snapshots must
   equal the expansion's, and each function's stats must agree across
   engines. *)

type access = Load_packed | Store_packed | Gather | Scatter

let access_name = function
  | Load_packed -> "packed load"
  | Store_packed -> "packed store"
  | Gather -> "gather"
  | Scatter -> "scatter"

let lanes = 8

(* simulated memory ends here: accesses at or past it fault *)
let limit = 8192

(* parameters: mask source and indices (i32 buffers), store values, load
   results, and the accessed base *)
let mbuf = Instr.Var 0 and ibuf = Instr.Var 1 and src = Instr.Var 2
and out = Instr.Var 3 and base = Instr.Var 4

let access_fn name s body =
  let f =
    Func.create name ~ret:Types.Void
      ~params:
        [
          (0, Types.Ptr Types.I32); (1, Types.Ptr Types.I32); (2, Types.Ptr s);
          (3, Types.Ptr s); (4, Types.Ptr s);
        ]
  in
  let b = Builder.create f in
  body b;
  Builder.ret_void b;
  Builder.finish b;
  (match Verifier.verify_func f with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s is ill-typed: %s" name (Verifier.errors_to_string e));
  f

let vector_fn s acc ~masked =
  access_fn "vec" s (fun b ->
      let mask =
        if not masked then None
        else
          let mv = Builder.vload b mbuf lanes in
          Some (Builder.icmp b Instr.Ne mv (Instr.cvec Types.I32 (Array.make lanes 0L)))
      in
      let observe v =
        for l = 0 to lanes - 1 do
          Builder.store b
            (Builder.extract b v (Instr.ci32 l))
            (Builder.gep b out (Instr.ci32 l))
        done
      in
      match acc with
      | Load_packed -> observe (Builder.vload b ?mask base lanes)
      | Gather ->
          let idx = Builder.vload b ibuf lanes in
          observe (Builder.gather b ?mask base idx)
      | Store_packed -> Builder.vstore b ?mask (Builder.vload b src lanes) base
      | Scatter ->
          let v = Builder.vload b src lanes in
          let idx = Builder.vload b ibuf lanes in
          Builder.scatter b ?mask v base idx)

let zero_of (s : Types.scalar) =
  match s with
  | Types.F32 -> Instr.cf32 0.0
  | Types.F64 -> Instr.cf64 0.0
  | s -> Instr.cint s 0L

let expansion_fn s acc ~masked =
  access_fn "exp" s (fun b ->
      let cur = ref "entry" in
      let addr l =
        match acc with
        | Load_packed | Store_packed -> Builder.gep b base (Instr.ci32 l)
        | Gather | Scatter ->
            Builder.gep b base (Builder.load b (Builder.gep b ibuf (Instr.ci32 l)))
      in
      (* run [k] only if lane [l] is active; what it loads reads zero
         when the lane is not *)
      let guarded l k =
        if not masked then k ()
        else begin
          let m = Builder.load b (Builder.gep b mbuf (Instr.ci32 l)) in
          let on = Fmt.str "on%d" l and after = Fmt.str "after%d" l in
          let from = !cur in
          Builder.condbr b (Builder.icmp b Instr.Ne m (Instr.ci32 0)) on after;
          Builder.position b (Builder.add_block b on);
          let r = k () in
          Builder.br b after;
          Builder.position b (Builder.add_block b after);
          cur := after;
          Option.map
            (fun x -> Builder.phi b (Types.Scalar s) [ (from, zero_of s); (on, x) ])
            r
        end
      in
      match acc with
      | Load_packed | Gather ->
          let xs =
            Array.init lanes (fun l ->
                Option.get (guarded l (fun () -> Some (Builder.load b (addr l)))))
          in
          Array.iteri (fun l x -> Builder.store b x (Builder.gep b out (Instr.ci32 l))) xs
      | Store_packed | Scatter ->
          for l = 0 to lanes - 1 do
            let x = Builder.load b (Builder.gep b src (Instr.ci32 l)) in
            ignore
              (guarded l (fun () ->
                   Builder.store b x (addr l);
                   None))
          done)

(* one call's data: lane activity, indices, and for packed accesses how
   many elements before the end of memory the base lies *)
type data = { mask : int array; idx : int array; at_end : int option }

type bufs = { mb : int; ib : int; sb : int; ob : int; region : int }

let layout mem (s : Types.scalar) =
  let esz = Types.scalar_bytes s in
  let mb = Pmachine.Memory.alloc mem (4 * lanes) in
  let ib = Pmachine.Memory.alloc mem (4 * lanes) in
  let sb = Pmachine.Memory.alloc mem (esz * lanes) in
  let ob = Pmachine.Memory.alloc mem (esz * lanes) in
  (* the accessed region runs to the end of memory, so every byte an
     access can reach is in the snapshot *)
  let at = (Pmachine.Memory.mark mem + 63) / 64 * 64 in
  let region = Pmachine.Memory.alloc mem (limit - at) in
  { mb; ib; sb; ob; region }

let elem (s : Types.scalar) salt i : Pmachine.Value.t =
  match s with
  | Types.F32 | Types.F64 -> Pmachine.Value.F (float_of_int ((salt * 100) + i) *. 0.75)
  | Types.I64 ->
      Pmachine.Value.I
        (Int64.add (Int64.shift_left (Int64.of_int (salt + i)) 36) (Int64.of_int i))
  | s ->
      Pmachine.Value.I
        (Ints.norm (Types.scalar_bits s) (Int64.of_int ((salt * 97) + (i * 41) + 130)))

let fill mem s bufs salt (d : data) =
  let esz = Types.scalar_bytes s in
  let st = Pmachine.Memory.store_scalar mem in
  let i32 x = Pmachine.Value.I (Int64.of_int (x land 0xFFFF_FFFF)) in
  Array.iteri (fun l m -> st Types.I32 (bufs.mb + (4 * l)) (i32 m)) d.mask;
  Array.iteri (fun l x -> st Types.I32 (bufs.ib + (4 * l)) (i32 x)) d.idx;
  for l = 0 to lanes - 1 do
    st s (bufs.sb + (esz * l)) (elem s (salt + 1) l);
    st s (bufs.ob + (esz * l)) (elem s (salt + 2) l)
  done;
  for i = 0 to 15 do
    st s (bufs.region + (esz * i)) (elem s salt i)
  done;
  for i = 1 to lanes do
    st s (limit - (esz * i)) (elem s (salt + 3) i)
  done

(* run [fn] on a fresh engine, once per data set; each call's outcome and
   memory snapshot, then the engine's stats *)
let run_access m s kind fn datas =
  let mem = Pmachine.Memory.create ~size:limit () in
  let bufs = layout mem s in
  let t = Pmachine.Engine.create ~kind ~mem m in
  let calls =
    List.mapi
      (fun salt d ->
        fill mem s bufs (salt + 1) d;
        let p =
          match d.at_end with
          | None -> bufs.region
          | Some k -> limit - (k * Types.scalar_bytes s)
        in
        let args =
          List.map
            (fun a -> Pmachine.Value.I (Int64.of_int a))
            [ bufs.mb; bufs.ib; bufs.sb; bufs.ob; p ]
        in
        let outcome =
          match Pmachine.Engine.run t fn args with
          | _ -> "ok"
          | exception Pmachine.Memory.Fault msg -> "fault: " ^ msg
          | exception Pmachine.State.Trap msg -> "trap: " ^ msg
        in
        (outcome, Pmachine.Memory.snapshot mem))
      datas
  in
  (calls, Pmachine.Engine.stats t)

let ok = "ok"

let huge = 1 lsl 20

(* (case, calls, whether each call faults) *)
let access_cases acc ~masked =
  let on = Array.make lanes 1 in
  let idx = [| 3; 0; 7; 12; 5; 9; 1; 14 |] in
  let packed = match acc with Load_packed | Store_packed -> true | _ -> false in
  let d ?(mask = on) ?(idx = idx) ?at_end () = { mask; idx; at_end } in
  let with_lane a l x =
    let a = Array.copy a in
    a.(l) <- x;
    a
  in
  [
    ( "in bounds",
      [
        d ~mask:[| 1; 0; 1; 1; 0; 0; 1; 0 |] ();
        d ~mask:[| 0; 1; 1; 0; 1; 1; 0; 1 |] ~idx:[| 15; 2; 4; 6; 8; 10; 11; 13 |] ();
      ],
      false );
  ]
  @ (if not masked then []
     else
       [
         ( "out-of-bounds inactive lane",
           (if packed then
              [
                d ~mask:[| 1; 0; 1; 1; 0; 0; 0; 0 |] ~at_end:5 ();
                d ~mask:[| 1; 1; 0; 0; 0; 0; 0; 0 |] ~at_end:2 ();
              ]
            else
              [
                d ~mask:[| 1; 1; 0; 1; 0; 1; 1; 1 |] ~idx:(with_lane idx 2 huge) ();
                d ~mask:[| 0; 1; 1; 1; 1; 1; 0; 1 |] ~idx:(with_lane idx 6 (-1000)) ();
              ]),
           false );
       ])
  @ (if acc <> Scatter then []
     else
       [
         ( "overlapping indices",
           [
             d ~mask:[| 1; 1; 1; 1; 0; 1; 1; 0 |] ~idx:[| 2; 5; 2; 7; 5; 2; 0; 7 |] ();
             d ~mask:[| 1; 0; 1; 0; 1; 1; 0; 0 |] ~idx:(Array.make lanes 4) ();
           ],
           false );
       ])
  @ [
      ( "out-of-bounds active lane mid-vector",
        (if packed then
           [ d ~at_end:5 (); d ~mask:[| 1; 0; 1; 0; 0; 1; 0; 0 |] ~at_end:2 () ]
         else
           [
             d ~idx:(with_lane idx 4 huge) ();
             d ~mask:[| 1; 1; 0; 0; 1; 1; 1; 1 |]
               ~idx:(with_lane (with_lane idx 3 huge) 6 (-1000))
               ();
           ]),
        true );
    ]

let check_access acc () =
  List.iter
    (fun s ->
      List.iter
        (fun masked ->
          let m = Func.create_module "access" in
          Func.add_func m (vector_fn s acc ~masked);
          Func.add_func m (expansion_fn s acc ~masked);
          List.iter
            (fun (case, datas, faults) ->
              let name =
                Fmt.str "%s %a%s, %s" (access_name acc) Types.pp (Types.Scalar s)
                  (if masked then " masked" else "")
                  case
              in
              let ei, sei = run_access m s Pmachine.Engine.Interp "exp" datas in
              let ev, sev = run_access m s Pmachine.Engine.Vm "exp" datas in
              let vi, svi = run_access m s Pmachine.Engine.Interp "vec" datas in
              let vv, svv = run_access m s Pmachine.Engine.Vm "vec" datas in
              List.iteri
                (fun k (expected, snap) ->
                  Alcotest.(check bool)
                    (Fmt.str "%s, call %d: %s" name k expected)
                    faults
                    (expected <> ok);
                  List.iter
                    (fun (who, calls) ->
                      let got, snap' = List.nth calls k in
                      Alcotest.(check string)
                        (Fmt.str "%s, call %d: %s outcome" name k who)
                        expected got;
                      Alcotest.(check bool)
                        (Fmt.str "%s, call %d: %s memory" name k who)
                        true (Bytes.equal snap snap'))
                    [ ("vm expansion", ev); ("interp vector", vi); ("vm vector", vv) ])
                ei;
              check_stats_equal (name ^ ": expansion stats") sei sev;
              check_stats_equal (name ^ ": vector stats") svi svv;
              Alcotest.(check bool)
                (name ^ ": vector cycles") true
                (feq svi.cycles svv.cycles))
            (access_cases acc ~masked))
        [ false; true ])
    Types.[ I8; I16; I32; I64; F32; F64 ]

(* -- the lane kernels against Pir.Fold, lane by lane --

   Both engines run integer vector operations through [Pmachine.Eval]'s
   lane kernels, so engine parity cannot catch a kernel bug: a wrong
   lane is wrong on both.  Each case holds the VM's instruction arm and
   [Eval.pure_op] (the interpreter's path) to the scalar definitions
   applied lane by lane: [Pir.Fold] for the integer operations, the
   scalar cast, and the documented fold orders, blends and lane
   routings.  Lanes are drawn to hit each width's edges; at width 64
   also values at and above 2^62 and negative [int64]s; float lanes at
   signed zeros, NaN, infinities and the edges of the integer ranges. *)

let widths = [ 1; 8; 16; 32; 64 ]

let scalar_of_width w =
  Types.(match w with 1 -> I1 | 8 -> I8 | 16 -> I16 | 32 -> I32 | _ -> I64)

let lane_gen w =
  let open QCheck.Gen in
  let half = Int64.shift_left 1L (w - 1) in
  let edges =
    [ 0L; 1L; 2L; Int64.pred half; half; Int64.succ half; Ints.mask_of_bits w ]
    @
    if w < 64 then []
    else [ Int64.shift_left 1L 62; Int64.add (Int64.shift_left 1L 62) 5L; -2L; -77L ]
  in
  map (Ints.norm w)
    (frequency [ (3, oneofl edges); (2, map Int64.of_int (int_range (-300) 300)); (3, ui64) ])

let lanes_gen w n = QCheck.Gen.array_size (QCheck.Gen.return n) (lane_gen w)

let ivec a = Pmachine.Value.VI (Pmachine.Value.ivec_of_array a)

(* [op] over parameters [Var 0 ..] of types [tys], with result type
   [ty], on [args]: through [Eval.pure_op] and through a one-instruction
   function on the VM *)
let both ~ty tys op args =
  let operand_ty = function Instr.Var v -> List.nth tys v | Instr.Const c -> Instr.ty_of_const c in
  let get = function Instr.Var v -> List.nth args v | Instr.Const _ -> assert false in
  let pure = Pmachine.Eval.pure_op ~ty ~operand_ty ~get op in
  let f = Func.create "k" ~params:(List.mapi (fun i t -> (i, t)) tys) ~ret:ty in
  let b = Builder.create f in
  Builder.ret b (Some (Builder.ins b ty op));
  Builder.finish b;
  let m = Func.create_module "k" in
  Func.add_func m f;
  (pure, Pmachine.Vm.run (Pmachine.Vm.create m) "k" args)

let agree name expected (pure, vm) =
  let ok = Pmachine.Value.equal expected pure && Pmachine.Value.equal expected vm in
  if not ok then
    QCheck.Test.fail_reportf "%s: expected %a, pure_op %a, vm %a" name Pmachine.Value.pp
      expected Pmachine.Value.pp pure Pmachine.Value.pp vm;
  ok

let kernel_test ?(count = 400) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count (QCheck.make gen) prop)

let binary_gen ops =
  let open QCheck.Gen in
  let* k = oneofl ops in
  let* w = oneofl widths in
  let* n = int_range 1 16 in
  let* x = lanes_gen w n in
  let* y = lanes_gen w n in
  return (k, w, x, y)

let vty w n = Types.Vec (scalar_of_width w, Array.length n)

let test_kernel_ibin =
  kernel_test "kernels: ibin"
    (binary_gen
       Instr.
         [ Add; Sub; Mul; UDiv; SDiv; URem; SRem; And; Or; Xor; Shl; LShr; AShr; SMin; SMax;
           UMin; UMax; UAddSat; SAddSat; USubSat; SSubSat; AvgrU; AbsDiffU; MulHiS; MulHiU ])
    (fun (k, w, x, y) ->
      let t = vty w x in
      agree
        (Fmt.str "%a i%d" Printer.pp_ibin k w)
        (ivec (Array.map2 (Fold.ibin k w) x y))
        (both ~ty:t [ t; t ] (Instr.Ibin (k, Var 0, Var 1)) [ ivec x; ivec y ]))

let test_kernel_iun =
  kernel_test "kernels: iun"
    (binary_gen Instr.[ INot; INeg; IAbs; Clz; Ctz; Popcnt ])
    (fun (k, w, x, _) ->
      let t = vty w x in
      agree
        (Fmt.str "%a i%d" Printer.pp_iun k w)
        (ivec (Array.map (Fold.iun k w) x))
        (both ~ty:t [ t ] (Instr.Iun (k, Var 0)) [ ivec x ]))

let test_kernel_icmp =
  kernel_test "kernels: icmp"
    (binary_gen Instr.[ Eq; Ne; Ult; Ule; Ugt; Uge; Slt; Sle; Sgt; Sge ])
    (fun (p, w, x, y) ->
      let t = vty w x in
      agree
        (Fmt.str "%a i%d" Printer.pp_ipred p w)
        (ivec (Array.map2 (fun a b -> if Fold.icmp p w a b then 1L else 0L) x y))
        (both ~ty:(Types.Vec (I1, Array.length x)) [ t; t ] (Instr.Icmp (p, Var 0, Var 1))
           [ ivec x; ivec y ]))

(* lanes of float kind [s]: signed zeros, NaN, infinities, the edges
   2^31, 2^63 and 2^64 of the integer ranges of either sign, fractions
   and arbitrary bit patterns, all rounded to [s] *)
let flane_gen (s : Types.scalar) =
  let open QCheck.Gen in
  let p k = Float.ldexp 1.0 k in
  let edges =
    [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 0.5; -0.5; 1.5; -2.75;
      255.5; p 31; -.p 31; p 32 -. 1.0; p 63; -.p 63; p 64; -.p 64 ]
  in
  map (Pmachine.Value.round_float s)
    (frequency
       [ (3, oneofl edges); (2, float_range (-70000.0) 70000.0); (2, map Int64.float_of_bits ui64) ])

(* float lanes as their bits, so that a signed zero or a NaN payload
   counts *)
let bits = function
  | Pmachine.Value.VF a -> ivec (Array.map Int64.bits_of_float a)
  | v -> v

(* every cast kind: integer casts between every pair of widths,
   integer to float and float to integer at every width, float
   truncation and extension, and same-width bitcasts of each class
   pair, against [Eval.cast_scalar] *)
let test_kernel_cast =
  let open QCheck.Gen in
  let int_kind = map scalar_of_width (oneofl widths) in
  let float_kind = oneofl Types.[ F32; F64 ] in
  kernel_test ~count:1000 "kernels: cast"
    (let* k, src, dst =
       oneof
         [
           (let* k = oneofl Instr.[ Trunc; ZExt; SExt ] in
            let* s = int_kind and* d = int_kind in
            return (k, s, d));
           (let* k = oneofl Instr.[ SIToFP; UIToFP ] in
            let* s = int_kind and* d = float_kind in
            return (k, s, d));
           (let* k = oneofl Instr.[ FPToSI; FPToUI ] in
            let* s = float_kind and* d = int_kind in
            return (k, s, d));
           oneofl Instr.[ (FPTrunc, Types.F64, Types.F32); (FPExt, F32, F64) ];
           (let* s, d =
              oneofl
                Types.
                  [ (I32, F32); (F32, I32); (I64, F64); (F64, I64); (I16, I16); (I64, I64);
                    (F32, F32); (F64, F64) ]
            in
            return (Instr.Bitcast, s, d));
         ]
     in
     let* n = int_range 1 16 in
     let* x =
       if Types.is_float_scalar src then
         map (fun a -> Pmachine.Value.VF a) (array_size (return n) (flane_gen src))
       else map ivec (lanes_gen (Types.scalar_bits src) n)
     in
     return (k, src, dst, x))
    (fun (k, src, dst, x) ->
      let n = Pmachine.Value.lanes x in
      let lanes =
        Array.init n (fun l -> Pmachine.Eval.cast_scalar k src dst (Pmachine.Value.lane x l))
      in
      let expected =
        if Types.is_float_scalar dst then Pmachine.Value.VF (Array.map Pmachine.Value.as_float lanes)
        else ivec (Array.map Pmachine.Value.as_int lanes)
      in
      let pure, vm =
        both ~ty:(Types.Vec (dst, n)) [ Types.Vec (src, n) ]
          (Instr.Cast (k, Var 0, Types.Vec (dst, n)))
          [ x ]
      in
      agree
        (Fmt.str "%a %a -> %a of %a" Printer.pp_cast k Types.pp_scalar src Types.pp_scalar dst
           Pmachine.Value.pp x)
        (bits expected) (bits pure, bits vm))

let test_kernel_reduce =
  kernel_test "kernels: reduce"
    (binary_gen Instr.[ RAny; RAll; RAdd; RAnd; ROr; RXor; RSMin; RSMax; RUMin; RUMax ])
    (fun (k, w, x, _) ->
      let fold op init = Array.fold_left (Fold.ibin op w) init x in
      let expected =
        match k with
        | Instr.RAny -> Pmachine.Value.of_bool (Array.exists (( <> ) 0L) x)
        | RAll -> Pmachine.Value.of_bool (Array.for_all (( <> ) 0L) x)
        | RAdd -> I (fold Add 0L)
        | RAnd -> I (fold And (Ints.mask_of_bits w))
        | ROr -> I (fold Or 0L)
        | RXor -> I (fold Xor 0L)
        | RSMin -> I (fold SMin x.(0))
        | RSMax -> I (fold SMax x.(0))
        | RUMin -> I (fold UMin x.(0))
        | _ -> I (fold UMax x.(0))
      in
      let ty =
        match k with Instr.RAny | RAll -> Types.bool_ | _ -> Types.Scalar (scalar_of_width w)
      in
      agree
        (Fmt.str "%a i%d" Printer.pp_reduce k w)
        expected
        (both ~ty [ vty w x ] (Instr.Reduce (k, Var 0)) [ ivec x ]))

let test_kernel_select =
  let open QCheck.Gen in
  kernel_test "kernels: select, splat"
    (let* _, w, x, y = binary_gen [ () ] in
     let* m = array_size (return (Array.length x)) (oneofl [ 0L; 1L ]) in
     return (w, x, y, m))
    (fun (w, x, y, m) ->
      let n = Array.length x and t = vty w x in
      agree
        (Fmt.str "select i%d" w)
        (ivec (Array.init n (fun l -> if m.(l) <> 0L then x.(l) else y.(l))))
        (both ~ty:t [ Types.Vec (I1, n); t; t ] (Instr.Select (Var 0, Var 1, Var 2))
           [ ivec m; ivec x; ivec y ])
      && agree
           (Fmt.str "splat i%d" w)
           (ivec (Array.make n x.(0)))
           (both ~ty:t [ Types.Scalar (scalar_of_width w) ] (Instr.Splat (Var 0, n))
              [ Pmachine.Value.I x.(0) ]))

let test_kernel_shuffle =
  let open QCheck.Gen in
  kernel_test "kernels: shuffle, shuffle_dyn"
    (let* _, w, x, y = binary_gen [ () ] in
     let n = Array.length x in
     let* table = array_size (int_range 1 16) (int_range (-1) ((2 * n) - 1)) in
     let* idx = lanes_gen 32 n in
     return (w, x, y, table, idx))
    (fun (w, x, y, table, idx) ->
      let n = Array.length x and t = vty w x in
      let xy = Array.append x y in
      let sel k = Int64.to_int (Int64.logand k (Int64.of_int (n - 1))) mod n in
      agree
        (Fmt.str "shuffle i%d" w)
        (ivec (Array.map (fun k -> if k = -1 then 0L else xy.(k)) table))
        (both
           ~ty:(Types.Vec (scalar_of_width w, Array.length table))
           [ t; t ] (Instr.Shuffle (Var 0, Var 1, table)) [ ivec x; ivec y ])
      && agree
           (Fmt.str "shuffle_dyn i%d" w)
           (ivec (Array.map (fun k -> x.(sel k)) idx))
           (both ~ty:t [ t; Types.Vec (I32, n) ] (Instr.ShuffleDyn (Var 0, Var 1))
              [ ivec x; ivec idx ]))

let test_kernel_psadbw =
  let open QCheck.Gen in
  kernel_test "kernels: psadbw"
    (let* g = int_range 1 4 in
     let* x = lanes_gen 8 (8 * g) and* y = lanes_gen 8 (8 * g) in
     return (x, y))
    (fun (x, y) ->
      let n = Array.length x in
      let group g =
        let acc = ref 0L in
        for k = 0 to 7 do
          acc := Int64.add !acc (Ints.abs_diff_u 8 x.((8 * g) + k) y.((8 * g) + k))
        done;
        !acc
      in
      agree "psadbw" (ivec (Array.init (n / 8) group))
        (both ~ty:(Types.Vec (I64, n / 8)) [ Types.Vec (I8, n); Types.Vec (I8, n) ]
           (Instr.Psadbw (Var 0, Var 1)) [ ivec x; ivec y ]))

(* -- lane indices out of range trap on both engines, with one text -- *)

let test_lane_index_traps () =
  let v4 = Types.Vec (I32, 4) in
  let v = ivec [| 10L; 11L; 12L; 13L |] in
  let i32 k = Pmachine.Value.I (Ints.norm 32 (Int64.of_int k)) in
  let trap_of kind tys ty op args =
    let f = Func.create "k" ~params:(List.mapi (fun i t -> (i, t)) tys) ~ret:ty in
    let b = Builder.create f in
    Builder.ret b (Some (Builder.ins b ty op));
    Builder.finish b;
    let m = Func.create_module "k" in
    Func.add_func m f;
    match Pmachine.Engine.run (Pmachine.Engine.create ~kind m) "k" args with
    | r -> Fmt.str "ok %a" Pmachine.Value.pp r
    | exception Pmachine.State.Trap msg -> "trap: " ^ msg
  in
  List.iter
    (fun (what, tys, ty, op, args, expected) ->
      List.iter
        (fun kind ->
          Alcotest.(check string)
            (Fmt.str "%s on %s" what (Pmachine.Engine.kind_to_string kind))
            expected
            (trap_of kind tys ty op args))
        Pmachine.Engine.all_kinds)
    [
      ( "extract lane 4", [ v4; Types.i32 ], Types.i32, Instr.ExtractLane (Var 0, Var 1),
        [ v; i32 4 ], "trap: extract of lane 4 from 4-lane vector" );
      ( "extract lane -1", [ v4; Types.i32 ], Types.i32, Instr.ExtractLane (Var 0, Var 1),
        [ v; i32 (-1) ], "trap: extract of lane 4294967295 from 4-lane vector" );
      ( "extract lane 3", [ v4; Types.i32 ], Types.i32, Instr.ExtractLane (Var 0, Var 1),
        [ v; i32 3 ], "ok 13" );
      ( "insert lane 7", [ v4; Types.i32; Types.i32 ], v4,
        Instr.InsertLane (Var 0, Var 1, Var 2), [ v; i32 99; i32 7 ],
        "trap: insert at lane 7 of 4-lane vector" );
      ( "insert lane 0", [ v4; Types.i32; Types.i32 ], v4,
        Instr.InsertLane (Var 0, Var 1, Var 2), [ v; i32 99; i32 0 ], "ok <99,11,12,13>" );
      ( "shuffle entry 8", [ v4; v4 ], v4, Instr.Shuffle (Var 0, Var 1, [| 0; 8; 1; 2 |]),
        [ v; v ], "trap: shuffle of lane 8 from two vectors of 4 and 4 lanes" );
      ( "shuffle entry -2", [ v4; v4 ], v4, Instr.Shuffle (Var 0, Var 1, [| -2; 0; 1; 2 |]),
        [ v; v ], "trap: shuffle of lane -2 from two vectors of 4 and 4 lanes" );
      ( "shuffle entries -1 and 7", [ v4; v4 ], v4,
        Instr.Shuffle (Var 0, Var 1, [| -1; 7; 1; 4 |]), [ v; v ], "ok <0,13,11,10>" );
    ]

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "fig4 kernels: vm == interp (bytes and cycles)"
          `Slow test_diff_fig4;
        Alcotest.test_case "fig5 kernels: vm == interp (bytes and cycles)"
          `Slow test_diff_fig5;
        Alcotest.test_case "fig4 kernels: profile parity (sums and rows)"
          `Slow test_profile_fig4;
        Alcotest.test_case "fig5 kernels: profile parity (sums and rows)"
          `Slow test_profile_fig5;
        Alcotest.test_case "profiling off is observationally free" `Quick
          test_profile_off_differential;
        Alcotest.test_case "recursive calls" `Quick test_vm_recursion;
        Alcotest.test_case "frame pool reuse" `Quick test_vm_frame_pool;
        Alcotest.test_case "pooled constants stay intact" `Quick
          test_vm_pool_constants;
        Alcotest.test_case "gang accounting per block entry (both engines)" `Quick
          test_gang_accounting;
        Alcotest.test_case "endless gang runs out of fuel (both engines)" `Quick
          test_gang_out_of_fuel;
        Alcotest.test_case "lane indices out of range trap (both engines)" `Quick
          test_lane_index_traps;
        test_kernel_ibin;
        test_kernel_iun;
        test_kernel_icmp;
        test_kernel_cast;
        test_kernel_reduce;
        test_kernel_select;
        test_kernel_shuffle;
        test_kernel_psadbw;
      ]
      @ List.map
          (fun acc ->
            Alcotest.test_case
              (access_name acc ^ " = scalar expansion (both engines)")
              `Quick (check_access acc))
          [ Load_packed; Store_packed; Gather; Scatter ] );
  ]
