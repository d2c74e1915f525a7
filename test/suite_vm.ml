(* Tests for the register-VM execution engine: pinned differential
   equivalence against the tree-walking interpreter over the full
   fig4/fig5 kernel sets (byte-identical buffers AND bit-identical
   cycle totals), cross-engine profile parity (per-block attribution
   sums to each engine's own Stats and agrees bit for bit across
   engines), the zero-cost-when-off property of attribution, frame-pool
   reuse, and recursive calls. *)

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
       it.Pmachine.Interp.stats.cycles)
    true
    ((Pmachine.Vm.stats vm).cycles = it.Pmachine.Interp.stats.cycles);
  Alcotest.(check int) "instrs agree" it.Pmachine.Interp.stats.instrs
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
      ] );
  ]
