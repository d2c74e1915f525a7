(** sweep: regenerate the paper's Figures 4 and 5.

    Ops are the 381 (kernel, impl) pairs of [Figures.figure4_raw] and
    [figure5_raw].  Each op builds its module and runs it on the VM, as
    [Runner.run] does; its simulated cycles must equal
    bench_baseline.json bit for bit and its output buffers must match
    the kernel's scalar build within the kernel's float tolerance (the
    rule [Runner.verify] uses).  Setup lowers every distinct (kernel,
    source) pair once into [Runner.Compile_cache], so frontend cost
    shows in setup_s rather than in the ops. *)

open Psimdlib
module Runner = Pharness.Runner
module Span = Meter.Span

type op = {
  k : Workload.kernel;
  impl : Runner.impl;
  series : string;  (** "fig4/<kernel>" or "fig5/<kernel>" *)
  cycles : float;  (** baseline cycles *)
}

let slp_opts =
  { Parsimony.Options.default with strategy = Parsimony.Options.SlpOptimal }

(* the impl columns of figure4_raw and figure5_raw, in their order *)
let fig4_impls =
  [
    Runner.Autovec;
    Runner.ParsimonyImpl Parsimony.Options.default;
    Runner.ParsimonyImpl Parsimony.Options.ispc;
  ]

let fig5_impls (k : Workload.kernel) =
  [
    Runner.Scalar;
    Runner.Autovec;
    Runner.SlpImpl slp_opts;
    Runner.ParsimonyImpl Parsimony.Options.default;
  ]
  @ if k.hand <> None then [ Runner.Hand ] else []

let source (k : Workload.kernel) = function
  | Runner.Scalar | Runner.Autovec | Runner.SlpImpl _ -> Some k.serial_src
  | Runner.ParsimonyImpl _ -> Some k.psim_src
  | Runner.Hand -> None

let ops ~baseline =
  let kernels = Option.get (Pobs.Json.member "kernels" baseline) in
  let cycles series impl =
    match
      Option.bind (Pobs.Json.member series kernels) (Pobs.Json.member impl)
    with
    | Some (Pobs.Json.Float c) -> c
    | Some (Pobs.Json.Int c) -> float_of_int c
    | _ -> Fmt.failwith "bench_baseline.json: no cycles for %s/%s" series impl
  in
  let mk fig impls (k : Workload.kernel) =
    List.map
      (fun impl ->
        let series = fig ^ "/" ^ k.kname in
        { k; impl; series; cycles = cycles series (Runner.impl_name impl) })
      impls
  in
  List.concat_map (fun k -> mk "fig4" fig4_impls k) Pispc.Suite.all
  @ List.concat_map (fun k -> mk "fig5" (fig5_impls k) k) Registry.all

(* The traced op: the steps of [Runner.run] (and [Runner.build_module])
   in the same order, each wrapped in a span.  Returns the run result
   plus the time and allocation of [Engine.run]. *)
let traced_run (op : op) =
  let k = op.k in
  let lower src =
    Span.span "frontend" (fun () ->
        Runner.Compile_cache.compile ~name:k.kname src)
  in
  let m =
    match op.impl with
    | Runner.Scalar -> lower k.serial_src
    | Runner.Autovec ->
        let m = lower k.serial_src in
        Span.span "autovec" (fun () -> ignore (Pautovec.Autovec.run_module m));
        m
    | Runner.SlpImpl opts ->
        let m = lower k.serial_src in
        Span.span "slp" (fun () -> ignore (Parsimony.Slp.run_module ~opts m));
        m
    | Runner.ParsimonyImpl opts ->
        let m = lower k.psim_src in
        Span.span "vectorize" (fun () ->
            ignore (Parsimony.Vectorizer.run_module ~opts m));
        m
    | Runner.Hand ->
        let m = Pir.Func.create_module (k.kname ^ ".hand") in
        (Option.get k.hand) m;
        m
  in
  Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m);
  let t = Span.span "vm" (fun () -> Pmachine.Engine.create ~kind:Pmachine.Engine.Vm m) in
  let mem = Pmachine.Engine.mem t in
  let addrs =
    List.map
      (fun (b : Workload.buffer) ->
        let esz = Pir.Types.scalar_bytes b.elem in
        let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
        for i = 0 to b.len - 1 do
          Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
        done;
        (b, addr))
      k.buffers
  in
  let args =
    List.map (fun (_, a) -> Pmachine.Value.I (Int64.of_int a)) addrs @ k.scalars
  in
  let b0 = Meter.allocated_bytes () in
  let t0 = Clock.now () in
  Span.span "vm" (fun () -> ignore (Pmachine.Engine.run t k.kname args));
  let run_ns = Clock.now () - t0 in
  let run_bytes = Meter.allocated_bytes () -. b0 in
  let outputs =
    List.filter_map
      (fun ((b : Workload.buffer), addr) ->
        if b.output then
          Some (b.bname, Pmachine.Memory.read_array mem b.elem addr b.len)
        else None)
      addrs
  in
  let stats = Pmachine.Engine.stats t in
  ( {
      Runner.impl = op.impl;
      cycles = stats.cycles;
      outputs;
      stats;
      profile = None;
    },
    run_ns,
    run_bytes )

let setup (ctx : Meter.ctx) =
  let baseline = Pobs.Json.parse_file "bench_baseline.json" in
  let ops = Array.of_list (ops ~baseline) in
  Runner.Compile_cache.clear ();
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun op ->
      match source op.k op.impl with
      | Some src when not (Hashtbl.mem seen (op.k.kname, src)) ->
          Hashtbl.replace seen (op.k.kname, src) ();
          ignore (Runner.Compile_cache.compile ~name:op.k.kname src)
      | _ -> ())
    ops;
  Meter.shuffle ~seed:ctx.Meter.seed ops;
  ops

(* scalar-build outputs per kernel, computed untimed on first use *)
let reference =
  let tbl = Hashtbl.create 128 in
  fun (k : Workload.kernel) ->
    match Hashtbl.find_opt tbl k.kname with
    | Some r -> r
    | None ->
        let r = (Runner.run k Runner.Scalar).Runner.outputs in
        Hashtbl.replace tbl k.kname r;
        r

let check tally (op : op) (r : Runner.result) =
  let what = op.series ^ "/" ^ Runner.impl_name op.impl in
  if Int64.bits_of_float r.Runner.cycles <> Int64.bits_of_float op.cycles then
    Meter.fail tally
      (Fmt.str "%s: %.17g cycles, baseline %.17g" what r.cycles op.cycles)
  else
    let bad =
      List.exists2
        (fun (_, expected) (_, got) ->
          Array.length expected <> Array.length got
          || not
               (Array.for_all2
                  (Runner.close_enough op.k.float_tolerance)
                  expected got))
        (reference op.k) r.outputs
    in
    if bad then
      Meter.fail tally (what ^ ": outputs differ from the scalar build")

type vm_split = {
  mutable scalar_instrs : int;
  mutable scalar_ns : int;
  mutable vector_instrs : int;
  mutable vector_ns : int;
  mutable run_bytes : float;
}

let run (ctx : Meter.ctx) probes ops : Meter.result =
  let tally = Meter.tally () in
  let vm =
    {
      scalar_instrs = 0;
      scalar_ns = 0;
      vector_instrs = 0;
      vector_ns = 0;
      run_bytes = 0.0;
    }
  in
  let run ~tracing op =
    if not tracing then Runner.run op.k op.impl
    else begin
      let r, run_ns, run_bytes = traced_run op in
      let n = r.Runner.stats.Pmachine.Interp.instrs in
      vm.run_bytes <- vm.run_bytes +. run_bytes;
      if r.stats.vector_instrs = 0 then begin
        vm.scalar_instrs <- vm.scalar_instrs + n;
        vm.scalar_ns <- vm.scalar_ns + run_ns
      end
      else begin
        vm.vector_instrs <- vm.vector_instrs + n;
        vm.vector_ns <- vm.vector_ns + run_ns
      end;
      r
    end
  in
  let r =
    Meter.ops_loop ctx probes tally ops ~run ~check:(check tally)
      ~name:(fun op -> op.series ^ "/" ^ Runner.impl_name op.impl)
      ()
  in
  let f = Meter.median_factor probes in
  let mips instrs ns = float_of_int instrs /. (float_of_int ns /. f /. 1e9) /. 1e6 in
  let traced_passes = r.traced_ops / Array.length ops in
  let instrs = vm.scalar_instrs + vm.vector_instrs in
  {
    r with
    extras =
      (if r.traced_ops = 0 then []
       else
         r.extras
         @ [
             Meter.metric "vm.instrs" "count"
               (float_of_int instrs /. float_of_int traced_passes);
             Meter.metric "vm.minstr_per_s.scalar" "Minstr/s"
               (mips vm.scalar_instrs vm.scalar_ns);
             Meter.metric "vm.minstr_per_s.vector" "Minstr/s"
               (mips vm.vector_instrs vm.vector_ns);
             Meter.metric "vm.alloc_bytes_per_instr" "B"
               (vm.run_bytes /. float_of_int instrs);
           ]);
  }
