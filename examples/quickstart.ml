(* Quickstart: compile a Parsimony (PsimC) kernel, run it through the
   SPMD reference executor and through the vectorizer, and compare.

     dune exec examples/quickstart.exe *)

let source =
  {|
// y[i] = a * x[i] + y[i], 16-wide gangs
void saxpy(float32* x, float32* y, float32 a, int64 n) {
  psim gang_size(16) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}

let n = 1000

let run ~vectorize =
  (* 1. front-end: parse, type-check, extract the SPMD region *)
  let m = Pfrontend.Lower.compile source in
  Panalysis.Check.check_module m;
  (* 2. the Parsimony IR-to-IR pass (or not, for the reference run) *)
  if vectorize then begin
    let reports = Parsimony.Vectorizer.run_module m in
    List.iter (fun r -> Fmt.pr "  pass: %a@." Parsimony.Vectorizer.pp_report r) reports;
    Parsimony.Simplify.run_module m
  end;
  (* 3. execute on the simulated AVX-512 machine *)
  let t = Pmachine.Interp.create m in
  let mem = Pmachine.Interp.mem t in
  let x =
    Pmachine.Memory.alloc_array mem Pir.Types.F32
      (Array.init n (fun i -> Pmachine.Value.F (float_of_int i)))
  in
  let y =
    Pmachine.Memory.alloc_array mem Pir.Types.F32
      (Array.init n (fun i -> Pmachine.Value.F (float_of_int (n - i))))
  in
  ignore
    (Pmachine.Interp.run t "saxpy"
       [
         Pmachine.Value.I (Int64.of_int x);
         Pmachine.Value.I (Int64.of_int y);
         Pmachine.Value.F 2.0;
         Pmachine.Value.I (Int64.of_int n);
       ]);
  (Pmachine.Memory.read_array mem Pir.Types.F32 y n, (Pmachine.Interp.stats t).cycles)

let () =
  Fmt.pr "== Parsimony quickstart: saxpy over %d elements ==@." n;
  Fmt.pr "@.reference (SPMD executor, one thread per lane):@.";
  let ref_out, ref_cycles = run ~vectorize:false in
  Fmt.pr "  cycles: %.0f@." ref_cycles;
  Fmt.pr "@.vectorized (Parsimony pass):@.";
  let vec_out, vec_cycles = run ~vectorize:true in
  Fmt.pr "  cycles: %.0f@." vec_cycles;
  assert (Array.for_all2 Pmachine.Value.equal ref_out vec_out);
  Fmt.pr "@.outputs identical; y[0..4] = %a@."
    Fmt.(array ~sep:(any ", ") Pmachine.Value.pp)
    (Array.sub vec_out 0 5);
  Fmt.pr "simulated speedup: %.1fx@." (ref_cycles /. vec_cycles)
