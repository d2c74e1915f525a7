(** verify: translation validation of the kernel suite.

    Each op is what [psimc verify-kernel KERNEL] does with default
    bounds: lower the kernel, then [Tv.verify_module], whose
    [transform] callback vectorizes and simplifies the candidate.  The
    3x3-stencil family is left out (see spec.json): its 14 kernels take
    12-17 s each and would dominate every pass.  No function may get a
    counterexample, and no function decided at seed
    (verify_expected.json) may fall back to Bounded-out. *)

module Span = Meter.Span

let excluded =
  [
    "mean_filter_3x3";
    "gaussian_blur_3x3";
    "median_filter_square_3x3";
    "median_filter_rhomb_3x3";
    "sobel_dx";
    "sobel_dy";
    "sobel_dx_abs";
    "sobel_dy_abs";
    "laplace";
    "laplace_abs";
    "shift_bilinear";
    "contour_metrics";
    "texture_boosted_saturated_gradient";
    "abs_gradient_saturated_sum";
  ]

let lower_cfg =
  { Pharness.Pipeline.default with vectorize = false; simplify = false }

(* psimc verify-kernel's transform for the default strategy *)
let transform m =
  ignore (Parsimony.Vectorizer.run_module m);
  Panalysis.Check.check_module m;
  Parsimony.Simplify.run_module m;
  Panalysis.Check.check_module m

let plain_op (k : Psimdlib.Workload.kernel) =
  let m, _ = Pharness.Pipeline.compile ~cfg:lower_cfg ~name:k.kname k.psim_src in
  Parsimony.Tv.verify_module ~transform m

(* the same steps with a span around each layer call *)
let traced_op (k : Psimdlib.Workload.kernel) =
  let m = Span.span "frontend" (fun () -> Pfrontend.Lower.compile ~name:k.kname k.psim_src) in
  Panalysis.Check.check_module m;
  let transform m =
    Span.span "verify.transform" (fun () ->
        Span.span "vectorize" (fun () -> ignore (Parsimony.Vectorizer.run_module m));
        Panalysis.Check.check_module m;
        Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m);
        Panalysis.Check.check_module m)
  in
  Span.span "equiv" (fun () -> Parsimony.Tv.verify_module ~transform m)

let setup (ctx : Meter.ctx) =
  let expected =
    match Pobs.Json.parse_file "perfbench/verify_expected.json" with
    | Pobs.Json.Obj kvs ->
        List.map
          (fun (f, v) ->
            match v with
            | Pobs.Json.Str s -> (f, s)
            | _ -> failwith "verify_expected.json: verdicts are strings")
          kvs
    | _ -> failwith "verify_expected.json: expected an object"
  in
  let ops =
    Array.of_list
      (List.filter
         (fun (k : Psimdlib.Workload.kernel) -> not (List.mem k.kname excluded))
         (Psimdlib.Registry.all @ Pispc.Suite.all))
  in
  Meter.shuffle ~seed:ctx.Meter.seed ops;
  (ops, expected)

let check tally ~expected (k : Psimdlib.Workload.kernel) results =
  List.iter
    (fun (r : Parsimony.Tv.result) ->
      let key = k.kname ^ "/" ^ r.vfunc in
      match (r.verdict, List.assoc_opt key expected) with
      | Psmt.Equiv.Refuted _, _ ->
          Meter.fail tally
            (Fmt.str "%s: counterexample: %a" key Psmt.Equiv.pp_verdict r.verdict)
      | Psmt.Equiv.Bounded { reason; _ }, Some "proved" ->
          Meter.fail tally
            (Fmt.str "%s: proved at seed, now bounded out (%s)" key reason)
      | _, None -> Meter.fail tally (key ^ ": not in verify_expected.json")
      | _ -> ())
    results

let run (ctx : Meter.ctx) probes (ops, expected) : Meter.result =
  let tally = Meter.tally () in
  (* per pass: functions, decided, enumerated cases *)
  let funcs = ref 0 and decided = ref 0 and cases = ref 0 in
  let pf = ref 0 and pd = ref 0 and pc = ref 0 in
  let check (k : Psimdlib.Workload.kernel) results =
    check tally ~expected k results;
    List.iter
      (fun (r : Parsimony.Tv.result) ->
        incr pf;
        pc := !pc + Psmt.Equiv.verdict_cases r.verdict;
        match r.verdict with
        | Psmt.Equiv.Proved _ | Psmt.Equiv.Refuted _ -> incr pd
        | Psmt.Equiv.Bounded _ -> ())
      results
  in
  let pass_end ~tracing:_ =
    funcs := !pf;
    decided := !pd;
    cases := !pc;
    pf := 0;
    pd := 0;
    pc := 0
  in
  let r =
    Meter.ops_loop ctx probes tally ops ~check ~pass_end
      ~run:(fun ~tracing k -> if tracing then traced_op k else plain_op k)
      ~name:(fun (k : Psimdlib.Workload.kernel) -> k.kname)
      ()
  in
  let decided_share = float_of_int !decided /. float_of_int !funcs in
  {
    r with
    extras =
      (if r.traced_ops = 0 then []
       else
         let f = Meter.median_factor probes in
         let traced_passes = r.traced_ops / Array.length ops in
         r.extras
         @ [
             Meter.metric "equiv.cases" "count" (float_of_int !cases);
             Meter.metric "equiv.ms_per_case" "ms"
               (Span.ms "equiv" /. f /. float_of_int (traced_passes * !cases));
             Meter.metric "equiv.decided_share" "fraction" decided_share;
           ]);
    notes =
      r.notes
      @ [
          Fmt.str "decided_share %.6f fraction (%d of %d functions proved or refuted)"
            decided_share !decided !funcs;
        ];
  }
