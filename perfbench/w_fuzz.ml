(** fuzz: differential fuzzing.

    Each op is [Pfuzz.Driver.run_one ~reduce:false] on one fuzz seed;
    presets rotate with the fuzz seed as [Driver.preset_for] rotates them.  The
    fuzz seeds are the fixed population 0..199 and the workload seed
    sets their order: program costs are heavy-tailed, and windows of
    100 consecutive fuzz seeds measured from 4.5 s to 7.8 s, so a
    window drawn per workload seed would make throughput and
    allocation differ by seed rather than by program version.  No fuzz
    seed may fail; a failure's bucket is kept in the error text.

    The traced op re-runs the steps of [Driver.run_one] and
    [Oracle.run] in the same order through the oracle's public
    functions, with a span around each layer call, and must reach the
    same verdict as the untraced op on the same fuzz seed.  The replay
    gives only the span timings: oracle.runs is the program's own
    [fuzz.oracle_runs] counter over an untraced pass, and a replay that
    ran a different number of oracle executions is reported as drift. *)

module Span = Meter.Span
module O = Pfuzz.Oracle
module T = Pfuzz.Triage

let window = 200

type counts = {
  mutable runs : int;  (** differential executions of the replay *)
  mutable interp_instrs : int;
  mutable interp_ns : int;
  mutable vm_instrs : int;
}

let c = { runs = 0; interp_instrs = 0; interp_ns = 0; vm_instrs = 0 }

let exec layer kind m s =
  let t0 = Clock.now () in
  let ((_, _, instrs) as r) =
    Span.span layer (fun () -> O.exec_stats ~engine:kind m s)
  in
  (match kind with
  | Pmachine.Engine.Interp ->
      c.interp_instrs <- c.interp_instrs + instrs;
      c.interp_ns <- c.interp_ns + (Clock.now () - t0)
  | Pmachine.Engine.Vm -> c.vm_instrs <- c.vm_instrs + instrs);
  r

let vm_check name m s ref_bufs ref_cycles ref_instrs =
  c.runs <- c.runs + 1;
  let config = "vm-" ^ name in
  match exec "vm" Pmachine.Engine.Vm m s with
  | exception e ->
      Some (O.Fail { bucket = T.vm_exn ~config:name e; config; detail = Printexc.to_string e })
  | got, cycles, instrs -> (
      match O.compare_buffers ref_bufs got with
      | Some detail -> Some (O.Fail { bucket = T.vm ~config:name; config; detail })
      | None ->
          if cycles <> ref_cycles || instrs <> ref_instrs then
            Some
              (O.Fail
                 { bucket = T.vm ~config:name; config; detail = "stats diverge" })
          else None)

let profile_check name m s =
  c.runs <- c.runs + 1;
  let fail bucket detail =
    Some (O.Fail { bucket; config = "profile-" ^ name; detail })
  in
  let capture kind =
    let layer = match kind with Pmachine.Engine.Interp -> "interp" | _ -> "vm" in
    Span.span layer (fun () ->
        let t = Pmachine.Engine.create ~kind ~profile:true m in
        let _bufs, cycles, instrs = O.exec_on t s in
        (Pmachine.Engine.profile t, cycles, instrs))
  in
  match (capture Pmachine.Engine.Interp, capture Pmachine.Engine.Vm) with
  | exception e -> fail (T.profile_exn ~config:name e) (Printexc.to_string e)
  | (pi, icyc, iinstr), (pv, vcyc, vinstr) ->
      let consistent p cyc instr =
        Int64.bits_of_float (Pmachine.Profile.sum_cycles p) = Int64.bits_of_float cyc
        && Pmachine.Profile.sum_instrs p = instr
      in
      if not (consistent pi icyc iinstr && consistent pv vcyc vinstr) then
        fail (T.profile ~config:name) "attribution does not sum to stats"
      else if not (Pmachine.Profile.equal pi pv) then
        fail (T.profile ~config:name) (O.profile_divergence pi pv)
      else None

let prepare config scalar =
  let m = Pir.Func.copy_module scalar in
  (match config with
  | O.Vec (_, opts) ->
      Span.span "vectorize" (fun () -> ignore (Parsimony.Vectorizer.run_module ~opts m));
      Panalysis.Check.check_module m;
      Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m)
  | O.Slp (_, opts) ->
      Span.span "slp" (fun () -> ignore (Parsimony.Slp.run_module ~opts m));
      Panalysis.Check.check_module m;
      Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m)
  | O.Autovec ->
      Span.span "autovec" (fun () -> ignore (Pautovec.Autovec.run_module m));
      Panalysis.Check.check_module m
  | O.Legalized lanes ->
      Span.span "vectorize" (fun () -> ignore (Parsimony.Vectorizer.run_module m));
      Panalysis.Check.check_module m;
      Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m);
      m.Pir.Func.funcs <-
        Span.span "legalize" (fun () ->
            List.map
              (fun f ->
                try Pbackend.Legalize.legalize_func ~lanes f
                with Pbackend.Legalize.Unsupported reason -> raise (O.Skip reason))
              m.Pir.Func.funcs);
      Panalysis.Check.check_module m);
  m

let psan_findings scalar =
  let scalar_findings = Span.span "psan" (fun () -> Psan.run_module scalar) in
  let m = Pir.Func.copy_module scalar in
  let vector_findings =
    match Span.span "vectorize" (fun () -> Parsimony.Vectorizer.run_module m) with
    | exception Parsimony.Vectorizer.Unvectorizable _ -> []
    | _ ->
        Span.span "simplify" (fun () -> Parsimony.Simplify.run_module m);
        Span.span "psan" (fun () -> Psan.run_module m)
  in
  Psan.sort_findings (scalar_findings @ vector_findings)

let oracles (s : O.subject) : O.verdict =
  let compile_scalar () =
    let m = Span.span "frontend" (fun () -> Pfrontend.Lower.compile ~name:"fuzz" s.src) in
    Panalysis.Check.check_module m;
    m
  in
  match compile_scalar () with
  | exception e ->
      O.Fail
        {
          bucket = T.compile_exn ~config:"frontend" e;
          config = "frontend";
          detail = Printexc.to_string e;
        }
  | scalar -> (
      match
        List.find_opt (fun f -> f.Psan.severity = Psan.Error) (psan_findings scalar)
      with
      | Some f ->
          O.Fail
            {
              bucket = T.psan ~check:f.Psan.check;
              config = "psan";
              detail = Fmt.str "%a" Psan.pp_finding f;
            }
      | None -> (
          c.runs <- c.runs + 1;
          match exec "interp" Pmachine.Engine.Interp scalar s with
          | exception e ->
              O.Fail
                {
                  bucket = T.exec_exn ~config:"ref" e;
                  config = "ref";
                  detail = Printexc.to_string e;
                }
          | reference, ref_cycles, ref_instrs -> (
              match vm_check "ref" scalar s reference ref_cycles ref_instrs with
              | Some fail -> fail
              | None -> (
                  match profile_check "ref" scalar s with
                  | Some fail -> fail
                  | None ->
                      let rec go skipped = function
                        | [] -> O.Pass { skipped = List.rev skipped }
                        | config :: rest -> (
                            let name = O.config_name config in
                            match prepare config scalar with
                            | exception O.Skip reason ->
                                go ((name, reason) :: skipped) rest
                            | exception e ->
                                O.Fail
                                  {
                                    bucket = T.compile_exn ~config:name e;
                                    config = name;
                                    detail = Printexc.to_string e;
                                  }
                            | m -> (
                                c.runs <- c.runs + 1;
                                match exec "interp" Pmachine.Engine.Interp m s with
                                | exception e ->
                                    O.Fail
                                      {
                                        bucket = T.exec_exn ~config:name e;
                                        config = name;
                                        detail = Printexc.to_string e;
                                      }
                                | got, cycles, instrs -> (
                                    match O.compare_buffers reference got with
                                    | Some detail ->
                                        let bucket =
                                          match config with
                                          | O.Slp _ -> T.slp ~config:name
                                          | _ -> T.diff ~config:name
                                        in
                                        O.Fail { bucket; config = name; detail }
                                    | None -> (
                                        match vm_check name m s got cycles instrs with
                                        | Some fail -> fail
                                        | None -> (
                                            match
                                              if name = "vec-default" then
                                                profile_check name m s
                                              else None
                                            with
                                            | Some fail -> fail
                                            | None -> go skipped rest)))))
                      in
                      go [] O.all_configs))))

(* Driver.run_one ~reduce:false: generate, run the oracle (with its
   catch-all), re-triage diff: buckets through the checker *)
let traced_one seed =
  let cfg = Pfuzz.Driver.preset_for seed in
  let case = Span.span "gen" (fun () -> Pfuzz.Gen.generate ~cfg seed) in
  let subject = O.of_case case in
  match
    try oracles subject
    with e ->
      O.Fail
        { bucket = T.oracle_exn e; config = "oracle"; detail = Printexc.to_string e }
  with
  | O.Fail f when T.diff_config f.bucket <> None ->
      O.Fail { f with bucket = O.refine_bucket subject f.bucket }
  | v -> v

(* differential executions [Oracle.run] has counted so far (metrics on) *)
let program_runs () =
  List.fold_left
    (fun n series ->
      match Pobs.Json.member "value" series with Some (Pobs.Json.Int v) -> n + v | _ -> n)
    0
    (Pharness.Loadgen.metric_series (Pobs.Metrics.snapshot ()) "fuzz.oracle_runs")

let outcome_of_verdict = function
  | O.Pass { skipped } -> (None, skipped)
  | O.Fail { bucket; _ } -> (Some bucket, [])

let setup (ctx : Meter.ctx) =
  let seeds = Array.init window Fun.id in
  Meter.shuffle ~seed:ctx.Meter.seed seeds;
  seeds

let run (ctx : Meter.ctx) probes seeds : Meter.result =
  let tally = Meter.tally () in
  let skips = ref 0 and pass_skips = ref 0 in
  (* With --trace 1 every pass runs with the program's metrics on, so
     Oracle.run counts its own executions; traced and untraced passes
     pay the same for it. *)
  if ctx.trace then Pobs.Metrics.enable ();
  let program = ref None and pass_start = ref (program_runs ()) in
  let replay = ref None and replay_start = ref 0 in
  (* untraced outcome per fuzz seed, to hold the traced replay to *)
  let outcomes = Hashtbl.create window in
  let run ~tracing seed =
    if tracing then outcome_of_verdict (traced_one seed)
    else
      let failure, skipped = Pfuzz.Driver.run_one ~reduce:false seed in
      (Option.map (fun (f : Pfuzz.Driver.failure) -> f.bucket) failure, skipped)
  in
  let check seed ((bucket, skipped) as outcome) =
    pass_skips := !pass_skips + List.length skipped;
    (match bucket with
    | Some b -> Meter.fail tally (Fmt.str "fuzz seed %d: %s" seed b)
    | None -> ());
    match Hashtbl.find_opt outcomes seed with
    | None -> Hashtbl.replace outcomes seed outcome
    | Some o when o = outcome -> ()
    | Some _ -> Meter.fail tally (Fmt.str "fuzz seed %d: traced and untraced outcomes differ" seed)
  in
  let pass_end ~tracing =
    skips := !pass_skips;
    pass_skips := 0;
    let now = program_runs () in
    if tracing then begin
      if !replay = None then replay := Some (c.runs - !replay_start)
    end
    else if !program = None then program := Some (now - !pass_start);
    pass_start := now;
    replay_start := c.runs
  in
  let r =
    Meter.ops_loop ctx probes tally seeds ~run ~check ~pass_end
      ~name:(Fmt.str "fuzz seed %d") ()
  in
  let per_pass x = float_of_int x /. float_of_int (max 1 (r.traced_ops / window)) in
  let program = Option.value ~default:0 !program in
  {
    r with
    extras =
      (if r.traced_ops = 0 then []
       else
         let f = Meter.median_factor probes in
         r.extras
         @ [
             Meter.metric "oracle.runs" "count" (float_of_int program);
             Meter.metric "oracle.skips" "count" (float_of_int !skips);
             Meter.metric "vm.instrs" "count" (per_pass c.vm_instrs);
             Meter.metric "interp.minstr_per_s" "Minstr/s"
               (float_of_int c.interp_instrs /. (float_of_int c.interp_ns /. f /. 1e9) /. 1e6);
           ]);
    notes =
      r.notes
      @ [ Fmt.str "fuzz seeds 0..%d, %d skipped configurations per pass" (window - 1) !skips ]
      @
      match !replay with
      | Some n when n <> program ->
          [
            Fmt.str
              "replay drift: the traced replay ran %d oracle executions per pass, \
               Oracle.run %d; its per-layer split no longer matches the program"
              n program;
          ]
      | _ -> [];
  }
