(** The repository benchmark.

    [pbench --workload W --seed N --seconds S --trace 0|1] runs one
    workload (sweep, serve, verify or fuzz) from a seed, checks every
    output, and prints a report followed by one JSON line: the
    end-to-end metrics with [--trace 0], the per-layer metrics (from
    benchmark-side spans around each layer call) and the tracing
    overhead with [--trace 1].  Every timing is reported at reference
    host speed (see [Probe]); raw figures are in the report lines.

    setup_s is the median over child processes, each timed from its
    spawn to the moment it is ready for the first timed op and divided
    by (the probe taken just before it / reference probe) ^ the
    workload's setup elasticity (spec.json): [setup_before] children
    before the timed phase, then one every [Meter.setup_interval_ns]
    of it, between ops, so that the samples see the same host phases
    as the ops.  The parent sets up once more for its own timed phase.
    A traced run reports no setup_s and takes no samples. *)

let setup_before = 3

type w =
  | W : {
      setup : Meter.ctx -> 's;
      teardown : 's -> unit;
      run : Meter.ctx -> Meter.probes -> 's -> Meter.result;
    }
      -> w

let workloads =
  [
    ("sweep", W { setup = W_sweep.setup; teardown = ignore; run = W_sweep.run });
    ( "serve",
      W { setup = W_serve.setup; teardown = (fun s -> ignore (W_serve.teardown s)); run = W_serve.run }
    );
    ("verify", W { setup = W_verify.setup; teardown = ignore; run = W_verify.run });
    ("fuzz", W { setup = W_fuzz.setup; teardown = ignore; run = W_fuzz.run });
  ]

(* timed layers, each with a span of the same name *)
let layers =
  [
    "frontend";
    "vectorize";
    "slp";
    "autovec";
    "simplify";
    "legalize";
    "psan";
    "vm";
    "interp";
    "equiv";
    "verify.transform";
    "gen";
  ]

(* per-layer metrics that come from the workloads, with their units *)
let extra_metrics =
  [
    ("tracing_overhead", "ratio");
    ("vm.instrs", "count");
    ("vm.minstr_per_s.scalar", "Minstr/s");
    ("vm.minstr_per_s.vector", "Minstr/s");
    ("vm.alloc_bytes_per_instr", "B");
    ("interp.minstr_per_s", "Minstr/s");
    ("equiv.cases", "count");
    ("equiv.ms_per_case", "ms");
    ("equiv.decided_share", "fraction");
    ("serve.queue_us", "us");
    ("serve.cache_us", "us");
    ("serve.work_us.hit", "us");
    ("serve.work_us.miss", "us");
    ("serve.stage_us.frontend", "us");
    ("serve.stage_us.check", "us");
    ("serve.stage_us.vectorize", "us");
    ("serve.stage_us.recheck", "us");
    ("serve.stage_us.simplify", "us");
    ("client.codec_us", "us");
    ("client.transport_us", "us");
    ("serve.hit_share", "fraction");
    ("oracle.runs", "count");
    ("oracle.skips", "count");
  ]

let per_layer probes (r : Meter.result) =
  let n = float_of_int (max 1 r.traced_ops) in
  let f = Meter.median_factor probes in
  let spans =
    List.concat_map
      (fun l ->
        let calls = Meter.Span.calls l in
        [
          (Meter.metric (l ^ ".ms") "ms" (Meter.Span.ms l /. f /. n), Some calls);
          (Meter.metric (l ^ ".calls") "count" (float_of_int calls /. n), None);
        ]
        @
        if l = "frontend" || l = "vectorize" then
          [ (Meter.metric (l ^ ".alloc_mb") "MB" (Meter.Span.mb l /. n), Some calls) ]
        else [])
      layers
  in
  spans
  @ List.map
      (fun (name, unit) ->
        match List.find_opt (fun (m : Meter.metric) -> m.name = name) r.extras with
        | Some m -> (m, None)
        | None -> (Meter.metric name unit 0.0, None))
      extra_metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct (t : Meter.tally) (ms : Meter.metric list) =
  List.iter
    (fun (m : Meter.metric) ->
      if not (Float.is_finite m.value) then Fmt.failwith "%s is not a number" m.name)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun (m : Meter.metric) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (json_number m.value) m.unit)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct t.attempted t.failed body

(* a number in perfbench/spec.json *)
let spec_number spec path =
  match
    List.fold_left (fun j key -> Option.bind j (Pobs.Json.member key)) (Some spec) path
  with
  | Some (Pobs.Json.Int i) -> float_of_int i
  | Some (Pobs.Json.Float f) -> f
  | _ -> Fmt.failwith "spec.json: no number at %s" (String.concat "." path)

(* One setup in a child process, spawn to "ready": raw seconds, and
   seconds at reference host speed by a probe taken just before it.  A
   probe taken just after it would measure the child's aftermath. *)
let setup_sample probes ~elasticity args =
  Meter.probe probes;
  let probe_ns = Meter.Ibuf.get probes.p_dur (Meter.Ibuf.length probes.p_dur - 1) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] (Array.append args [| "--setup-child" |]))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = Clock.now () in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  if line <> "ready" || status <> Unix.WEXITED 0 then failwith "setup child failed";
  let raw = Clock.s (t1 - t0) in
  (raw, raw /. ((float_of_int probe_ns /. float_of_int probes.ref_ns) ** elasticity))

let main () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let setup_child = ref false and psimc = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W sweep|serve|verify|fuzz");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of timed work");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--psimc", Arg.Set_string psimc, "EXE the psimc executable");
      ("--setup-child", Arg.Set setup_child, " set up once, print ready, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload W --seed N --seconds S --trace 0|1 --psimc EXE\n\
     Run from the root of the checkout.";
  let (W w) =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  in
  let spec = Pobs.Json.parse_file "perfbench/spec.json" in
  let ctx =
    {
      Meter.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      ref_probe_ns = int_of_float (spec_number spec [ "reference_probe_ns" ]);
      tail_pct = spec_number spec [ "workloads"; !workload; "tail_percentile" ];
      wspec =
        Option.get
          (Option.bind (Pobs.Json.member "workloads" spec) (Pobs.Json.member !workload));
      psimc = !psimc;
      workdir = ".bench_build/run";
    }
  in
  if !setup_child then begin
    let s = w.setup ctx in
    print_endline "ready";
    w.teardown s;
    exit 0
  end;
  let probes =
    Meter.probes ~ref_ns:ctx.ref_probe_ns
      ~elasticity:(spec_number spec [ "probe_elasticity" ])
  in
  let child_args =
    [| "--workload"; !workload; "--seed"; string_of_int !seed; "--psimc"; !psimc |]
  in
  let setups = ref [] in
  let elasticity = spec_number spec [ "workloads"; !workload; "setup_elasticity" ] in
  let sample () = setups := setup_sample probes ~elasticity child_args :: !setups in
  if not ctx.trace then
    for _ = 1 to setup_before do
      sample ()
    done;
  let t0 = Clock.now () in
  let state = w.setup ctx in
  let own_setup = Clock.s (Clock.now () - t0) in
  if not ctx.trace then probes.setup_sample <- sample;
  probes.setup_last <- Clock.now ();
  let r = w.run ctx probes state in
  probes.setup_sample <- ignore;
  let setups = List.rev !setups in
  let setup_s = Meter.median (List.map snd setups) in
  let metrics =
    if ctx.trace then per_layer probes r
    else
      List.map (fun m -> (m, None)) (r.e2e @ [ Meter.metric "setup_s" "s" setup_s ])
  in
  Printf.printf "pbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  List.iter
    (fun ((m : Meter.metric), calls) ->
      Printf.printf "  %-28s %14.6f %s%s\n" m.name m.value m.unit
        (match calls with Some c -> Printf.sprintf "  (%d calls)" c | None -> ""))
    metrics;
  let t = r.tally in
  Printf.printf "  %-28s %14.6f fraction (%d of %d ops failed)\n" "error_share"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    t.failed t.attempted;
  List.iter (Printf.printf "  note: %s\n") r.notes;
  if not ctx.trace then
    Printf.printf
      "  note: %d setup_s samples, raw/normalised s: %s; raw median %.6f s; the timed phase's \
       own setup %.4f s raw\n"
      (List.length setups)
      (String.concat " " (List.map (fun (r, n) -> Printf.sprintf "%.4f/%.4f" r n) setups))
      (Meter.median (List.map fst setups))
      own_setup;
  Printf.printf "  note: host probe median %.0f ns over %d probes, reference %d ns\n"
    (Meter.median
       (List.init (Meter.Ibuf.length probes.p_dur) (fun i ->
            float_of_int (Meter.Ibuf.get probes.p_dur i))))
    (Meter.Ibuf.length probes.p_dur) ctx.ref_probe_ns;
  Hashtbl.iter (fun msg n -> Printf.printf "  failure x%d: %s\n" n msg) t.errors;
  print_result ~correct:(t.failed = 0) t (List.map fst metrics)

let () = main ()
