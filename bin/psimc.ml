(* psimc — the Parsimony compiler driver.

   Compiles PsimC source files through the reproduction tool-chain:

     psimc build FILE.psim          type-check + vectorize, report stats
     psimc ir FILE.psim             print the scalar PIR
     psimc vec FILE.psim            print the vectorized PIR
     psimc shapes FILE.psim         print shape analysis results
     psimc run FILE.psim -e F ARGS  execute function F on the simulator
                                    (--engine interp|vm selects the
                                    executor, --fuel N bounds the
                                    instructions; "exec" is an alias)
     psimc profile FILE.psim -e F   execute and print a hot-block profile
                                    and opcode mix (both engines;
                                    --flamegraph FILE exports collapsed
                                    call stacks)
     psimc autovec FILE.psim        run the auto-vectorizer baseline
     psimc lint FILE.psim           SPMD sanitizer (races, OOB, uninit, ...)
     psimc fuzz --seed N --count N  differential fuzzing (pfuzz)
     psimc verify-rules             offline shape-rule verification

   FILE may also name a built-in benchmark kernel (e.g. "mandelbrot"):
   its PsimC source from the registry is compiled instead.

   Observability flags, accepted by every compiling subcommand:
     --remarks        print optimization remarks (LLVM -Rpass style)
     --trace FILE     write a Chrome trace_event JSON of the pipeline
     --dump-ir DIR    write an IR snapshot after each pass
     --verbosity L    stderr log level (quiet|app|error|warning|info|debug;
                      default from PARSIMONY_LOG, else warning) *)

open Cmdliner

(* resolve FILE: a path on disk, or the name of a built-in kernel from
   the Figure-5 (Simd Library) or Figure-4 (ispc) registries, in the
   variant the strategy compiles ([Pipeline.kernel_source]) *)
let load_source ?(opts = Parsimony.Options.default) path =
  if Sys.file_exists path then
    (Filename.basename path, Pharness.Pipeline.read_file path)
  else
    match Pharness.Pipeline.kernel_source opts path with
    | Some src -> (path, src)
    | None ->
        Fmt.epr "psimc: %s: no such file or built-in kernel@." path;
        exit 1

(* -- observability options (shared by all compiling subcommands) -- *)

type obs = {
  remarks : bool;
  metrics : bool;
  trace : string option;
  dump_ir : string option;
  verbosity : Logs.level option option;
}

let obs_term =
  let remarks =
    Arg.(
      value & flag
      & info [ "remarks" ]
          ~doc:"Print optimization remarks (passed/missed/analysis) to stderr")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect the metrics registry (pass counters, interpreter stats, \
             remark tallies) and dump it to stderr on exit")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON trace to $(docv)")
  in
  let dump_ir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ir" ] ~docv:"DIR"
          ~doc:"Dump the IR after each pass into $(docv)")
  in
  let verbosity =
    let level_conv =
      Arg.conv
        ( (fun s ->
            match Pobs.Logging.level_of_string s with
            | Ok l -> Ok l
            | Error msg -> Error (`Msg msg)),
          fun ppf l ->
            Fmt.string ppf
              (match l with
              | None -> "quiet"
              | Some l -> Logs.level_to_string (Some l)) )
    in
    Arg.(
      value
      & opt (some level_conv) None
      & info [ "verbosity" ] ~docv:"LEVEL"
          ~doc:
            "Stderr log level: quiet, app, error, warning, info or debug \
             (default: $(b,PARSIMONY_LOG), else warning)")
  in
  let mk remarks metrics trace dump_ir verbosity =
    { remarks; metrics; trace; dump_ir; verbosity }
  in
  Term.(const mk $ remarks $ metrics $ trace $ dump_ir $ verbosity)

(* Run [f] with the requested observability active; afterwards print
   collected remarks and the metrics dump to stderr and write the trace
   file. *)
let with_obs (o : obs) f =
  Pobs.Logging.setup ?level:o.verbosity ();
  if o.remarks then Pobs.Remarks.set_mode Pobs.Remarks.Full;
  if o.metrics then Pobs.Metrics.enable ();
  if o.trace <> None then Pobs.Trace.enable ();
  let finish () =
    if o.remarks then begin
      List.iter (fun r -> Fmt.epr "%a@." Pobs.Remarks.pp r)
        (Pobs.Remarks.drain ());
      Pobs.Remarks.set_mode Pobs.Remarks.Off
    end;
    if o.metrics then begin
      Fmt.epr "== metrics ==@.%a" Pobs.Metrics.pp ();
      Pobs.Metrics.disable ()
    end;
    match o.trace with
    | Some file ->
        Pobs.Trace.write_chrome file;
        Pobs.Trace.disable ();
        Fmt.epr "wrote trace to %s@." file
    | None -> ()
  in
  Fun.protect ~finally:finish f

let cfg_of_obs ?(vectorize = true) ?(simplify = true) (o : obs) opts =
  {
    Pharness.Pipeline.default with
    vectorize;
    simplify;
    opts;
    dump_ir = o.dump_ir;
  }

let compile_source ?vectorize ?simplify o opts file =
  let name, src = load_source ~opts file in
  Pharness.Pipeline.compile ~cfg:(cfg_of_obs ?vectorize ?simplify o opts) ~name
    src

(* -- common options -- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"PsimC source file or built-in kernel name")

let math_lib =
  Arg.(
    value
    & opt (enum [ ("sleef", "sleef"); ("ispc", "ispc") ]) "sleef"
    & info [ "math-lib" ] ~doc:"Vector math library to target (sleef or ispc)")

let no_shapes =
  Arg.(value & flag & info [ "no-shape-analysis" ] ~doc:"Disable shape analysis (ablation)")

let boscc =
  Arg.(value & flag & info [ "boscc" ] ~doc:"Branch on superword condition codes")

let analyze =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Feed dataflow analysis (divergence, per-lane stride) back into \
           classification: reclassify provably strided gathers/scatters as \
           packed accesses and keep provably uniform branches scalar")

let strategy =
  let strategy_conv =
    Arg.conv
      ( (fun s ->
          match Parsimony.Options.strategy_of_string s with
          | Some st -> Ok st
          | None ->
              Error
                (`Msg
                   (Fmt.str "unknown strategy %S (parsimony or slp)" s))),
        fun ppf st -> Fmt.string ppf (Parsimony.Options.strategy_name st) )
  in
  Arg.(
    value
    & opt strategy_conv Parsimony.Options.Parsimony
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Compilation strategy: $(b,parsimony) (SPMD gang widening, the \
           default) or $(b,slp) (superword-level-parallelism packing of \
           straight-line statement groups, globally-optimized pairing)")

let opts_term =
  let mk math_lib no_shapes boscc analyze strategy =
    {
      Parsimony.Options.default with
      strategy;
      math_lib;
      shape_analysis = not no_shapes;
      boscc;
      analysis_feedback = analyze;
    }
  in
  Term.(const mk $ math_lib $ no_shapes $ boscc $ analyze $ strategy)

(* -- subcommands -- *)

let build_cmd =
  let run obs opts file =
    with_obs obs (fun () ->
        let _, reports = compile_source obs opts file in
        List.iter
          (fun r -> Fmt.pr "%a@." Parsimony.Vectorizer.pp_report r)
          reports;
        Fmt.pr "ok@.")
  in
  Cmd.v (Cmd.info "build" ~doc:"Type-check and vectorize; print pass statistics")
    Term.(const run $ obs_term $ opts_term $ file_arg)

let ir_cmd =
  let run obs file =
    with_obs obs (fun () ->
        let m, _ =
          compile_source ~vectorize:false obs Parsimony.Options.default file
        in
        Fmt.pr "%a@." Pir.Printer.pp_module m)
  in
  Cmd.v (Cmd.info "ir" ~doc:"Print the scalar PIR (before vectorization)")
    Term.(const run $ obs_term $ file_arg)

let vec_cmd =
  let run obs opts file =
    with_obs obs (fun () ->
        let m, _ = compile_source obs opts file in
        Fmt.pr "%a@." Pir.Printer.pp_module m)
  in
  Cmd.v (Cmd.info "vec" ~doc:"Print the vectorized PIR")
    Term.(const run $ obs_term $ opts_term $ file_arg)

let shapes_cmd =
  let run obs file =
    with_obs obs (fun () ->
        let m, _ =
          compile_source ~vectorize:false ~simplify:false obs
            Parsimony.Options.default file
        in
        List.iter
          (fun (f : Pir.Func.t) ->
            match f.spmd with
            | None -> ()
            | Some _ ->
                Fmt.pr "@.%a" Pir.Printer.pp_func f;
                let info = Pshapes.Shapes.analyze f in
                Pir.Func.iter_instrs f (fun _ i ->
                    if i.Pir.Instr.ty <> Pir.Types.Void then
                      Fmt.pr "  %%%d : %a@." i.id Pshapes.Shapes.pp_shape
                        (Pshapes.Shapes.shape_of info (Pir.Instr.Var i.id)));
                Fmt.pr "rules fired:@.";
                (* sorted: Hashtbl iteration order is not deterministic *)
                Hashtbl.fold (fun r n acc -> (r, n) :: acc)
                  info.Pshapes.Shapes.rule_hits []
                |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                |> List.iter (fun (r, n) -> Fmt.pr "  %-24s %d@." r n))
          m.funcs)
  in
  Cmd.v
    (Cmd.info "shapes"
       ~doc:"Print per-value shape analysis results for SPMD functions")
    Term.(const run $ obs_term $ file_arg)

let report_cmd =
  let run obs opts file =
    with_obs obs (fun () ->
        let name, src = load_source ~opts file in
        let m, cards =
          Pharness.Pipeline.scorecards ~cfg:(cfg_of_obs obs opts) ~name src
        in
        if cards = [] then begin
          Fmt.epr "psimc report: no SPMD function was vectorized@.";
          exit 1
        end;
        List.iter (fun c -> Fmt.pr "%a" Parsimony.Scorecard.pp c) cards;
        match cards with
        | [ _ ] -> ()
        | _ ->
            Fmt.pr "@.";
            Fmt.pr "%a" Parsimony.Scorecard.pp
              (Parsimony.Scorecard.aggregate
                 ~name:(m.Pir.Func.mname ^ " (total)")
                 cards))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print a vectorization coverage scorecard per SPMD function: %instrs \
          vectorized, packed/shuffle/gather/scatter memory-op mix, mask \
          density, linearized branches and serialized calls")
    Term.(const run $ obs_term $ opts_term $ file_arg)

let autovec_cmd =
  let run obs file =
    with_obs obs (fun () ->
        let name, src = load_source file in
        let m = Pfrontend.Lower.compile ~name src in
        let reports = Pautovec.Autovec.run_module m in
        List.iter (fun r -> Fmt.pr "%a@." Pautovec.Autovec.pp_report r) reports)
  in
  Cmd.v
    (Cmd.info "autovec" ~doc:"Run the loop auto-vectorizer baseline; report per-loop outcomes")
    Term.(const run $ obs_term $ file_arg)

(* A simulator argument: an integer, a number containing '.', or iN
   (an N-element i32 buffer initialised 0..N-1, passed by address). *)
type sim_arg = Int of int64 | Float of float | Buffer of int

let sim_arg_conv =
  let parse a =
    let v =
      if String.length a > 1 && a.[0] = 'i' then
        match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
        | Some n when n >= 0 -> Some (Buffer n)
        | _ -> None
      else if String.contains a '.' then
        Option.map (fun f -> Float f) (float_of_string_opt a)
      else Option.map (fun i -> Int i) (Int64.of_string_opt a)
    in
    Option.to_result v
      ~none:
        (`Msg
          (Fmt.str
             "invalid argument %S: expected an integer, a number containing \
              '.', or iN with N >= 0"
             a))
  in
  let print ppf = function
    | Int i -> Fmt.pf ppf "%Ld" i
    | Float f -> Fmt.pf ppf "%F" f
    | Buffer n -> Fmt.pf ppf "i%d" n
  in
  Arg.conv (parse, print)

(* a run that cannot proceed: report it like a compiler diagnostic *)
let sim_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "psimc: error: %s@." msg;
      exit 1)
    fmt

(* shared by run/exec and profile: execute, print result *)
let execute_on_simulator ?(profile = false) obs opts file entry scalar args
    ~engine ~fuel k =
  with_obs obs (fun () ->
      let m, _ = compile_source ~vectorize:(not scalar) obs opts file in
      let params =
        match Pir.Func.find_func_opt m entry with
        | Some f -> List.map snd f.Pir.Func.params
        | None -> sim_error "no function %s in %s" entry file
      in
      if List.length params <> List.length args then
        sim_error "%s takes %d argument(s), got %d" entry (List.length params)
          (List.length args);
      List.iteri
        (fun i (ty, a) ->
          let fits =
            match (ty, a) with
            | Pir.Types.Scalar s, Float _ -> Pir.Types.is_float_scalar s
            | Pir.Types.Scalar s, (Int _ | Buffer _) ->
                not (Pir.Types.is_float_scalar s)
            | Pir.Types.Ptr _, (Int _ | Buffer _) -> true
            | _ -> false
          in
          if not fits then
            sim_error "argument %d of %s has type %a, got %a" (i + 1) entry
              Pir.Types.pp ty (Arg.conv_printer sim_arg_conv) a)
        (List.combine params args);
      let t = Pmachine.Engine.create ~kind:engine ~fuel ~profile m in
      let mem = Pmachine.Engine.mem t in
      let buffers = ref [] in
      let value = function
        | Int i -> Pmachine.Value.I i
        | Float f -> Pmachine.Value.F f
        | Buffer n ->
            let addr =
              Pmachine.Memory.alloc_array mem Pir.Types.I32
                (Array.init n (fun i -> Pmachine.Value.I (Int64.of_int i)))
            in
            buffers := (addr, n) :: !buffers;
            Pmachine.Value.I (Int64.of_int addr)
      in
      let vargs = List.map value args in
      let result =
        Pobs.Trace.with_span ~cat:"machine"
          ~args:
            [
              ("entry", entry);
              ("engine", Pmachine.Engine.kind_to_string (Pmachine.Engine.kind t));
            ]
          "execute"
          (fun () ->
            try Pmachine.Engine.run t entry vargs with
            | Pmachine.State.Trap msg -> sim_error "trap: %s" msg
            | Pmachine.Memory.Fault msg -> sim_error "memory fault: %s" msg)
      in
      let stats = Pmachine.Engine.stats t in
      Fmt.pr "engine: %s@."
        (Pmachine.Engine.kind_to_string (Pmachine.Engine.kind t));
      Fmt.pr "result: %a@." Pmachine.Value.pp result;
      Fmt.pr "cycles: %.0f  instructions: %d (vector: %d)@." stats.cycles
        stats.instrs stats.vector_instrs;
      List.iter
        (fun (addr, n) ->
          let vals = Pmachine.Memory.read_array mem Pir.Types.I32 addr n in
          Fmt.pr "buffer@%d: %a@." addr
            Fmt.(array ~sep:(any " ") Pmachine.Value.pp)
            (Array.sub vals 0 (min n 32)))
        (List.rev !buffers);
      k t)

let entry_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "entry" ] ~docv:"FUNC" ~doc:"Function to execute")

let scalar_arg =
  Arg.(value & flag & info [ "scalar" ] ~doc:"Skip vectorization (SPMD reference executor)")

let engine_arg =
  let engine_conv =
    Arg.conv
      ( (fun s ->
          match Pmachine.Engine.kind_of_string s with
          | Some k -> Ok k
          | None -> Error (`Msg (Fmt.str "unknown engine %S (interp or vm)" s))),
        fun ppf k -> Fmt.string ppf (Pmachine.Engine.kind_to_string k) )
  in
  Arg.(
    value
    & opt engine_conv Pmachine.Engine.Vm
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,vm) (register-VM bytecode, the default) or \
           $(b,interp) (tree-walking reference interpreter).  Both produce \
           bit-identical results and cycle counts.")

let fuel_arg =
  Arg.(
    value
    & opt int Pmachine.State.default_fuel
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Instruction budget of the run: past it the run stops with \
           $(b,trap: out of fuel (infinite loop?)) and exit status 1.")

let sim_args =
  Arg.(
    value & pos_right 0 sim_arg_conv []
    & info [] ~docv:"ARGS"
        ~doc:
          "Arguments, one per parameter of the entry function: integers \
           and numbers containing '.' (floats) are passed directly; 'iN' \
           allocates an N-element i32 buffer initialized 0..N-1 and passes \
           its address (printed back after the run).  Any other argument is \
           a usage error; a trap, a memory fault or an argument that does \
           not fit its parameter is reported as an error with exit status 1.")

let run_term =
  let run obs opts file entry scalar engine fuel args =
    execute_on_simulator obs opts file entry scalar args ~engine ~fuel (fun _ -> ())
  in
  Term.(
    const run $ obs_term $ opts_term $ file_arg $ entry_arg $ scalar_arg
    $ engine_arg $ fuel_arg $ sim_args)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Execute a function on the simulated machine")
    run_term

(* alias kept distinct so scripts can say "exec" when they mean the
   production engine path *)
let exec_cmd =
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Execute a function on the simulated machine (alias of run)")
    run_term

let profile_cmd =
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Number of hot blocks to print")
  in
  let flamegraph =
    Arg.(
      value
      & opt (some string) None
      & info [ "flamegraph" ] ~docv:"FILE"
          ~doc:
            "Write collapsed call stacks to $(docv) in the folded format \
             (one \"caller;callee cycles\" line per call path) consumed by \
             flamegraph.pl and speedscope.  Cycles are simulated, so the \
             output is deterministic.")
  in
  let run obs opts file entry scalar engine fuel top flamegraph args =
    execute_on_simulator ~profile:true obs opts file entry scalar args ~engine ~fuel
      (fun t ->
        let p = Pmachine.Engine.profile t in
        Fmt.pr "@.== Hot blocks (per-block cycle attribution, engine %s) ==@."
          p.Pmachine.Profile.p_engine;
        Pmachine.Profile.pp ~limit:top Fmt.stdout p;
        Option.iter
          (fun file ->
            Pmachine.Profile.write_folded file p;
            Fmt.pr "flamegraph: wrote %d folded stack(s) to %s@."
              (List.length p.Pmachine.Profile.p_folded)
              file)
          flamegraph)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Execute a function on the simulated machine and print per-block \
          cycle/instruction attribution plus the dynamic opcode-class mix.  \
          Both engines attribute (the VM counts on its dispatch loop, the \
          interpreter on its block caches) and their profiles agree bit for \
          bit; $(b,--flamegraph) additionally exports collapsed call stacks.")
    Term.(
      const run $ obs_term $ opts_term $ file_arg $ entry_arg $ scalar_arg
      $ engine_arg $ fuel_arg $ top $ flamegraph $ sim_args)

let lint_cmd =
  let run obs opts file =
    with_obs obs (fun () ->
        let name, src = load_source file in
        let findings = Pharness.Pipeline.lint ~opts ~name src in
        List.iter (fun f -> Fmt.pr "%a@." Psan.pp_finding f) findings;
        if findings = [] then Fmt.pr "no findings@."
        else begin
          let errors =
            List.length (List.filter (fun f -> f.Psan.severity = Psan.Error) findings)
          in
          Fmt.pr "%d finding(s), %d error(s)@." (List.length findings) errors;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the SPMD sanitizer (psan): cross-lane races, out-of-bounds and \
          misaligned accesses, uninitialized reads, dead stores.  Exits \
          non-zero when any finding is reported.")
    Term.(const run $ obs_term $ opts_term $ file_arg)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base seed; seeds $(docv) .. $(docv)+count-1 are checked.  A seed \
             fully determines the generated program and its inputs.")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate and check")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker processes to fan seeds over (default: CPU count)")
  in
  let corpus =
    Arg.(
      value
      & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory where reduced failing programs are persisted")
  in
  let no_reduce =
    Arg.(
      value & flag
      & info [ "no-reduce" ] ~doc:"Persist failing programs without minimizing them")
  in
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            "Inject a known vectorizer bug before checking, to validate that \
             the harness catches it.  Supported: $(b,flip-mask) (swap the \
             blend operands of a linearized branch).")
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Re-run the full oracle on every .psim file in the corpus \
             directory instead of generating new programs")
  in
  let preset =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Pin every seed to one generator preset instead of rotating: \
             $(b,default), $(b,int), $(b,float), $(b,mem) or \
             $(b,straightline) (branch-free bodies with adjacent-access \
             runs, the SLP packer's seed pattern).")
  in
  let run obs seed count jobs corpus no_reduce mutate replay preset =
    with_obs obs (fun () ->
        if replay then begin
          let files = Pfuzz.Driver.corpus_files corpus in
          if files = [] then Fmt.pr "no corpus files under %s@." corpus;
          let failed =
            List.filter
              (fun file ->
                match Pfuzz.Driver.replay file with
                | Ok () ->
                    Fmt.pr "replay %s: ok@." file;
                    false
                | Error msg ->
                    Fmt.pr "replay %s@." msg;
                    true)
              files
          in
          if failed <> [] then exit 1
        end
        else begin
          let mutate =
            match mutate with
            | None -> None
            | Some s -> (
                match Pfuzz.Mutate.of_string s with
                | Some m -> Some m
                | None ->
                    Fmt.epr "psimc fuzz: unknown mutation %S@." s;
                    exit 2)
          in
          let cfg =
            match preset with
            | None -> None
            | Some name -> (
                match Pfuzz.Driver.preset_of_string name with
                | Some _ as c -> c
                | None ->
                    Fmt.epr
                      "psimc fuzz: unknown preset %S (default, int, float, \
                       mem or straightline)@."
                      name;
                    exit 2)
          in
          let jobs = if jobs <= 0 then Pparallel.Pool.default_jobs () else jobs in
          let summary =
            Pfuzz.Driver.run ?cfg ?mutate ~reduce:(not no_reduce) ~seed ~count
              ~jobs ()
          in
          Fmt.pr "%a" Pfuzz.Driver.pp_summary summary;
          List.iter
            (fun (f : Pfuzz.Driver.failure) ->
              let path = Pfuzz.Driver.save_corpus ~dir:corpus f in
              Fmt.pr "seed %d: %s -> %s (%d reduction oracle calls)@." f.seed
                f.bucket path f.reduce_tests)
            summary.failures;
          if summary.failures <> [] then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random PsimC SPMD kernels, execute \
          them under the reference interpreter and under every vectorizer / \
          autovec / legalization configuration, require bit-identical \
          outputs and a clean sanitizer, and shrink any failure to a minimal \
          reproducer in the corpus directory.")
    Term.(
      const run $ obs_term $ seed $ count $ jobs $ corpus $ no_reduce $ mutate
      $ replay $ preset)

let verify_kernel_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"PsimC source files or built-in kernel names to verify")
  in
  let suite =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:"Verify every built-in Figure-4/Figure-5 kernel")
  in
  let gang =
    Arg.(
      value & opt int 4
      & info [ "gang" ] ~docv:"N"
          ~doc:"Gang size to verify at (kernel gang sizes are overridden)")
  in
  let width =
    Arg.(
      value & opt int 8
      & info [ "width" ] ~docv:"W"
          ~doc:
            "Bit bound on integer input domains.  Arithmetic always runs at \
             native width; $(docv) only bounds the enumerated input values.")
  in
  let extent =
    Arg.(
      value & opt int 8
      & info [ "extent" ] ~docv:"K" ~doc:"Modeled elements per buffer parameter")
  in
  let slack =
    Arg.(
      value & opt int 4
      & info [ "slack" ] ~docv:"K"
          ~doc:"Extra modeled elements on each side of every buffer")
  in
  let timeout_cases =
    Arg.(
      value & opt int Psmt.Equiv.default_opts.Psmt.Equiv.max_cases
      & info [ "timeout-cases" ] ~docv:"M"
          ~doc:"Give up (Bounded-out) beyond this many enumerated cases")
  in
  let fuel =
    Arg.(
      value & opt int Psmt.Equiv.default_opts.Psmt.Equiv.fuel
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Instruction budget per symbolic execution")
  in
  let legalize =
    Arg.(
      value & opt (some int) None
      & info [ "legalize" ] ~docv:"LANES"
          ~doc:"Also legalize the candidate to $(docv)-lane chunks before checking")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write a JSON verification report to $(docv)")
  in
  let run obs opts files suite gang width extent slack timeout_cases fuel legalize json
      =
    with_obs obs (fun () ->
        let sources =
          files
          @ (if suite then
               List.map
                 (fun (k : Psimdlib.Workload.kernel) -> k.kname)
                 (Psimdlib.Registry.all @ Pispc.Suite.all)
             else [])
        in
        if sources = [] then begin
          Fmt.epr "psimc verify-kernel: no sources (pass FILEs or --suite)@.";
          exit 2
        end;
        let params =
          {
            Parsimony.Tv.default_params with
            gang = Some gang;
            width;
            extent;
            slack;
            max_cases = timeout_cases;
            fuel;
          }
        in
        let transform m =
          (* the candidate is whatever the selected strategy produces *)
          ignore (Pharness.Pipeline.vectorize opts m);
          Panalysis.Check.check_module m;
          Parsimony.Simplify.run_module m;
          (match legalize with
          | None -> ()
          | Some lanes ->
              m.Pir.Func.funcs <-
                List.map
                  (fun f -> Pbackend.Legalize.legalize_func ~lanes f)
                  m.Pir.Func.funcs);
          Panalysis.Check.check_module m
        in
        let refuted = ref 0 and bounded = ref 0 and proved = ref 0 in
        let errors = ref 0 in
        let docs =
          List.map
            (fun file ->
              let name, src = load_source ~opts file in
              let m, _ =
                Pharness.Pipeline.compile
                  ~cfg:(cfg_of_obs ~vectorize:false ~simplify:false obs opts)
                  ~name src
              in
              let serial =
                opts.Parsimony.Options.strategy = Parsimony.Options.SlpOptimal
              in
              match Parsimony.Tv.verify_module ~params ~serial ~transform m with
              | exception Pbackend.Legalize.Unsupported reason ->
                  (* the candidate cannot be built: no verdict to give *)
                  incr errors;
                  Fmt.epr "psimc: error: %s: cannot legalize to %d lanes: %s@." name
                    (Option.get legalize) reason;
                  (name, Pobs.Json.Obj [ ("error", Pobs.Json.Str reason) ])
              | results ->
                  List.iter
                    (fun (r : Parsimony.Tv.result) ->
                      (match r.verdict with
                      | Psmt.Equiv.Proved _ -> incr proved
                      | Psmt.Equiv.Refuted _ -> incr refuted
                      | Psmt.Equiv.Bounded _ -> incr bounded);
                      Fmt.pr "%s %s: %a@." name r.vfunc Psmt.Equiv.pp_verdict r.verdict)
                    results;
                  ( name,
                    Pobs.Json.Arr
                      (List.map
                         (fun (r : Parsimony.Tv.result) ->
                           Pobs.Json.Obj
                             [
                               ("func", Pobs.Json.Str r.vfunc);
                               ("gang", Pobs.Json.Int r.gang_used);
                               ("verdict", Pobs.Json.Str (Psmt.Equiv.verdict_name r.verdict));
                               ("cases", Pobs.Json.Int (Psmt.Equiv.verdict_cases r.verdict));
                               ("ms", Pobs.Json.Float r.ms);
                               ( "detail",
                                 Pobs.Json.Str
                                   (match r.verdict with
                                   | Psmt.Equiv.Proved { vacuous; _ } ->
                                       Fmt.str "%d vacuous" vacuous
                                   | Psmt.Equiv.Bounded { reason; _ } -> reason
                                   | Psmt.Equiv.Refuted { cx; _ } ->
                                       Fmt.str "%a" Psmt.Equiv.pp_counterexample cx) );
                             ])
                         results) ))
            sources
        in
        (match json with
        | None -> ()
        | Some path ->
            let doc =
              Pobs.Json.Obj
                [
                  ( "params",
                    Pobs.Json.Obj
                      [
                        ("gang", Pobs.Json.Int gang);
                        ("width", Pobs.Json.Int width);
                        ("extent", Pobs.Json.Int extent);
                        ("slack", Pobs.Json.Int slack);
                        ("timeout_cases", Pobs.Json.Int timeout_cases);
                        ("fuel", Pobs.Json.Int fuel);
                        ( "legalize",
                          match legalize with
                          | None -> Pobs.Json.Null
                          | Some l -> Pobs.Json.Int l );
                      ] );
                  ( "summary",
                    Pobs.Json.Obj
                      [
                        ("proved", Pobs.Json.Int !proved);
                        ("refuted", Pobs.Json.Int !refuted);
                        ("bounded", Pobs.Json.Int !bounded);
                        ("errors", Pobs.Json.Int !errors);
                      ] );
                  ("kernels", Pobs.Json.Obj docs);
                ]
            in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Pobs.Json.to_string doc));
            Fmt.epr "wrote report to %s@." path);
        Fmt.pr "verify-kernel: %d proved, %d counterexamples, %d bounded out%s@."
          !proved !refuted !bounded
          (if !errors > 0 then Fmt.str ", %d not legalizable" !errors else "");
        if !bounded > 0 then
          Fmt.epr "warning: %d verification(s) bounded out (no claim made)@." !bounded;
        if !refuted > 0 || !errors > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "verify-kernel"
       ~doc:
         "Bounded translation validation: symbolically execute the serial \
          SPMD reference and the vectorized kernel over small input domains \
          and prove them equivalent, or print a concrete lane-level \
          counterexample.  Exits non-zero on any counterexample; Bounded-out \
          verdicts are warnings.")
    Term.(
      const run $ obs_term $ opts_term $ files_arg $ suite $ gang $ width $ extent
      $ slack $ timeout_cases $ fuel $ legalize $ json)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix socket at $(docv) (default /tmp/psimc.sock)")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on localhost TCP port $(docv) instead of a Unix socket")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains handling requests (1 = inline on the accept loop)")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache entries held before LRU eviction")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write a final metrics-registry snapshot to $(docv) on shutdown")
  in
  let run obs socket port jobs cache_capacity metrics_out =
    with_obs obs (fun () ->
        let addr =
          match (socket, port) with
          | Some p, None -> Pharness.Serve.Unix_path p
          | None, Some p -> Pharness.Serve.Tcp_port p
          | None, None -> Pharness.Serve.Unix_path "/tmp/psimc.sock"
          | Some _, Some _ ->
              Fmt.epr "psimc serve: pass --socket or --port, not both@.";
              exit 2
        in
        let cfg =
          {
            (Pharness.Serve.default_config addr) with
            jobs;
            cache_capacity;
            metrics_out;
            banner = true;
            handle_signals = true;
          }
        in
        let summary = Pharness.Serve.run cfg in
        Fmt.pr "%a" Pharness.Serve.pp_summary summary)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a persistent compile daemon: newline-framed JSON requests \
          (compile, lint, report, exec, profile, ping, metrics, shutdown) \
          over a Unix socket or localhost TCP, answered from a bounded \
          content-addressed result cache and fanned over a worker pool.  \
          Every response carries per-request span timings; the $(b,metrics) \
          verb scrapes the live registry (request latency p50/p90/p99, cache \
          hit/miss/eviction counters, process gauges).  Drains in-flight \
          work on $(b,shutdown), SIGTERM or SIGINT.")
    Term.(
      const run $ obs_term $ socket $ port $ jobs $ cache_capacity $ metrics_out)

let verify_rules_cmd =
  let exhaustive =
    Arg.(value & flag & info [ "exhaustive" ] ~doc:"Exhaustive 8-bit base enumeration")
  in
  let run exhaustive =
    Pobs.Logging.setup ();
    let reports = Psmt.Verify.check_all ~exhaustive () in
    List.iter (fun r -> Fmt.pr "%a@." Psmt.Verify.pp_report r) reports;
    if Psmt.Verify.all_ok reports then Fmt.pr "all rules verified@."
    else exit 1
  in
  Cmd.v
    (Cmd.info "verify-rules"
       ~doc:"Offline verification of the conditional shape-transformation rules")
    Term.(const run $ exhaustive)

let () =
  let doc = "Parsimony SPMD compiler (CGO'23 reproduction)" in
  let info = Cmd.info "psimc" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            build_cmd;
            ir_cmd;
            vec_cmd;
            shapes_cmd;
            report_cmd;
            autovec_cmd;
            run_cmd;
            exec_cmd;
            profile_cmd;
            lint_cmd;
            serve_cmd;
            fuzz_cmd;
            verify_kernel_cmd;
            verify_rules_cmd;
          ]))
