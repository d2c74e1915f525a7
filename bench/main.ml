(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) on the simulated
   AVX-512 machine.  The compiler's own wall-clock is measured by the
   repository benchmark, perfbench/.

   Usage:
     dune exec bench/main.exe [--] [--jobs N] [--json FILE]
                                   [--trace FILE] [--history FILE]
                                   [--engine interp|vm]
     dune exec bench/main.exe -- diff BASELINE [CURRENT] [--engine E]
     dune exec bench/main.exe -- check --baseline FILE [--current FILE]
                                       [--tolerance PCT] [--engine E]
   - "--engine" selects the execution engine for the sweeps (default:
     the register VM).  The engine is recorded in the run document and
     [check]/[diff] refuse to compare runs across engines (exit 2).
   - "--jobs N" sets the worker-domain count for the figure sweeps
     (default: PARSIMONY_JOBS, else the runtime's recommendation capped
     at 8).  The tables are byte-identical for every N.
   - "--json FILE" writes the full run document to FILE: schema version,
     cost-model identifier, environment fingerprint, per-kernel cycles,
     geomeans, vectorization scorecards, rows, timings, remark counts
     and a metrics snapshot.
   - "--history FILE" appends the same document to FILE as one JSONL
     line (the regression observatory's store).
   - "--trace FILE" records every harness section and compiler pass as a
     span and writes a Chrome trace_event file (chrome://tracing).
   - "diff" compares two runs (a --json file, or the latest line of a
     JSONL history) and prints a ranked regression/improvement table.
     Without CURRENT it re-runs the figure sweep first.
   - "check" gates the current run against a baseline: exit 0 when every
     kernel's cycles are within tolerance (default 0.5%), 1 on any
     regression or vanished kernel, 2 on incompatible runs (different
     schema or cost model) or unreadable files.  On a cross-engine
     refusal both check and diff print which engine the baseline was
     recorded on, so the fix (matching --engine, or regenerating) is
     one line away.
   - "overhead" measures the wall-clock cost of profiling attribution
     on one kernel (EXPERIMENTS.md): main.exe overhead [--kernel K]
     [--iters N] [--engine E]. *)

let pr fmt = Fmt.pr fmt

let usage () =
  Fmt.epr
    "usage: main.exe [--jobs N] [--json FILE] [--trace FILE] \
     [--history FILE] [--engine interp|vm]@.       main.exe diff BASELINE \
     [CURRENT] [--engine E]@.       main.exe check --baseline FILE [--current \
     FILE] [--tolerance PCT] [--engine E]@.       main.exe overhead [--kernel \
     K] [--iters N] [--engine E]@.";
  exit 2

type cli = {
  jobs : int;
  json : string option;
  trace : string option;
  history : string option;
  engine : Pmachine.Engine.kind;
}

type cmd =
  | Run of cli
  | Diff of {
      baseline : string;
      current : string option;
      jobs : int;
      engine : Pmachine.Engine.kind;
    }
  | Check of {
      baseline : string option;
      current : string option;
      tolerance : float;
      jobs : int;
      engine : Pmachine.Engine.kind;
    }
  | Overhead of { kernel : string; iters : int; engine : Pmachine.Engine.kind }

let default_jobs () =
  (* a malformed PARSIMONY_JOBS raises; report it as a usage error *)
  try Pparallel.Pool.default_jobs ()
  with Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    usage ()

let parse_engine s =
  match Pmachine.Engine.kind_of_string s with
  | Some k -> k
  | None ->
      Fmt.epr "--engine %s: expected one of %a@." s
        Fmt.(list ~sep:comma string)
        (List.map Pmachine.Engine.kind_to_string Pmachine.Engine.all_kinds);
      usage ()

let parse_jobs n =
  match int_of_string_opt n with
  | Some j when j >= 1 -> j
  | _ ->
      Fmt.epr "--jobs %s: expected a positive integer@." n;
      usage ()

let parse_run_cli args =
  let jobs = default_jobs () in
  let cli =
    ref
      {
        jobs;
        json = None;
        trace = None;
        history = None;
        engine = Pmachine.Engine.Vm;
      }
  in
  let rec go = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        cli := { !cli with jobs = parse_jobs n };
        go rest
    | "--json" :: file :: rest ->
        cli := { !cli with json = Some file };
        go rest
    | "--trace" :: file :: rest ->
        cli := { !cli with trace = Some file };
        go rest
    | "--history" :: file :: rest ->
        cli := { !cli with history = Some file };
        go rest
    | "--engine" :: e :: rest ->
        cli := { !cli with engine = parse_engine e };
        go rest
    | [ (("--jobs" | "--json" | "--trace" | "--history" | "--engine") as flag)
      ] ->
        Fmt.epr "%s requires a value@." flag;
        usage ()
    | arg :: _ ->
        Fmt.epr "unknown argument %S@." arg;
        usage ()
  in
  go args;
  (* fail on an unwritable --json target now, not after the sweep *)
  Option.iter
    (fun file ->
      try close_out (open_out file)
      with Sys_error msg ->
        Fmt.epr "--json %s: %s@." file msg;
        exit 2)
    !cli.json;
  !cli

let parse_check_cli args =
  let baseline = ref None
  and current = ref None
  and tolerance = ref 0.5
  and jobs = ref (default_jobs ())
  and engine = ref Pmachine.Engine.Vm in
  let rec go = function
    | [] -> ()
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        go rest
    | "--current" :: file :: rest ->
        current := Some file;
        go rest
    | "--tolerance" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some t when t >= 0.0 ->
            tolerance := t;
            go rest
        | _ ->
            Fmt.epr "--tolerance %s: expected a non-negative percentage@." pct;
            usage ())
    | "--jobs" :: n :: rest ->
        jobs := parse_jobs n;
        go rest
    | "--engine" :: e :: rest ->
        engine := parse_engine e;
        go rest
    | [ (("--baseline" | "--current" | "--tolerance" | "--jobs" | "--engine")
        as flag) ] ->
        Fmt.epr "%s requires a value@." flag;
        usage ()
    | arg :: _ ->
        Fmt.epr "unknown argument %S@." arg;
        usage ()
  in
  go args;
  if !baseline = None then begin
    Fmt.epr "check requires --baseline FILE@.";
    usage ()
  end;
  Check
    {
      baseline = !baseline;
      current = !current;
      tolerance = !tolerance;
      jobs = !jobs;
      engine = !engine;
    }

let parse_diff_cli args =
  let rec split positional jobs engine = function
    | [] -> (List.rev positional, jobs, engine)
    | "--jobs" :: n :: rest -> split positional (parse_jobs n) engine rest
    | "--engine" :: e :: rest -> split positional jobs (parse_engine e) rest
    | [ (("--jobs" | "--engine") as flag) ] ->
        Fmt.epr "%s requires a value@." flag;
        usage ()
    | arg :: rest -> split (arg :: positional) jobs engine rest
  in
  match split [] (default_jobs ()) Pmachine.Engine.Vm args with
  | [ baseline ], jobs, engine -> Diff { baseline; current = None; jobs; engine }
  | [ baseline; current ], jobs, engine ->
      Diff { baseline; current = Some current; jobs; engine }
  | _ ->
      Fmt.epr "diff takes one or two run files@.";
      usage ()

let parse_overhead_cli args =
  let kernel = ref "mandelbrot"
  and iters = ref 200
  and engine = ref Pmachine.Engine.Vm in
  let rec go = function
    | [] -> ()
    | "--kernel" :: k :: rest ->
        kernel := k;
        go rest
    | "--iters" :: n :: rest -> (
        match int_of_string_opt n with
        | Some i when i >= 1 ->
            iters := i;
            go rest
        | _ ->
            Fmt.epr "--iters %s: expected a positive integer@." n;
            usage ())
    | "--engine" :: e :: rest ->
        engine := parse_engine e;
        go rest
    | [ (("--kernel" | "--iters" | "--engine") as flag) ] ->
        Fmt.epr "%s requires a value@." flag;
        usage ()
    | arg :: _ ->
        Fmt.epr "unknown argument %S@." arg;
        usage ()
  in
  go args;
  Overhead { kernel = !kernel; iters = !iters; engine = !engine }

let parse_cli () =
  match List.tl (Array.to_list Sys.argv) with
  | "diff" :: rest -> parse_diff_cli rest
  | "check" :: rest -> parse_check_cli rest
  | "overhead" :: rest -> parse_overhead_cli rest
  | "run" :: rest -> Run (parse_run_cli rest)
  | rest -> Run (parse_run_cli rest)

(* Wall-clock accounting per harness section, reported at the end and
   in the JSON output. *)
let timings : (string * float) list ref = ref []

let timed section f =
  let t0 = Unix.gettimeofday () in
  let r = Pobs.Trace.with_span ~cat:"harness" section f in
  timings := !timings @ [ (section, Unix.gettimeofday () -. t0) ];
  r

(* -- the run document (bench --json / history record) --

   The sweeps materialize raw per-(kernel, implementation) cycle tables
   (Figures.raw) and the printed figures are derived from them, so the
   observatory gates on the deterministic absolute cycles behind the
   ratio tables. *)

type sweep = {
  f4_raw : Pharness.Figures.raw list;
  f4 : Pharness.Figures.row list;
  f5_raw : Pharness.Figures.raw list;
  f5 : Pharness.Figures.row list;
  ab : Pharness.Figures.row list;
}

let machine_id () = Pmachine.Cost.model_id Pmachine.Cost.default

(* nan cycles (kernels with no hand implementation) are dropped rather
   than stored as null, so a diff never reports them as vanished *)
let kernels_of_raws f4_raw f5_raw : (string * (string * float) list) list =
  let finite r =
    List.filter (fun (_, c) -> Float.is_finite c) r.Pharness.Figures.rcycles
  in
  List.map (fun (r : Pharness.Figures.raw) -> ("fig4/" ^ r.rkernel, finite r)) f4_raw
  @ List.map
      (fun (r : Pharness.Figures.raw) -> ("fig5/" ^ r.rkernel, finite r))
      f5_raw

let flat_geomeans f4 f5 : (string * float) list =
  List.map (fun (s, g) -> ("figure4." ^ s, g)) (Pharness.Figures.geomeans f4)
  @ List.map (fun (s, g) -> ("figure5." ^ s, g)) (Pharness.Figures.geomeans f5)
  |> List.filter (fun (_, g) -> Float.is_finite g)

let run_figures pool ~engine =
  pr "Parsimony reproduction benchmark harness@.";
  pr "(simulated AVX-512-class machine; see lib/machine/cost.ml)@.";
  pr
    "(execution engine: %s — recorded in the run document; check/diff refuse \
     cross-engine comparisons)@."
    (Pmachine.Engine.kind_to_string engine);

  (* -- Figure 4 -- *)
  let f4_raw =
    timed "figure4" (fun () -> Pharness.Figures.figure4_raw ~pool ~engine ())
  in
  let f4 = Pharness.Figures.figure4_rows f4_raw in
  Pharness.Figures.pp_table Fmt.stdout
    ~title:"Figure 4: ispc benchmarks, speedup over LLVM auto-vectorization"
    ~unit:"speedup factor vs auto-vectorized serial C" f4;
  pr "summary: %s@." (Pharness.Figures.summary_figure4 f4);

  (* -- Figure 5 -- *)
  let f5_raw =
    timed "figure5" (fun () -> Pharness.Figures.figure5_raw ~pool ~engine ())
  in
  let f5 = Pharness.Figures.figure5_rows f5_raw in
  Pharness.Figures.pp_table Fmt.stdout
    ~title:
      "Figure 5: 72 Simd Library benchmarks, speedup over LLVM scalar \
       compilation"
    ~unit:"speedup factor vs scalar (vectorization disabled)" f5;
  pr "summary: %s@." (Pharness.Figures.summary_figure5 f5);

  (* -- code size (paper §6: 7x reduction) -- *)
  let cs = Pharness.Figures.code_size () in
  pr "@.== Code size: Parsimony source vs intrinsics-style implementation ==@.";
  pr "%-36s %12s %12s@." "kernel" "psim LoC" "hand instrs";
  List.iter
    (fun (n, p, h) ->
      match h with
      | Some h -> pr "%-36s %12d %12d@." n p h
      | None -> pr "%-36s %12d %12s@." n p "-")
    cs;
  pr "summary: %s@." (Pharness.Figures.summary_code_size cs);

  (* -- ablations (DESIGN.md design-choice index) -- *)
  let ab =
    timed "ablations" (fun () -> Pharness.Figures.ablations ~pool ~engine ())
  in
  Pharness.Figures.pp_table Fmt.stdout
    ~title:"Ablations: slowdown vs default Parsimony configuration"
    ~unit:"cycle ratio (>1 means the design choice matters)" ab;

  (* -- compile time (paper §4.2.2: online checks are cheap) -- *)
  pr "@.== Compile time ==@.%s@." (Pharness.Figures.compile_time_stats ());
  { f4_raw; f4; f5_raw; f5; ab }

(* Vectorization coverage scorecards, one per kernel (rolled up across
   the kernel's SPMD functions), for every Parsimony-ported kernel of
   both suites. *)
let scorecards pool : (string * Parsimony.Scorecard.t) list =
  let kernels =
    List.map (fun k -> ("fig5/", k)) Psimdlib.Registry.all
    @ List.map (fun k -> ("fig4/", k)) Pispc.Suite.all
  in
  Pparallel.Pool.map pool
    (fun (prefix, (k : Psimdlib.Workload.kernel)) ->
      Pharness.Runner.scorecard k
      |> Option.map (fun c -> (prefix ^ k.kname, c)))
    kernels
  |> List.filter_map Fun.id

(* Per-kernel hot-block digests: the top-N blocks by attributed cycles
   of each kernel's default Parsimony build, captured from a separate
   profiled pass on the sweep engine (the sweep runs themselves stay
   unprofiled, so the gated cycle numbers are untouched).  Stored with
   the run document so a regression diff can fingerprint *where* the
   cycles moved, not only by how much. *)
let hot_block_digests pool ~engine : (string * Pobs.Json.t) list =
  let kernels =
    List.map (fun k -> ("fig4/", k)) Pispc.Suite.all
    @ List.map (fun k -> ("fig5/", k)) Psimdlib.Registry.all
  in
  Pparallel.Pool.map pool
    (fun (prefix, (k : Psimdlib.Workload.kernel)) ->
      let r =
        Pharness.Runner.run ~engine ~profile:true k
          (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
      in
      let open Pobs.Json in
      match r.Pharness.Runner.profile with
      | None -> (prefix ^ k.kname, Arr [])
      | Some p ->
          let total = p.Pmachine.Profile.p_total_cycles in
          let top =
            List.filteri (fun i _ -> i < 3) p.Pmachine.Profile.p_blocks
          in
          ( prefix ^ k.kname,
            Arr
              (List.map
                 (fun (b : Pmachine.Profile.block) ->
                   Obj
                     [
                       ("func", Str b.pb_func);
                       ("block", Str b.pb_block);
                       ("cycles", Float b.pb_cycles);
                       ( "share",
                         Float
                           (if total > 0.0 then b.pb_cycles /. total else 0.0)
                       );
                     ])
                 top) ))
    kernels

(* Per-(pass, kind) optimization-remark tallies collected in
   [Pobs.Remarks.Counts] mode during the figure sweeps; keys like
   "parsimony.passed".  Already sorted deterministically. *)
let remark_counts_json () =
  let open Pobs.Json in
  Obj
    (List.map
       (fun (pass, kind, n) ->
         (pass ^ "." ^ Pobs.Remarks.kind_name kind, Int n))
       (Pobs.Remarks.counts ()))

(* Aggregate recorded spans by name: count and total inclusive time.
   Only meaningful under --trace (empty object otherwise). *)
let spans_json () =
  let open Pobs.Json in
  let tally = Hashtbl.create 32 in
  List.iter
    (function
      | Pobs.Trace.Span s ->
          let c, t =
            Option.value ~default:(0, 0) (Hashtbl.find_opt tally s.name)
          in
          Hashtbl.replace tally s.name (c + 1, t + s.dur_us)
      | Pobs.Trace.Instant _ | Pobs.Trace.Counter _ -> ())
    (Pobs.Trace.events ());
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tally []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  |> List.map (fun (name, c, t) ->
         (name, Obj [ ("count", Int c); ("total_us", Int t) ]))
  |> fun fields -> Obj fields

(** The complete run document: everything the regression observatory
    needs to compare two runs, plus the figure rows and harness
    diagnostics.  [bench --json] writes it pretty-printed; [--history]
    appends it as one compact JSONL line. *)
let run_doc (sw : sweep) ~cards ~hot ~engine jobs : Pobs.Json.t =
  let open Pobs.Json in
  let hits, misses = Pharness.Runner.Compile_cache.stats () in
  Obj
    [
      ("schema", Int Pharness.History.schema_version);
      ("machine", Str (machine_id ()));
      ("engine", Str (Pmachine.Engine.kind_to_string engine));
      ("env", Pharness.History.env_json ());
      ("jobs", Int jobs);
      ( "kernels",
        Obj
          (List.map
             (fun (k, series) ->
               (k, Obj (List.map (fun (i, c) -> (i, Float c)) series)))
             (kernels_of_raws sw.f4_raw sw.f5_raw)) );
      ( "geomeans",
        Obj (List.map (fun (k, g) -> (k, Float g)) (flat_geomeans sw.f4 sw.f5))
      );
      ( "scorecards",
        Obj
          (List.map
             (fun (name, c) -> (name, Parsimony.Scorecard.to_json c))
             cards) );
      ("hot_blocks", Obj hot);
      ("figure4", Pharness.Figures.to_json sw.f4);
      ("figure5", Pharness.Figures.to_json sw.f5);
      ("ablations", Pharness.Figures.to_json sw.ab);
      ("timings_s", Obj (List.map (fun (s, dt) -> (s, Float dt)) !timings));
      ("compile_cache", Obj [ ("hits", Int hits); ("misses", Int misses) ]);
      ("remark_counts", remark_counts_json ());
      ("spans", spans_json ());
      ("metrics", Pobs.Metrics.snapshot ());
    ]

(* -- diff / check subcommands -- *)

let load_run file : Pharness.History.run =
  try Pharness.History.latest file with
  | Sys_error msg ->
      Fmt.epr "%s@." msg;
      exit 2
  | Pobs.Json.Parse_error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2
  | Pharness.History.Incompatible msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2

(** Re-run the figure sweeps (quietly: no tables) to produce the current
    run record when no --current file is given. *)
let current_run ~jobs ~engine : Pharness.History.run =
  Fmt.epr "running current figure sweep (--jobs %d, engine %s)...@." jobs
    (Pmachine.Engine.kind_to_string engine);
  Pparallel.Pool.with_pool jobs (fun pool ->
      let f4_raw = Pharness.Figures.figure4_raw ~pool ~engine () in
      let f5_raw = Pharness.Figures.figure5_raw ~pool ~engine () in
      let f4 = Pharness.Figures.figure4_rows f4_raw in
      let f5 = Pharness.Figures.figure5_rows f5_raw in
      Pharness.History.make ~machine:(machine_id ())
        ~engine:(Pmachine.Engine.kind_to_string engine)
        ~jobs
        ~geomeans:(flat_geomeans f4 f5)
        (kernels_of_raws f4_raw f5_raw))

let resolve_current ~jobs ~engine = function
  | Some file -> load_run file
  | None -> current_run ~jobs ~engine

(* One-line pointer printed under an exit-2 refusal: which engine the
   baseline was recorded on, and what to pass to make the runs
   comparable. *)
let engine_hint (base : Pharness.History.run) (cur : Pharness.History.run) =
  if not (String.equal base.Pharness.History.engine cur.Pharness.History.engine)
  then
    Fmt.epr
      "note: the baseline was recorded on engine %S (current run: %S) — \
       re-run with --engine %s, or regenerate the baseline on %S@."
      base.Pharness.History.engine cur.Pharness.History.engine
      base.Pharness.History.engine cur.Pharness.History.engine

(* Fingerprint of the worst regression: where the current run spends
   its cycles, from the run document's hot_blocks digests (present when
   the current run came from a bench --json file; sweeps synthesized on
   the fly carry none). *)
let pp_hot_fingerprint (cur : Pharness.History.run) (d : Pharness.History.delta)
    =
  let open Pobs.Json in
  match member "hot_blocks" cur.Pharness.History.doc with
  | Some (Obj kernels) -> (
      match List.assoc_opt d.Pharness.History.d_kernel kernels with
      | Some (Arr (_ :: _ as rows)) ->
          Fmt.pr "hot blocks of %s (current run):@."
            d.Pharness.History.d_kernel;
          List.iter
            (fun row ->
              match
                ( member "func" row,
                  member "block" row,
                  member "cycles" row,
                  member "share" row )
              with
              | Some (Str f), Some (Str b), Some (Float c), Some (Float s) ->
                  Fmt.pr "  %s/%s  %.1f cycles (%.1f%%)@." f b c (s *. 100.0)
              | _ -> ())
            rows
      | _ -> ())
  | _ -> ()

let cmd_diff ~baseline ~current ~jobs ~engine =
  let base = load_run baseline in
  let cur = resolve_current ~jobs ~engine current in
  match Pharness.History.pp_diff Fmt.stdout base cur with
  | () ->
      (match
         List.filter
           (fun (d : Pharness.History.delta) -> d.d_ratio > 1.0)
           (Pharness.History.diff base cur)
       with
      | worst :: _ -> pp_hot_fingerprint cur worst
      | [] -> ());
      exit 0
  | exception Pharness.History.Incompatible msg ->
      Fmt.epr "%s@." msg;
      engine_hint base cur;
      exit 2

let cmd_check ~baseline ~current ~tolerance ~jobs ~engine =
  let base = load_run (Option.get baseline) in
  let cur = resolve_current ~jobs ~engine current in
  match Pharness.History.check ~tolerance_pct:tolerance base cur with
  | v ->
      Pharness.History.pp_verdict Fmt.stdout v;
      exit (Pharness.History.gate v)
  | exception Pharness.History.Incompatible msg ->
      Fmt.epr "%s@." msg;
      engine_hint base cur;
      exit 2

(* -- profiling-overhead measurement (EXPERIMENTS.md) --

   Pure execution cost of attribution: the kernel's default Parsimony
   build is compiled once, one engine instance is created per mode
   (bytecode compiled once, register frames pooled), and the entry
   point is executed --iters times with attribution off, then on.
   Wall clock only — the simulated cycle totals are identical in both
   modes by construction (the bench check gate pins that). *)
let cmd_overhead ~kernel ~iters ~engine =
  let all = Psimdlib.Registry.all @ Pispc.Suite.all in
  let k =
    match
      List.find_opt (fun (k : Psimdlib.Workload.kernel) -> k.kname = kernel) all
    with
    | Some k -> k
    | None ->
        Fmt.epr "unknown kernel %S (pick one from the fig4/fig5 suites)@."
          kernel;
        exit 2
  in
  let time profile =
    let m =
      Pharness.Runner.build_module k
        (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
    in
    let t = Pmachine.Engine.create ~kind:engine ~profile ~fuel:max_int m in
    let mem = Pmachine.Engine.mem t in
    let addrs =
      List.map
        (fun (b : Psimdlib.Workload.buffer) ->
          let esz = Pir.Types.scalar_bytes b.elem in
          let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
          for i = 0 to b.len - 1 do
            Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
          done;
          addr)
        k.buffers
    in
    let args =
      List.map (fun a -> Pmachine.Value.I (Int64.of_int a)) addrs @ k.scalars
    in
    (* warm-up: builds bytecode / block caches and the frame pool *)
    ignore (Pmachine.Engine.run t k.kname args);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Pmachine.Engine.run t k.kname args)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let off = time false in
  let on_ = time true in
  pr "profiling overhead: %s, engine %s, %d iterations@." k.kname
    (Pmachine.Engine.kind_to_string engine)
    iters;
  pr "attribution off: %10.1f us/run@." (off *. 1e6);
  pr "attribution on:  %10.1f us/run (%+.1f%%)@." (on_ *. 1e6)
    ((on_ /. off -. 1.0) *. 100.0)

let cmd_run (cli : cli) =
  Pobs.Logging.setup ();
  Option.iter (fun _ -> Pobs.Trace.enable ()) cli.trace;
  (* Tally remarks (cheap Counts mode) and metrics only when a report
     will consume them; the default path stays instrumentation-free. *)
  let wants_doc = cli.json <> None || cli.history <> None in
  if wants_doc then begin
    Pobs.Remarks.set_mode Pobs.Remarks.Counts;
    Pobs.Metrics.enable ()
  end;
  let sw, cards, hot =
    Pparallel.Pool.with_pool cli.jobs (fun pool ->
        let sw =
          timed "figures_total" (fun () -> run_figures pool ~engine:cli.engine)
        in
        let cards =
          if wants_doc then timed "scorecards" (fun () -> scorecards pool)
          else []
        in
        let hot =
          if wants_doc then
            timed "hot_blocks" (fun () ->
                hot_block_digests pool ~engine:cli.engine)
          else []
        in
        (sw, cards, hot))
  in
  pr "@.== Harness timings (wall clock, --jobs %d) ==@." cli.jobs;
  List.iter (fun (s, dt) -> pr "%-36s %9.3fs@." s dt) !timings;
  if wants_doc then begin
    let doc = run_doc sw ~cards ~hot ~engine:cli.engine cli.jobs in
    Option.iter
      (fun file ->
        Pobs.Json.write file doc;
        pr "wrote %s@." file)
      cli.json;
    Option.iter
      (fun file ->
        Pharness.History.append file doc;
        pr "appended run to %s@." file)
      cli.history
  end;
  Option.iter
    (fun file ->
      Pobs.Trace.write_chrome file;
      pr "wrote trace to %s@." file)
    cli.trace;
  pr "@.done.@."

let () =
  match parse_cli () with
  | Run cli -> cmd_run cli
  | Diff { baseline; current; jobs; engine } ->
      cmd_diff ~baseline ~current ~jobs ~engine
  | Check { baseline; current; tolerance; jobs; engine } ->
      cmd_check ~baseline ~current ~tolerance ~jobs ~engine
  | Overhead { kernel; iters; engine } -> cmd_overhead ~kernel ~iters ~engine
