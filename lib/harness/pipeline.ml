(** The standard compilation pipeline, shared by [psimc], the serve
    daemon and the harness: frontend → SSA check → the strategy's
    vectorizing pass → SSA check → simplify → (optionally) legalize.

    It also owns what a strategy means: which pass vectorizes, which
    source a built-in kernel compiles from, and which scorecards a
    compile reports.  It adds the observability hooks: every stage already runs under a
    [Pobs.Trace] span inside its own library, the whole pipeline runs
    under a "pipeline" span here, and [dump_ir] writes an IR snapshot
    after each stage ([--print-after-all] style) as
    [NN-<module>-<stage>.pir] in the given directory. *)

type config = {
  vectorize : bool;
  simplify : bool;
  legalize : bool;
  opts : Parsimony.Options.t;
  dump_ir : string option;  (** directory for per-stage IR snapshots *)
  stage_hook : (string -> int -> unit) option;
      (** [hook stage dur_us] after each stage — per-request stage
          timing for the serve daemon, cheaper and always-on compared
          to enabling the global tracer *)
}

let default =
  {
    vectorize = true;
    simplify = true;
    legalize = false;
    opts = Parsimony.Options.default;
    dump_ir = None;
    stage_hook = None;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* snapshots are ordered by a process-wide ordinal so an interleaved
   multi-module compile still dumps in pass order; named by module so
   files from different kernels do not collide *)
let dump_ordinal = Atomic.make 0

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    name

let dump_after cfg (m : Pir.Func.modul) stage =
  match cfg.dump_ir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let n = Atomic.fetch_and_add dump_ordinal 1 in
      let file =
        Filename.concat dir
          (Fmt.str "%03d-%s-%s.pir" n (sanitize m.Pir.Func.mname) stage)
      in
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Pir.Printer.module_to_string m))

(* [Trace.now_us] doubles as the stage clock: monotonic and usable even
   when tracing is disabled *)
let stage cfg name f =
  match cfg.stage_hook with
  | None -> f ()
  | Some hook ->
      let t0 = Pobs.Trace.now_us () in
      let r = f () in
      hook name (Pobs.Trace.now_us () - t0);
      r

(** What the vectorizing pass reported: the Parsimony vectorizer's or
    the SLP packer's per-function reports, by strategy. *)
type reports =
  | Spmd of Parsimony.Vectorizer.report list
  | Slp of Parsimony.Slp.report list

(** Run the vectorizing pass [opts]' strategy picks on [m], in place:
    the Parsimony SPMD widener, or SLP packing over straight-line
    regions (SPMD functions keep their gang marker and stay per-thread;
    only intra-thread statement groups pack). *)
let vectorize (opts : Parsimony.Options.t) m : reports =
  match opts.strategy with
  | Parsimony.Options.Parsimony -> Spmd (Parsimony.Vectorizer.run_module ~opts m)
  | Parsimony.Options.SlpOptimal -> Slp (Parsimony.Slp.run_module m)

(** Compile [src] through the configured pipeline.  Returns the final
    module and the vectorizing pass's reports ([Spmd []] when
    [vectorize] is off). *)
let compile_reports ?(cfg = default) ~name src : Pir.Func.modul * reports =
  Pobs.Trace.with_span ~cat:"pipeline" ~args:[ ("module", name) ] "pipeline"
    (fun () ->
      let m = stage cfg "frontend" (fun () -> Pfrontend.Lower.compile ~name src) in
      dump_after cfg m "frontend";
      stage cfg "check" (fun () -> Panalysis.Check.check_module m);
      let reports =
        if cfg.vectorize then begin
          let reports = stage cfg "vectorize" (fun () -> vectorize cfg.opts m) in
          dump_after cfg m "vectorize";
          stage cfg "recheck" (fun () -> Panalysis.Check.check_module m);
          reports
        end
        else Spmd []
      in
      if cfg.simplify then begin
        stage cfg "simplify" (fun () -> Parsimony.Simplify.run_module m);
        dump_after cfg m "simplify"
      end;
      if cfg.legalize then begin
        stage cfg "legalize" (fun () -> Pbackend.Legalize.legalize_module m);
        dump_after cfg m "legalize"
      end;
      (m, reports))

(** [compile_reports] keeping only the Parsimony vectorizer's reports
    (empty under SLP). *)
let compile ?cfg ~name src : Pir.Func.modul * Parsimony.Vectorizer.report list =
  match compile_reports ?cfg ~name src with
  | m, Spmd reports -> (m, reports)
  | m, Slp _ -> (m, [])

(** Compile [src] and return the coverage scorecard of every function
    the strategy's pass vectorized. *)
let scorecards ?cfg ~name src : Pir.Func.modul * Parsimony.Scorecard.t list =
  match compile_reports ?cfg ~name src with
  | m, Spmd reports -> (m, Parsimony.Scorecard.of_module ~reports m)
  | m, Slp reports -> (m, Parsimony.Scorecard.of_module_slp ~reports m)

(** The source a built-in kernel (Figure 5's Simd Library or Figure 4's
    ispc suite) compiles from under [opts]' strategy: its PsimC variant
    for Parsimony, its serial variant for SLP, which packs standard
    scalar code (restrict qualifiers included). *)
let kernel_source (opts : Parsimony.Options.t) name : string option =
  List.find_opt
    (fun (k : Psimdlib.Workload.kernel) -> k.kname = name)
    (Psimdlib.Registry.all @ Pispc.Suite.all)
  |> Option.map (fun (k : Psimdlib.Workload.kernel) ->
         match opts.strategy with
         | Parsimony.Options.Parsimony -> k.psim_src
         | Parsimony.Options.SlpOptimal -> k.serial_src)

(** Run the SPMD sanitizer (psan) over [src]: the scalar lowering gets
    the dataflow checks (cross-lane races, out-of-bounds accesses,
    uninitialized reads, dead stores), then the vectorized module gets
    the vector-access lint (static out-of-bounds packed/gather
    accesses).  Findings come back deduplicated in deterministic
    (function, block, instruction) order; also emitted as "psan"
    analysis remarks when a remark mode is active. *)
let lint ?(opts = Parsimony.Options.default) ~name src : Psan.finding list =
  Pobs.Trace.with_span ~cat:"pipeline" ~args:[ ("module", name) ] "lint"
    (fun () ->
      let m = Pfrontend.Lower.compile ~name src in
      Panalysis.Check.check_module m;
      let scalar = Psan.run_module m in
      let vectored =
        (* vectorization can legitimately fail on lint-only sources;
           the scalar findings stand on their own *)
        match Parsimony.Vectorizer.run_module ~opts m with
        | exception Parsimony.Vectorizer.Unvectorizable _ -> []
        | _ ->
            Parsimony.Simplify.run_module m;
            Psan.run_module m
      in
      let findings = Psan.sort_findings (scalar @ vectored) in
      Psan.emit_remarks findings;
      findings)
