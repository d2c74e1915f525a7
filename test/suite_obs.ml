(* Tests for the observability layer (lib/obs): span nesting and
   timing monotonicity, Chrome trace export round-tripping through our
   own JSON parser, the remark stream for a known strided kernel, the
   interpreter profiler against the global stats counters, and the
   parallel figure sweep staying byte-identical with tracing on. *)

open Psimdlib

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Tracing state is global; restore it after each test so the rest of
   the suite runs untraced. *)
let with_tracing f =
  Pobs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Pobs.Trace.disable ();
      Pobs.Trace.clear ())
    f

(* -- spans -- *)

(* (ts_us, dur_us) of the first span with this name *)
let find_span name evs =
  List.find_map
    (function
      | Pobs.Trace.Span { name = n; ts_us; dur_us; _ } when n = name ->
          Some (ts_us, dur_us)
      | _ -> None)
    evs

let test_span_nesting_and_monotonicity () =
  with_tracing (fun () ->
      let t0 = Pobs.Trace.now_us () in
      Pobs.Trace.with_span "outer" (fun () ->
          Pobs.Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 42)));
      let t1 = Pobs.Trace.now_us () in
      Alcotest.(check bool) "clock is monotone" true (t1 >= t0);
      let evs = Pobs.Trace.events () in
      let outer_ts, outer_dur = Option.get (find_span "outer" evs) in
      let inner_ts, inner_dur = Option.get (find_span "inner" evs) in
      Alcotest.(check bool) "durations non-negative" true
        (outer_dur >= 0 && inner_dur >= 0);
      (* the inner span's interval is contained in the outer's *)
      Alcotest.(check bool) "inner starts after outer" true
        (inner_ts >= outer_ts);
      Alcotest.(check bool) "inner ends before outer" true
        (inner_ts + inner_dur <= outer_ts + outer_dur);
      Alcotest.(check bool) "outer covers inner's duration" true
        (outer_dur >= inner_dur))

let test_span_recorded_on_raise () =
  with_tracing (fun () ->
      (try
         Pobs.Trace.with_span "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "span survives the raise" true
        (find_span "failing" (Pobs.Trace.events ()) <> None))

let test_summary_aggregates_nesting () =
  with_tracing (fun () ->
      for _ = 1 to 3 do
        Pobs.Trace.with_span "parent" (fun () ->
            Pobs.Trace.with_span "child" (fun () -> ignore (Sys.opaque_identity 0)))
      done;
      let summary = Fmt.str "%a" Pobs.Trace.pp_summary () in
      Alcotest.(check bool) "parent aggregated 3x" true
        (contains summary "parent" && contains summary "3x");
      Alcotest.(check bool) "child listed under parent" true
        (contains summary "child"))

(* -- Chrome trace export -- *)

let test_trace_json_roundtrip () =
  with_tracing (fun () ->
      Pobs.Trace.with_span ~cat:"test" ~args:[ ("k", "v") ] "work" (fun () ->
          Pobs.Trace.instant "tick";
          Pobs.Trace.counter "items" 7);
      let file = Filename.temp_file "obs_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Pobs.Trace.write_chrome file;
          let j = Pobs.Json.parse_file file in
          let evs =
            match Option.bind (Pobs.Json.member "traceEvents" j) Pobs.Json.to_list with
            | Some evs -> evs
            | None -> Alcotest.fail "traceEvents is not an array"
          in
          (* process_name metadata + span + instant + counter *)
          Alcotest.(check int) "event count" 4 (List.length evs);
          let phases =
            List.map
              (fun e ->
                match Pobs.Json.member "ph" e with
                | Some (Pobs.Json.Str s) -> s
                | _ -> Alcotest.fail "ph is not a string")
              evs
            |> List.sort compare
          in
          Alcotest.(check (list string))
            "one of each phase" [ "C"; "M"; "X"; "i" ] phases;
          (* every non-metadata event carries ts/pid/tid *)
          List.iter
            (fun e ->
              match Pobs.Json.member "ph" e with
              | Some (Pobs.Json.Str "M") -> ()
              | _ ->
                  List.iter
                    (fun key ->
                      match Pobs.Json.member key e with
                      | Some (Pobs.Json.Int _) -> ()
                      | _ -> Alcotest.failf "%s is not an integer" key)
                    [ "ts"; "pid"; "tid" ])
            evs))

(* -- optimization remarks -- *)

(* examples/strided.psim inlined: thread i reads elements 2i and 2i+1,
   the paper's packed+shuffle case. *)
let pairsum_src =
  {|
void pairsum(int32* src, int32* dst, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    dst[i] = src[2 * i] + src[2 * i + 1];
  }
}
|}

let test_strided_kernel_remarks () =
  let (_ : Pir.Func.modul * _), remarks =
    Pobs.Remarks.collect Pobs.Remarks.Full (fun () ->
        Pharness.Pipeline.compile ~name:"pairsum" pairsum_src)
  in
  (* main gang body only; the masked tail legitimately gathers *)
  let main =
    List.filter
      (fun (r : Pobs.Remarks.t) ->
        r.func = "pairsum__psim1" && r.pass = "parsimony")
      remarks
  in
  let shuffles =
    List.filter
      (fun (r : Pobs.Remarks.t) ->
        r.kind = Pobs.Remarks.Passed
        && contains r.msg "packed loads + shuffle")
      main
  in
  (* exactly the two strided loads, classified packed+shuffle *)
  Alcotest.(check int) "two packed+shuffle loads" 2 (List.length shuffles);
  let packed_stores =
    List.filter
      (fun (r : Pobs.Remarks.t) ->
        r.kind = Pobs.Remarks.Passed
        && contains r.msg "packed vector store")
      main
  in
  Alcotest.(check int) "one packed store" 1 (List.length packed_stores);
  Alcotest.(check bool) "no gather in the main body" false
    (List.exists (fun (r : Pobs.Remarks.t) -> contains r.msg "gather") main);
  (* off by default again, and emit with Off formats nothing *)
  Alcotest.(check bool) "mode restored" false (Pobs.Remarks.active ())

let test_remark_counts_deterministic () =
  let (_ : unit * Pobs.Remarks.t list) =
    Pobs.Remarks.collect Pobs.Remarks.Counts (fun () ->
        ignore (Pharness.Pipeline.compile ~name:"pairsum" pairsum_src))
  in
  (* collect drains the buffer but counts survive until [clear] *)
  let cs = Pobs.Remarks.counts () in
  Alcotest.(check bool) "some remarks tallied" true (cs <> []);
  let passes = List.map (fun (p, _, _) -> p) cs in
  Alcotest.(check (list string))
    "sorted by pass name" (List.sort compare passes) passes;
  Pobs.Remarks.clear ()

(* -- interpreter profiler -- *)

let test_profiler_matches_stats () =
  let k =
    List.find
      (fun (k : Workload.kernel) -> k.kname = "gaussian_blur_3x3")
      Registry.all
  in
  let m =
    Pharness.Runner.build_module k
      (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
  in
  let t = Pmachine.Interp.create ~profile:true m in
  let mem = Pmachine.Interp.mem t in
  let addrs =
    List.map
      (fun (b : Workload.buffer) ->
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
  ignore (Pmachine.Interp.run t k.kname args);
  let report = (Pmachine.Interp.capture t).p_blocks in
  Alcotest.(check bool) "report non-empty" true (report <> []);
  let instrs =
    List.fold_left
      (fun acc (r : Pmachine.Profile.block) -> acc + r.pb_instrs)
      0 report
  in
  let cycles =
    List.fold_left
      (fun acc (r : Pmachine.Profile.block) -> acc +. r.pb_cycles)
      0.0 report
  in
  let stats = Pmachine.Interp.stats t in
  (* instruction attribution is exact *)
  Alcotest.(check int) "per-block instrs sum to stats" stats.instrs instrs;
  (* cycle attribution agrees up to float summation order *)
  let rel = Float.abs (cycles -. stats.cycles) /. Float.max 1.0 stats.cycles in
  if rel > 1e-9 then
    Alcotest.failf "per-block cycles %f vs stats %f (rel err %g)" cycles
      stats.cycles rel;
  (* the report renders, and reset really zeroes it *)
  let rendered =
    Fmt.str "%a" (Pmachine.Profile.pp ~limit:5) (Pmachine.Interp.capture t)
  in
  Alcotest.(check bool) "report renders hot blocks" true
    (contains rendered k.kname);
  Pmachine.Interp.reset_profile t;
  Alcotest.(check (list string)) "reset clears the report" []
    (List.map
       (fun (r : Pmachine.Profile.block) -> r.pb_block)
       (Pmachine.Interp.capture t).p_blocks)

(* -- tracing does not perturb the benchmark tables -- *)

let table_string rows =
  Fmt.str "%a" (fun ppf -> Pharness.Figures.pp_table ppf ~title:"t" ~unit:"u") rows

let kernel_subset () = List.filteri (fun i _ -> i mod 9 = 0) Registry.all

let test_figure5_byte_identical_under_tracing () =
  let kernels = kernel_subset () in
  let baseline = table_string (Pharness.Figures.figure5 ~kernels ()) in
  let traced =
    with_tracing (fun () ->
        let t, (_ : Pobs.Remarks.t list) =
          Pobs.Remarks.collect Pobs.Remarks.Counts (fun () ->
              let rows =
                Pparallel.Pool.with_pool 4 (fun pool ->
                    Pharness.Figures.figure5 ~pool ~kernels ())
              in
              ignore (table_string rows);
              table_string rows)
        in
        t)
  in
  Alcotest.(check string)
    "figure5 table identical with tracing + remark counts on" baseline traced

(* Four pool domains log 20,000 warnings at once through the reporter
   [Logging.setup] installs: no call may raise, and stderr must hold
   every message exactly once, each as one intact line. *)
let test_logging_domain_safe () =
  let n = 20_000 in
  let src = Logs.Src.create "test.hammer" in
  let file = Filename.temp_file "log-hammer" ".txt" in
  let reporter = Logs.reporter () and level = Logs.level () in
  (* plain headers, whatever styling the test runner turned on *)
  let style = Fmt.style_renderer Fmt.stderr in
  Fmt.set_style_renderer Fmt.stderr `None;
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let raised =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved;
        Logs.set_reporter reporter;
        Logs.set_level level;
        Fmt.set_style_renderer Fmt.stderr style)
      (fun () ->
        Pobs.Logging.setup ~level:(Some Logs.Warning) ();
        Pparallel.Pool.with_pool 4 (fun p ->
            Pparallel.Pool.map p
              (fun i ->
                match Logs.warn ~src (fun m -> m "hammer %d" i) with
                | () -> 0
                | exception _ -> 1)
              (List.init n Fun.id))
        |> List.fold_left ( + ) 0)
  in
  let lines = In_channel.with_open_bin file In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove file;
  Alcotest.(check int) "no log call raised" 0 raised;
  let expected =
    let exe = Filename.basename Sys.argv.(0) in
    List.init n (fun i -> Fmt.str "%s: [WARNING] hammer %d" exe i)
  in
  Alcotest.(check (list string)) "every message once, as one intact line"
    (List.sort compare ("" :: expected))
    (List.sort compare lines)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and monotonic timing" `Quick
          test_span_nesting_and_monotonicity;
        Alcotest.test_case "span recorded on raise" `Quick
          test_span_recorded_on_raise;
        Alcotest.test_case "summary aggregates nesting" `Quick
          test_summary_aggregates_nesting;
        Alcotest.test_case "chrome trace JSON round-trips" `Quick
          test_trace_json_roundtrip;
        Alcotest.test_case "strided kernel packed+shuffle remarks" `Quick
          test_strided_kernel_remarks;
        Alcotest.test_case "remark counts deterministic" `Quick
          test_remark_counts_deterministic;
        Alcotest.test_case "profiler totals match stats" `Quick
          test_profiler_matches_stats;
        Alcotest.test_case "figure5 byte-identical under tracing" `Slow
          test_figure5_byte_identical_under_tracing;
        Alcotest.test_case "logging is domain-safe" `Quick test_logging_domain_safe;
      ] );
  ]
