(** Measurement state shared by the workloads: op samples, host probes,
    allocation counts, output-check tallies, benchmark-side layer spans,
    and the metric list a run prints. *)

(* -- growable int buffers (growth happens outside timed windows) -- *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let get b i = b.a.(i)
  let length b = b.n
end

(* -- host probes and normalisation -- *)

let probe_interval_ns = 50_000_000

(* setup samples are spread over the timed phase, one per this much
   wall time, so their median sees the host phases the ops see *)
let setup_interval_ns = 500_000_000

type probes = {
  p_mid : Ibuf.t;  (** probe midpoints *)
  p_dur : Ibuf.t;
  mutable p_last : int;  (** end of the last probe *)
  ref_ns : int;  (** reference probe time, from spec.json *)
  elasticity : float;  (** from spec.json *)
  mutable setup_sample : unit -> unit;  (** takes one setup_s sample *)
  mutable setup_last : int;  (** end of the last setup sample *)
  mutable setup_ns : int;  (** wall time spent in setup samples *)
}

let probes ~ref_ns ~elasticity =
  {
    p_mid = Ibuf.create ();
    p_dur = Ibuf.create ();
    p_last = 0;
    ref_ns;
    elasticity;
    setup_sample = ignore;
    setup_last = 0;
    setup_ns = 0;
  }

let probe p =
  let t = Clock.now () in
  let d = Probe.run () in
  Ibuf.push p.p_mid (t + (d / 2));
  Ibuf.push p.p_dur d;
  p.p_last <- Clock.now ()

(** Between ops, with no request outstanding: probe when at least
    [probe_interval_ns] of work ran since the last probe, and, unless
    [~setup:false], take a setup sample every [setup_interval_ns]. *)
let idle ?(setup = true) p =
  if Clock.now () - p.p_last >= probe_interval_ns then probe p;
  let t = Clock.now () in
  if setup && t - p.setup_last >= setup_interval_ns then begin
    p.setup_sample ();
    p.setup_last <- Clock.now ();
    p.setup_ns <- p.setup_ns + (p.setup_last - t)
  end

(** Host slowness from one probe time: (probe / reference) raised to the
    elasticity, > 1 on a slow phase.  Work on this host slows about as
    the square of the probe: the elasticity is the measured slope of log
    op time on log probe time (spec.json, "host_noise"). *)
let slowness p dur = (float_of_int dur /. float_of_int p.ref_ns) ** p.elasticity

(** Host slowness at time [t], from the probe nearest to [t]. *)
let factor p t =
  let n = Ibuf.length p.p_mid in
  if n = 0 then invalid_arg "Meter.factor: no probes";
  (* first probe at or after [t] *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Ibuf.get p.p_mid mid < t then lo := mid + 1 else hi := mid
  done;
  let i =
    if !lo = n then n - 1
    else if !lo = 0 then 0
    else if t - Ibuf.get p.p_mid (!lo - 1) <= Ibuf.get p.p_mid !lo - t then
      !lo - 1
    else !lo
  in
  slowness p (Ibuf.get p.p_dur i)

(** A duration in ns that ended at [t_end], at reference host speed. *)
let norm p ~t_end dur = float_of_int dur /. factor p (t_end - (dur / 2))

(* -- statistics -- *)

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank quantile of a sorted array; [q] in [0, 1]. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (sorted_floats xs) 0.5

(* -- op samples -- *)

(* A failed op's time counts as timed work, but the op does not count
   as completed, and in the latency quantiles it counts as infinitely
   slow: it misses every latency limit. *)
type samples = {
  s_end : Ibuf.t;  (** op end times *)
  s_dur : Ibuf.t;  (** op wall times *)
  s_ok : Ibuf.t;  (** 1 if the op completed, 0 if it failed *)
}

let samples () = { s_end = Ibuf.create (); s_dur = Ibuf.create (); s_ok = Ibuf.create () }

let record ?(ok = true) s ~t_end dur =
  Ibuf.push s.s_end t_end;
  Ibuf.push s.s_dur dur;
  Ibuf.push s.s_ok (Bool.to_int ok)

let completed s =
  let n = ref 0 in
  for i = 0 to Ibuf.length s.s_ok - 1 do
    n := !n + Ibuf.get s.s_ok i
  done;
  !n

(* [f i] for each op [i]; infinity for a failed one *)
let per_op s f =
  List.init (Ibuf.length s.s_ok) (fun i -> if Ibuf.get s.s_ok i = 1 then f i else infinity)

(** Normalised op latencies, in ms. *)
let latencies_ms p s =
  per_op s (fun i -> norm p ~t_end:(Ibuf.get s.s_end i) (Ibuf.get s.s_dur i) /. 1e6)

(** Bytes the OCaml runtime allocated so far in this domain (minor +
    major - promoted words, times 8).  [Gc.counters] is exact and its
    own result tuple is a constant per call. *)
let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. 8.0

(* -- output checks -- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;  (** any makes the run incorrect *)
  errors : (string, int) Hashtbl.t;  (** failure text -> count *)
}

let tally () = { attempted = 0; failed = 0; errors = Hashtbl.create 8 }

(** Count a failed op: a wrong output, an exception, a lost verdict. *)
let fail t msg =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.errors msg
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors msg))

(* -- benchmark-side layer spans (traced passes only) -- *)

(** A span wraps one call into a layer's public function.  Self time
    and self allocation are the span's minus those of the spans nested
    in it. *)
module Span = struct
  type acc = {
    mutable self_ns : int;
    mutable calls : int;
    mutable self_bytes : float;
  }

  let table : (string, acc) Hashtbl.t = Hashtbl.create 32

  (* (child ns, child bytes) of each open span *)
  let stack : (int ref * float ref) list ref = ref []

  let acc name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { self_ns = 0; calls = 0; self_bytes = 0.0 } in
        Hashtbl.replace table name a;
        a

  let close name ~t0 ~b0 (child_ns, child_b) =
    let dur = Clock.now () - t0 in
    let bytes = allocated_bytes () -. b0 in
    stack := List.tl !stack;
    let a = acc name in
    a.self_ns <- a.self_ns + dur - !child_ns;
    a.self_bytes <- a.self_bytes +. bytes -. !child_b;
    a.calls <- a.calls + 1;
    match !stack with
    | (pn, pb) :: _ ->
        pn := !pn + dur;
        pb := !pb +. bytes
    | [] -> ()

  let span name f =
    let frame = (ref 0, ref 0.0) in
    stack := frame :: !stack;
    let b0 = allocated_bytes () in
    let t0 = Clock.now () in
    match f () with
    | r ->
        close name ~t0 ~b0 frame;
        r
    | exception e ->
        close name ~t0 ~b0 frame;
        raise e

  let get name = Hashtbl.find_opt table name
  let ms name = match get name with Some a -> Clock.ms a.self_ns | None -> 0.0
  let calls name = match get name with Some a -> a.calls | None -> 0

  let mb name =
    match get name with Some a -> a.self_bytes /. 1e6 | None -> 0.0
end

(* -- run context and result -- *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  ref_probe_ns : int;
  tail_pct : float;  (** fixed per workload in spec.json *)
  wspec : Pobs.Json.t;  (** the workload's entry in spec.json *)
  psimc : string;  (** the psimc executable, for the serve daemon *)
  workdir : string;  (** scratch space inside the checkout *)
}

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type result = {
  tally : tally;
  e2e : metric list;  (** every end-to-end metric but setup_s *)
  extras : metric list;  (** per-layer metrics the spans do not give *)
  traced_ops : int;
  notes : string list;  (** extra report lines *)
}

(** Seeded Fisher-Yates shuffle: the pass order of a workload. *)
let shuffle ~seed a =
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** Run [pass i] for whole passes until [seconds] of wall time, not
    counting setup samples, have gone by, and at least [min_passes]
    passes ran.  Ops are never cut off mid-pass: a time box would
    change the op mix of heavy-tailed workloads. *)
let run_passes p ~seconds ~min_passes pass =
  let t_end = Clock.now () + int_of_float (seconds *. 1e9) in
  let rec go i =
    pass i;
    if i + 1 < min_passes || Clock.now () - p.setup_ns < t_end then go (i + 1) else i + 1
  in
  go 0

(** [VmHWM] of process [pid] in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Fmt.str "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(** Sum of normalised op times in seconds, failed ops included. *)
let busy_s p s =
  let t = ref 0.0 in
  for i = 0 to Ibuf.length s.s_dur - 1 do
    t := !t +. norm p ~t_end:(Ibuf.get s.s_end i) (Ibuf.get s.s_dur i)
  done;
  !t /. 1e9

let raw_busy_s s =
  let t = ref 0 in
  for i = 0 to Ibuf.length s.s_dur - 1 do
    t := !t + Ibuf.get s.s_dur i
  done;
  Clock.s !t

(** Throughput and latency metrics of the ops in [s]; [busy] holds the
    timed work (the ops themselves, or the batches they ran in).  The
    notes carry the raw, unnormalised figures next to them. *)
let latency_metrics ctx p s ~busy =
  let n = Ibuf.length s.s_dur in
  let q = ctx.tail_pct /. 100.0 in
  let lat = sorted_floats (latencies_ms p s) in
  let raw = sorted_floats (per_op s (fun i -> Clock.ms (Ibuf.get s.s_dur i))) in
  let beyond = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  let ops_per_s = float_of_int (completed s) /. busy_s p busy in
  ( [
      metric "ops_per_s" "ops/s" ops_per_s;
      metric "latency_p50_ms" "ms" (quantile lat 0.5);
      metric "latency_tail_ms" "ms" (quantile lat q);
    ],
    [
      Fmt.str "latency_tail_ms is p%g over %d samples (%d beyond it)"
        ctx.tail_pct n beyond;
      Fmt.str "raw (unnormalised): ops_per_s %.4f, latency_p50_ms %.4f, latency_tail_ms %.4f"
        (float_of_int (completed s) /. raw_busy_s busy)
        (quantile raw 0.5) (quantile raw q);
    ] )

(** Median probe factor over the run (for layer timings, which are
    attributed per run rather than per op). *)
let median_factor p =
  median (List.init (Ibuf.length p.p_dur) (fun i -> slowness p (Ibuf.get p.p_dur i)))

(** Traced throughput over untraced throughput, both normalised; [busy]
    holds the timed work of each, as in [latency_metrics]. *)
let overhead p ~plain ~traced ~busy_plain ~busy_traced =
  let rate s busy = float_of_int (completed s) /. busy_s p busy in
  rate traced busy_traced /. rate plain busy_plain

(** The op loop of the single-domain workloads.  Each op is timed and
    its allocation counted around [run] only; [check], the probes and
    the setup samples run between ops.  An op that raises, or that
    [check] fails, is not retried.  With [--trace 1] odd passes are
    traced.  The allocation and the peak RSS come from the first pass,
    whose work is the same in every run of a seed.  Setup samples wait
    for the second pass: they allocate at times rather than at points
    in the op sequence, and with them in the first pass its allocation
    count was measured to differ between runs of one seed.  The extras
    hold the tracing overhead; workloads add their own. *)
let ops_loop ctx probes tally ops ~name ~run ~check ?(pass_end = fun ~tracing:_ -> ()) () =
  let plain = samples () and traced = samples () in
  let pass_bytes = ref [] and rss = ref nan in
  let pass i =
    let tracing = ctx.trace && i mod 2 = 1 in
    let bytes = ref 0.0 in
    Array.iter
      (fun op ->
        tally.attempted <- tally.attempted + 1;
        let b0 = allocated_bytes () in
        let t0 = Clock.now () in
        let r = match run ~tracing op with r -> Ok r | exception e -> Error e in
        let t1 = Clock.now () in
        bytes := !bytes +. (allocated_bytes () -. b0);
        let failed = tally.failed in
        (match r with
        | Ok r -> check op r
        | Error e -> fail tally (name op ^ ": " ^ Printexc.to_string e));
        record ~ok:(tally.failed = failed) (if tracing then traced else plain) ~t_end:t1
          (t1 - t0);
        idle ~setup:(i > 0) probes)
      ops;
    pass_end ~tracing;
    if i = 0 then rss := peak_rss_mb "self";
    if not tracing then pass_bytes := !bytes :: !pass_bytes
  in
  let passes =
    run_passes probes ~seconds:ctx.seconds ~min_passes:(if ctx.trace then 2 else 1) pass
  in
  probe probes;
  let n = Array.length ops in
  let first = List.nth !pass_bytes (List.length !pass_bytes - 1) in
  let e2e, lat_notes = latency_metrics ctx probes plain ~busy:plain in
  let traced_ops = Ibuf.length traced.s_dur in
  {
    tally;
    e2e =
      e2e
      @ [
          metric "peak_rss_mb" "MB" !rss;
          metric "alloc_mb_per_op" "MB" (first /. float_of_int n /. 1e6);
        ];
    extras =
      (if traced_ops = 0 then []
       else
         [
           metric "tracing_overhead" "ratio"
             (overhead probes ~plain ~traced ~busy_plain:plain ~busy_traced:traced);
         ]);
    traced_ops;
    notes =
      lat_notes
      @ [
          Fmt.str "%d passes of %d ops; allocated MB per untraced pass: %s" passes n
            (String.concat " "
               (List.rev_map (fun b -> Printf.sprintf "%.6f" (b /. 1e6)) !pass_bytes));
        ];
  }

