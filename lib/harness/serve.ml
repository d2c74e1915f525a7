(** [psimc serve]: a persistent compile daemon.

    A long-lived server on a Unix socket (or localhost TCP) speaking
    newline-framed [Pobs.Json] — one compact JSON value per line in
    each direction, decoded incrementally by [Pobs.Json.Frame].  It
    serves the existing verbs (compile, lint, report, exec, profile)
    plus [ping], [metrics] (a live scrape of the registry snapshot) and
    [shutdown] (drain in-flight work, then stop).

    Three properties are the point of the exercise:

    - {b Content-addressed caching.}  Every cacheable verb's
      deterministic result JSON is stored in a bounded [Lru] under a
      digest of verb + source + [Options.fingerprint] + the cost
      model's [model_id] (plus entry/args for the execute verbs), so a
      repeated request is a hash probe instead of a compile, and a cost
      model change can never serve stale results.
    - {b Observability.}  Every request carries its own span timings in
      the response ([queue_us], [cache_us], [work_us], per-pipeline-
      stage breakdown via [Pipeline.stage_hook]) correlated by the
      client's request id, and the global registry gains serve.* series
      (request counts by verb and status, latency histograms with
      p50/p90/p99, cache and queue gauges, process gauges) scraped live
      through the [metrics] verb.
    - {b Graceful drain.}  [shutdown] stops reads, lets every
      dispatched request finish and flush its response, answers the
      shutdown requester, and only then closes — the CI smoke gate
      asserts no client ever sees a dropped response.

    Requests are fanned over a [Pparallel.Pool] ([jobs] worker
    domains); with [jobs <= 1] handlers run inline on the accept loop,
    which is exactly the serial harness.  Responses may interleave
    across requests of one connection (they are written as each
    handler finishes), so clients correlate by [id]; the bundled
    [Loadgen] client runs closed-loop and never needs to. *)

type addr = Unix_path of string | Tcp_port of int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp_port p -> Fmt.str "tcp:127.0.0.1:%d" p

type config = {
  addr : addr;
  jobs : int;  (** worker domains; <= 1 runs handlers inline *)
  cache_capacity : int;  (** entries in the result cache *)
  max_frame : int;  (** byte limit per request frame *)
  metrics_out : string option;
      (** write a final registry snapshot here on shutdown *)
  banner : bool;  (** announce the listening address on stderr *)
  handle_signals : bool;
      (** drain on SIGTERM/SIGINT (CLI mode; off for in-process use) *)
}

let default_config addr =
  {
    addr;
    jobs = 2;
    cache_capacity = 256;
    max_frame = Pobs.Json.Frame.default_max_bytes;
    metrics_out = None;
    banner = false;
    handle_signals = false;
  }

type summary = {
  s_requests : int;  (** requests dispatched (including failed ones) *)
  s_errors : int;  (** requests answered with [ok:false] *)
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_uptime_s : float;
}

(* -- metrics -- *)

let m_requests =
  Pobs.Metrics.counter "serve.requests"
    ~help:"requests served, by verb and status"

let m_request_us =
  Pobs.Metrics.histogram "serve.request_us"
    ~help:"end-to-end request latency (dequeue to response built), microseconds"

let m_queue_us =
  Pobs.Metrics.histogram "serve.queue_us"
    ~help:"time a request waited in the pool queue, microseconds"

let m_stage_us =
  Pobs.Metrics.histogram "serve.stage_us"
    ~help:"per-pipeline-stage time inside serve requests, microseconds"

let m_protocol_errors =
  Pobs.Metrics.counter "serve.protocol_errors"
    ~help:"malformed frames received, by kind"

let m_connections =
  Pobs.Metrics.counter "serve.connections" ~help:"connections accepted"

let g_inflight =
  Pobs.Metrics.gauge "serve.inflight"
    ~help:"requests dispatched but not yet answered, at scrape time"

let g_cache_hits = Pobs.Metrics.gauge "serve.cache.hits" ~help:"result cache hits"

let g_cache_misses =
  Pobs.Metrics.gauge "serve.cache.misses" ~help:"result cache misses"

let g_cache_evictions =
  Pobs.Metrics.gauge "serve.cache.evictions" ~help:"result cache evictions"

let g_cache_size =
  Pobs.Metrics.gauge "serve.cache.size" ~help:"result cache entries at scrape time"

let g_queue_depth =
  Pobs.Metrics.gauge "pool.queue_depth"
    ~help:"tasks waiting in the worker pool queue at scrape time"

(* -- content-addressed cache keys -- *)

module Cache = struct
  (** Key for a request's deterministic result: a digest over every
      input that can change the answer.  [model_id] defaults to the
      active cost model's fingerprint, so editing the cost table (which
      changes cycle counts in exec/profile results) changes every key;
      the parameter exists so tests can pin the sensitivity. *)
  let key ?model_id ~verb ~name ~source ~opts ~extra () =
    let model_id =
      match model_id with
      | Some m -> m
      | None -> Pmachine.Cost.model_id Pmachine.Cost.default
    in
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [
              verb;
              name;
              source;
              Parsimony.Options.fingerprint opts;
              model_id;
              extra;
            ]))
end

(* -- requests -- *)

exception Bad_request of string

let bad fmt = Fmt.kstr (fun s -> raise (Bad_request s)) fmt

type request = {
  r_id : Pobs.Json.t;  (** echoed verbatim in the response *)
  r_verb : string;
  r_name : string;
  r_source : string;  (** "" for sourceless verbs *)
  r_opts : Parsimony.Options.t;
  r_engine : Pmachine.Engine.kind;
  r_entry : string;
  r_args : Pobs.Json.t list;
}

let get_str j key =
  match Pobs.Json.member key j with
  | Some (Pobs.Json.Str s) -> Some s
  | Some _ -> bad "%s: expected a string" key
  | None -> None

let opts_of_json j =
  match Pobs.Json.member "options" j with
  | None -> Parsimony.Options.default
  | Some (Pobs.Json.Obj kvs) ->
      List.fold_left
        (fun (o : Parsimony.Options.t) (k, v) ->
          match (k, v) with
          | "strategy", Pobs.Json.Str s -> (
              match Parsimony.Options.strategy_of_string s with
              | Some strategy -> { o with strategy }
              | None -> bad "options.strategy: unknown strategy %S" s)
          | "math_lib", Pobs.Json.Str s -> { o with math_lib = s }
          | "shape_analysis", Pobs.Json.Bool b -> { o with shape_analysis = b }
          | "stride_shuffle_bound", Pobs.Json.Int n ->
              { o with stride_shuffle_bound = n }
          | "uniform_branches", Pobs.Json.Bool b -> { o with uniform_branches = b }
          | "boscc", Pobs.Json.Bool b -> { o with boscc = b }
          | "reduce_unroll", Pobs.Json.Bool b -> { o with reduce_unroll = b }
          | "analysis_feedback", Pobs.Json.Bool b ->
              { o with analysis_feedback = b }
          | k, _ -> bad "options.%s: unknown field or wrong type" k)
        Parsimony.Options.default kvs
  | Some _ -> bad "options: expected an object"

let needs_source = function
  | "compile" | "lint" | "report" | "exec" | "profile" -> true
  | _ -> false

let parse_request j : request =
  let r_verb =
    match get_str j "verb" with Some v -> v | None -> bad "missing \"verb\""
  in
  let r_id = Option.value ~default:Pobs.Json.Null (Pobs.Json.member "id" j) in
  let kernel = get_str j "kernel" in
  let r_name =
    match (get_str j "name", kernel) with
    | Some n, _ -> n
    | None, Some k -> k
    | None, None -> "request"
  in
  let r_opts = opts_of_json j in
  let r_source =
    match (get_str j "source", kernel) with
    | Some s, Some _ -> ignore s; bad "pass \"source\" or \"kernel\", not both"
    | Some s, None -> s
    | None, Some k -> (
        match Pipeline.kernel_source r_opts k with
        | Some src -> src
        | None -> bad "no such built-in kernel %S" k)
    | None, None ->
        if needs_source r_verb then bad "%s: missing \"source\" or \"kernel\"" r_verb
        else ""
  in
  let r_engine =
    match get_str j "engine" with
    | None -> Pmachine.Engine.Vm
    | Some s -> (
        match Pmachine.Engine.kind_of_string s with
        | Some k -> k
        | None -> bad "unknown engine %S" s)
  in
  let r_entry = Option.value ~default:"" (get_str j "entry") in
  let r_args =
    match Pobs.Json.member "args" j with
    | None -> []
    | Some (Pobs.Json.Arr xs) -> xs
    | Some _ -> bad "args: expected an array"
  in
  { r_id; r_verb; r_name; r_source; r_opts; r_engine; r_entry; r_args }

(* -- verb handlers (pure: request -> deterministic result JSON) -- *)

let hook_of stages name us =
  stages := (name, us) :: !stages;
  Pobs.Metrics.observe ~labels:[ ("stage", name) ] m_stage_us (float_of_int us)

let pipeline_cfg ~opts ~stage_hook =
  { Pipeline.default with opts; stage_hook = Some stage_hook }

let handle_compile ~stage_hook (r : request) : Pobs.Json.t =
  let m, reports =
    Pipeline.compile ~cfg:(pipeline_cfg ~opts:r.r_opts ~stage_hook) ~name:r.r_name
      r.r_source
  in
  let sum f = List.fold_left (fun a (rep : Parsimony.Vectorizer.report) -> a + f rep) 0 reports in
  Pobs.Json.Obj
    [
      ("module", Pobs.Json.Str m.Pir.Func.mname);
      ("funcs", Pobs.Json.Int (List.length m.Pir.Func.funcs));
      ("vectorized_funcs", Pobs.Json.Int (List.length reports));
      ("vectorized_instrs", Pobs.Json.Int (sum (fun rep -> rep.vectorized)));
      ("scalar_kept", Pobs.Json.Int (sum (fun rep -> rep.scalar_kept)));
    ]

let handle_lint (r : request) : Pobs.Json.t =
  let findings = Pipeline.lint ~opts:r.r_opts ~name:r.r_name r.r_source in
  let finding_json (f : Psan.finding) =
    Pobs.Json.Obj
      [
        ("func", Pobs.Json.Str f.func);
        ("block", Pobs.Json.Str f.block);
        ("check", Pobs.Json.Str f.check);
        ("severity", Pobs.Json.Str (Psan.severity_name f.severity));
        ("msg", Pobs.Json.Str f.msg);
      ]
  in
  let errors =
    List.length (List.filter (fun f -> f.Psan.severity = Psan.Error) findings)
  in
  Pobs.Json.Obj
    [
      ("findings", Pobs.Json.Arr (List.map finding_json findings));
      ("errors", Pobs.Json.Int errors);
      ("clean", Pobs.Json.Bool (findings = []));
    ]

let handle_report ~stage_hook (r : request) : Pobs.Json.t =
  let _, cards =
    Pipeline.scorecards ~cfg:(pipeline_cfg ~opts:r.r_opts ~stage_hook) ~name:r.r_name
      r.r_source
  in
  Pobs.Json.Obj
    [ ("scorecards", Pobs.Json.Arr (List.map Parsimony.Scorecard.to_json cards)) ]

let profile_json (p : Pmachine.Profile.t) =
  let open Pmachine.Profile in
  let top = List.filteri (fun i _ -> i < 10) p.p_blocks in
  Pobs.Json.Obj
    [
      ("engine", Pobs.Json.Str p.p_engine);
      ("total_cycles", Pobs.Json.Float p.p_total_cycles);
      ("total_instrs", Pobs.Json.Int p.p_total_instrs);
      ( "hot_blocks",
        Pobs.Json.Arr
          (List.map
             (fun b ->
               Pobs.Json.Obj
                 [
                   ("func", Pobs.Json.Str b.pb_func);
                   ("block", Pobs.Json.Str b.pb_block);
                   ("cycles", Pobs.Json.Float b.pb_cycles);
                   ("instrs", Pobs.Json.Int b.pb_instrs);
                 ])
             top) );
    ]

(* exec and profile: compile, then run [entry] on the simulator.  Args
   mirror the psimc CLI: ints and floats pass through; "iN" allocates
   an N-element i32 buffer initialized 0..N-1 and passes its address,
   and the buffer's head is echoed in the result. *)
let handle_exec ~stage_hook ~profile (r : request) : Pobs.Json.t =
  if r.r_entry = "" then bad "%s: missing \"entry\"" r.r_verb;
  let m, _ =
    Pipeline.compile ~cfg:(pipeline_cfg ~opts:r.r_opts ~stage_hook) ~name:r.r_name
      r.r_source
  in
  let t = Pmachine.Engine.create ~kind:r.r_engine ~profile m in
  let mem = Pmachine.Engine.mem t in
  let buffers = ref [] in
  let parse_arg = function
    | Pobs.Json.Int i -> Pmachine.Value.I (Int64.of_int i)
    | Pobs.Json.Float f -> Pmachine.Value.F f
    | Pobs.Json.Str a when String.length a > 1 && a.[0] = 'i' -> (
        match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
        | Some n when n >= 0 ->
            let addr =
              Pmachine.Memory.alloc_array mem Pir.Types.I32
                (Array.init n (fun i -> Pmachine.Value.I (Int64.of_int i)))
            in
            buffers := (addr, n) :: !buffers;
            Pmachine.Value.I (Int64.of_int addr)
        | _ -> bad "bad buffer argument %S" a)
    | v -> bad "bad argument %s" (Pobs.Json.to_string_compact v)
  in
  let vargs = List.map parse_arg r.r_args in
  let t0 = Pobs.Trace.now_us () in
  let result = Pmachine.Engine.run t r.r_entry vargs in
  stage_hook "execute" (Pobs.Trace.now_us () - t0);
  let stats = Pmachine.Engine.stats t in
  let buffer_json (addr, n) =
    let vals = Pmachine.Memory.read_array mem Pir.Types.I32 addr n in
    Pobs.Json.Obj
      [
        ("addr", Pobs.Json.Int addr);
        ("len", Pobs.Json.Int n);
        ( "head",
          Pobs.Json.Arr
            (Array.to_list
               (Array.map
                  (fun v -> Pobs.Json.Str (Fmt.str "%a" Pmachine.Value.pp v))
                  (Array.sub vals 0 (min n 16)))) );
      ]
  in
  let base =
    [
      ( "engine",
        Pobs.Json.Str (Pmachine.Engine.kind_to_string (Pmachine.Engine.kind t)) );
      ("result", Pobs.Json.Str (Fmt.str "%a" Pmachine.Value.pp result));
      ("cycles", Pobs.Json.Float stats.Pmachine.Interp.cycles);
      ("instrs", Pobs.Json.Int stats.Pmachine.Interp.instrs);
      ("vector_instrs", Pobs.Json.Int stats.Pmachine.Interp.vector_instrs);
      ("buffers", Pobs.Json.Arr (List.rev_map buffer_json !buffers));
    ]
  in
  Pobs.Json.Obj
    (if profile then base @ [ ("profile", profile_json (Pmachine.Engine.profile t)) ]
     else base)

let cacheable = function
  | "compile" | "lint" | "report" | "exec" | "profile" -> true
  | _ -> false

(* -- connections -- *)

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Pobs.Json.Frame.decoder;
  c_wlock : Mutex.t;  (** serializes whole response lines *)
  c_inflight : int Atomic.t;  (** responses not yet written for this conn *)
  mutable c_open : bool;  (** still readable; cleared on EOF/error *)
  mutable c_closed : bool;  (** fd closed (main loop only, after drain) *)
}

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* a failed write (peer went away) poisons the connection; the request
   itself still counted as served *)
let send conn (j : Pobs.Json.t) =
  let line = Pobs.Json.to_string_compact j ^ "\n" in
  Mutex.protect conn.c_wlock (fun () ->
      if not conn.c_closed then
        try write_all conn.c_fd line 0 (String.length line)
        with Unix.Unix_error _ -> conn.c_open <- false)

(* -- server state -- *)

type state = {
  cfg : config;
  cache : (string, Pobs.Json.t) Lru.t;
  pool : Pparallel.Pool.t;
  inflight : int Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
  started : float;
  mutable draining : bool;
}

let refresh_gauges st =
  let s = Lru.stats st.cache in
  Pobs.Metrics.set g_cache_hits s.Lru.hits;
  Pobs.Metrics.set g_cache_misses s.Lru.misses;
  Pobs.Metrics.set g_cache_evictions s.Lru.evictions;
  Pobs.Metrics.set g_cache_size s.Lru.size;
  Pobs.Metrics.set g_queue_depth (Pparallel.Pool.pending st.pool);
  Pobs.Metrics.set g_inflight (Atomic.get st.inflight);
  Pobs.Metrics.process_gauges ()

let trace_json ~queue_us ~cache_us ~work_us ~total_us stages =
  Pobs.Json.Obj
    [
      ("queue_us", Pobs.Json.Int queue_us);
      ("cache_us", Pobs.Json.Int cache_us);
      ("work_us", Pobs.Json.Int work_us);
      ("total_us", Pobs.Json.Int total_us);
      ( "stages",
        Pobs.Json.Obj
          (List.rev_map (fun (s, us) -> (s, Pobs.Json.Int us)) stages) );
    ]

(* Handle one parsed frame: route the verb, probe the cache, time every
   phase, and write the id-correlated response.  Runs on a pool worker
   (or inline when jobs <= 1). *)
let handle st conn ~enqueued_us (j : Pobs.Json.t) =
  let t_start = Pobs.Trace.now_us () in
  let queue_us = t_start - enqueued_us in
  Pobs.Metrics.observe m_queue_us (float_of_int queue_us);
  let id = Option.value ~default:Pobs.Json.Null (Pobs.Json.member "id" j) in
  let verb =
    match Pobs.Json.member "verb" j with
    | Some (Pobs.Json.Str v) -> v
    | _ -> ""
  in
  let stages = ref [] in
  let stage_hook = hook_of stages in
  let outcome =
    try
      let r = parse_request j in
      Pobs.Trace.with_span ~cat:"serve"
        ~args:
          [
            ("verb", r.r_verb);
            ("req", Pobs.Json.to_string_compact r.r_id);
          ]
        "request"
        (fun () ->
          if cacheable r.r_verb then begin
            let extra =
              r.r_entry ^ "\x00"
              ^ Pobs.Json.to_string_compact (Pobs.Json.Arr r.r_args)
              ^ "\x00"
              ^ Pmachine.Engine.kind_to_string r.r_engine
            in
            let t_probe = Pobs.Trace.now_us () in
            let key =
              Cache.key ~verb:r.r_verb ~name:r.r_name ~source:r.r_source
                ~opts:r.r_opts ~extra ()
            in
            let hit = Lru.find st.cache key in
            let cache_us = Pobs.Trace.now_us () - t_probe in
            match hit with
            | Some result -> Ok (result, true, cache_us)
            | None ->
                let result =
                  match r.r_verb with
                  | "compile" -> handle_compile ~stage_hook r
                  | "lint" -> handle_lint r
                  | "report" -> handle_report ~stage_hook r
                  | "exec" -> handle_exec ~stage_hook ~profile:false r
                  | "profile" -> handle_exec ~stage_hook ~profile:true r
                  | _ -> assert false
                in
                Lru.add st.cache key result;
                Ok (result, false, cache_us)
          end
          else
            match r.r_verb with
            | "ping" -> Ok (Pobs.Json.Obj [ ("pong", Pobs.Json.Bool true) ], false, 0)
            | "metrics" ->
                refresh_gauges st;
                Ok (Pobs.Metrics.snapshot (), false, 0)
            | v -> bad "unknown verb %S" v)
    with
    | Bad_request msg -> Error msg
    | e -> Error (Printexc.to_string e)
  in
  let t_end = Pobs.Trace.now_us () in
  let total_us = t_end - enqueued_us in
  let work_us = t_end - t_start in
  let status = match outcome with Ok _ -> "ok" | Error _ -> "error" in
  Pobs.Metrics.incr ~labels:[ ("verb", verb); ("status", status) ] m_requests;
  Pobs.Metrics.observe ~labels:[ ("verb", verb) ] m_request_us
    (float_of_int total_us);
  let response =
    match outcome with
    | Ok (result, cached, cache_us) ->
        Pobs.Json.Obj
          [
            ("id", id);
            ("verb", Pobs.Json.Str verb);
            ("ok", Pobs.Json.Bool true);
            ("cached", Pobs.Json.Bool cached);
            ("result", result);
            ("trace", trace_json ~queue_us ~cache_us ~work_us ~total_us !stages);
          ]
    | Error msg ->
        Atomic.incr st.errors;
        Pobs.Json.Obj
          [
            ("id", id);
            ("verb", Pobs.Json.Str verb);
            ("ok", Pobs.Json.Bool false);
            ("error", Pobs.Json.Str msg);
            ("trace", trace_json ~queue_us ~cache_us:0 ~work_us ~total_us !stages);
          ]
  in
  send conn response

let dispatch st conn (j : Pobs.Json.t) =
  Atomic.incr st.requests;
  Atomic.incr st.inflight;
  Atomic.incr conn.c_inflight;
  let enqueued_us = Pobs.Trace.now_us () in
  let work () =
    Fun.protect
      ~finally:(fun () ->
        Atomic.decr conn.c_inflight;
        Atomic.decr st.inflight)
      (fun () -> handle st conn ~enqueued_us j)
  in
  if Pparallel.Pool.size st.pool > 1 then Pparallel.Pool.submit st.pool work
  else work ()

(* -- the accept/read loop -- *)

let protocol_error_kind = function
  | Pobs.Json.Frame.Oversized _ -> "oversized"
  | Pobs.Json.Frame.Truncated _ -> "truncated"
  | Pobs.Json.Frame.Syntax _ -> "syntax"

let listen_socket = function
  | Unix_path path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, fun () -> try Sys.remove path with Sys_error _ -> ())
  | Tcp_port port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      (fd, fun () -> ())

(** Run the daemon until a [shutdown] request (or, with
    [handle_signals], SIGTERM/SIGINT) drains it.  Blocks the calling
    domain; in-process users ([Loadgen.self_hosted], the tests) run it
    under [Domain.spawn]. *)
let run (cfg : config) : summary =
  let was_enabled = Pobs.Metrics.enabled () in
  Pobs.Metrics.enable ();
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let want_drain = ref false in
  if cfg.handle_signals then begin
    let on _ = want_drain := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on)
  end;
  let listen_fd, cleanup = listen_socket cfg.addr in
  let st =
    {
      cfg;
      cache = Lru.create ~capacity:cfg.cache_capacity ();
      pool = Pparallel.Pool.create cfg.jobs;
      inflight = Atomic.make 0;
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      started = Unix.gettimeofday ();
      draining = false;
    }
  in
  if cfg.banner then
    Fmt.epr "psimc serve: listening on %s (jobs=%d, cache=%d entries)@."
      (addr_to_string cfg.addr) cfg.jobs cfg.cache_capacity;
  let conns = ref [] in
  let drain_requester = ref None in
  let rbuf = Bytes.create 65536 in
  let on_frame conn = function
    | Error e ->
        Pobs.Metrics.incr
          ~labels:[ ("kind", protocol_error_kind e) ]
          m_protocol_errors;
        (* answerable protocol errors get a frame back so a buggy
           client fails loudly instead of hanging *)
        send conn
          (Pobs.Json.Obj
             [
               ("id", Pobs.Json.Null);
               ("ok", Pobs.Json.Bool false);
               ("error", Pobs.Json.Str (Pobs.Json.Frame.error_to_string e));
             ])
    | Ok j -> (
        match Pobs.Json.member "verb" j with
        | Some (Pobs.Json.Str "shutdown") ->
            Atomic.incr st.requests;
            st.draining <- true;
            drain_requester :=
              Some
                ( conn,
                  Option.value ~default:Pobs.Json.Null (Pobs.Json.member "id" j)
                )
        | _ -> dispatch st conn j)
  in
  let read_conn conn =
    match Unix.read conn.c_fd rbuf 0 (Bytes.length rbuf) with
    | 0 ->
        (match Pobs.Json.Frame.finish conn.c_dec with
        | Some e ->
            Pobs.Metrics.incr
              ~labels:[ ("kind", protocol_error_kind e) ]
              m_protocol_errors
        | None -> ());
        conn.c_open <- false
    | n ->
        List.iter (on_frame conn)
          (Pobs.Json.Frame.feed conn.c_dec (Bytes.sub_string rbuf 0 n))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> conn.c_open <- false
  in
  let accept () =
    match Unix.accept listen_fd with
    | fd, _ ->
        Pobs.Metrics.incr m_connections;
        conns :=
          {
            c_fd = fd;
            c_dec = Pobs.Json.Frame.decoder ~max_bytes:cfg.max_frame ();
            c_wlock = Mutex.create ();
            c_inflight = Atomic.make 0;
            c_open = true;
            c_closed = false;
          }
          :: !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let running = ref true in
  while !running do
    if !want_drain then st.draining <- true;
    (* reap connections that saw EOF once their responses have flushed;
       the fd close is deferred past the last in-flight write so a
       worker never writes into a recycled descriptor *)
    conns :=
      List.filter
        (fun c ->
          if (not c.c_open) && Atomic.get c.c_inflight = 0 && not c.c_closed
          then begin
            c.c_closed <- true;
            (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
            false
          end
          else not c.c_closed)
        !conns;
    if st.draining && Atomic.get st.inflight = 0 then running := false
    else begin
      let read_fds =
        if st.draining then []
        else
          listen_fd
          :: List.filter_map
               (fun c -> if c.c_open then Some c.c_fd else None)
               !conns
      in
      match Unix.select read_fds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen_fd then accept ()
              else
                match List.find_opt (fun c -> c.c_fd = fd) !conns with
                | Some c -> read_conn c
                | None -> ())
            ready
    end
  done;
  (* drained: answer the shutdown requester, then tear everything down *)
  (match !drain_requester with
  | Some (conn, id) ->
      send conn
        (Pobs.Json.Obj
           [
             ("id", id);
             ("verb", Pobs.Json.Str "shutdown");
             ("ok", Pobs.Json.Bool true);
             ( "result",
               Pobs.Json.Obj
                 [ ("requests", Pobs.Json.Int (Atomic.get st.requests)) ] );
           ])
  | None -> ());
  List.iter
    (fun c ->
      if not c.c_closed then begin
        c.c_closed <- true;
        try Unix.close c.c_fd with Unix.Unix_error _ -> ()
      end)
    !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  cleanup ();
  Pparallel.Pool.shutdown st.pool;
  refresh_gauges st;
  (match cfg.metrics_out with
  | Some file -> Pobs.Json.write file (Pobs.Metrics.snapshot ())
  | None -> ());
  if not was_enabled then Pobs.Metrics.disable ();
  let s = Lru.stats st.cache in
  {
    s_requests = Atomic.get st.requests;
    s_errors = Atomic.get st.errors;
    s_hits = s.Lru.hits;
    s_misses = s.Lru.misses;
    s_evictions = s.Lru.evictions;
    s_uptime_s = Unix.gettimeofday () -. st.started;
  }

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "serve: %d request(s), %d error(s), cache %d hit / %d miss / %d evicted, \
     up %.1fs@."
    s.s_requests s.s_errors s.s_hits s.s_misses s.s_evictions s.s_uptime_s
