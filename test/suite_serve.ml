(* Tests for the serve daemon stack: the incremental wire-frame decoder
   (Pobs.Json.Frame), the bounded LRU store (Pharness.Lru) under both
   sequential and Pool-concurrent access, content-addressed cache key
   sensitivity (source / options / cost-model), the request protocol
   (ping, compile-with-cache, errors for malformed frames, oversized
   frames and unknown verbs), and an end-to-end multi-client load run
   whose server-side cache counters must reconcile with the clients'
   own tallies before a clean drain. *)

let saxpy_src =
  {|
void saxpy(float32* x, float32* y, float32 a, int64 n) {
  psim gang_size(16) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    y[i] = a * x[i] + y[i];
  }
}
|}

let pairsum_src =
  {|
void pairsum(float32* a, float32* b, int64 n) {
  psim gang_size(8) num_spmd_threads(n) {
    int64 i = psim_thread_num();
    b[i] = a[2 * i] + a[2 * i + 1];
  }
}
|}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- Pobs.Json.Frame: incremental newline framing -- *)

let feed_strings dec chunks =
  List.concat_map (Pobs.Json.Frame.feed dec) chunks

let ok_frames rs =
  List.filter_map (function Ok v -> Some v | Error _ -> None) rs

let err_frames rs =
  List.filter_map (function Error e -> Some e | Ok _ -> None) rs

let test_frame_basic () =
  let dec = Pobs.Json.Frame.decoder () in
  let rs = Pobs.Json.Frame.feed dec "{\"a\":1}\n{\"b\":2}\n" in
  Alcotest.(check int) "two frames" 2 (List.length (ok_frames rs));
  Alcotest.(check int) "no errors" 0 (List.length (err_frames rs));
  (match ok_frames rs with
  | [ a; b ] ->
      Alcotest.(check bool) "first frame" true
        (Pobs.Json.member "a" a = Some (Pobs.Json.Int 1));
      Alcotest.(check bool) "second frame" true
        (Pobs.Json.member "b" b = Some (Pobs.Json.Int 2))
  | _ -> Alcotest.fail "expected two frames");
  Alcotest.(check int) "nothing pending" 0 (Pobs.Json.Frame.pending dec);
  Alcotest.(check bool) "clean finish" true (Pobs.Json.Frame.finish dec = None)

let test_frame_split_feeds () =
  let dec = Pobs.Json.Frame.decoder () in
  (* one frame split byte-wise across many feeds decodes identically *)
  let payload = "{\"verb\":\"compile\",\"id\":42}" in
  let chunks = List.init (String.length payload) (fun i -> String.make 1 payload.[i]) in
  let rs = feed_strings dec chunks in
  Alcotest.(check int) "no frame before newline" 0 (List.length rs);
  Alcotest.(check int) "bytes pending" (String.length payload)
    (Pobs.Json.Frame.pending dec);
  let rs = Pobs.Json.Frame.feed dec "\n" in
  (match ok_frames rs with
  | [ v ] ->
      Alcotest.(check bool) "id survives split" true
        (Pobs.Json.member "id" v = Some (Pobs.Json.Int 42))
  | _ -> Alcotest.fail "expected one frame after newline");
  (* blank lines are tolerated keepalives *)
  Alcotest.(check int) "blank lines ignored" 0
    (List.length (Pobs.Json.Frame.feed dec "\n  \n\n"))

let test_frame_trailing_garbage () =
  let dec = Pobs.Json.Frame.decoder () in
  let rs = Pobs.Json.Frame.feed dec "{\"a\":1} extra\n{\"b\":2}\n" in
  (match rs with
  | [ Error (Pobs.Json.Frame.Syntax msg); Ok _ ] ->
      Alcotest.(check bool) "syntax error names trailing garbage" true
        (contains msg "trailing garbage")
  | _ -> Alcotest.fail "expected a syntax error then a good frame");
  (* the stream recovered: the next frame still decodes *)
  Alcotest.(check int) "recovered" 1
    (List.length (ok_frames (Pobs.Json.Frame.feed dec "{\"c\":3}\n")))

let test_frame_truncated () =
  let dec = Pobs.Json.Frame.decoder () in
  Alcotest.(check int) "partial frame buffered" 0
    (List.length (Pobs.Json.Frame.feed dec "{\"a\":"));
  (match Pobs.Json.Frame.finish dec with
  | Some (Pobs.Json.Frame.Truncated n) ->
      Alcotest.(check int) "pending bytes reported" 5 n
  | _ -> Alcotest.fail "expected Truncated");
  Alcotest.(check bool) "decoder reusable after finish" true
    (Pobs.Json.Frame.finish dec = None)

let test_frame_oversized () =
  let dec = Pobs.Json.Frame.decoder ~max_bytes:16 () in
  (* reported exactly once at the crossing, then dropped to the newline *)
  let rs = Pobs.Json.Frame.feed dec ("{\"pad\":\"" ^ String.make 64 'x') in
  (match rs with
  | [ Error (Pobs.Json.Frame.Oversized 16) ] -> ()
  | _ -> Alcotest.fail "expected one Oversized error");
  Alcotest.(check int) "rest of oversized line swallowed" 0
    (List.length (Pobs.Json.Frame.feed dec (String.make 100 'y')));
  (* resynchronizes at the newline *)
  let rs = Pobs.Json.Frame.feed dec "tail\"}\n{\"ok\":true}\n" in
  Alcotest.(check int) "recovered after newline" 1 (List.length (ok_frames rs));
  Alcotest.(check int) "no extra errors" 0 (List.length (err_frames rs));
  (* an oversized line fully inside one chunk reports once too *)
  let dec2 = Pobs.Json.Frame.decoder ~max_bytes:8 () in
  let rs = Pobs.Json.Frame.feed dec2 (String.make 20 'z' ^ "\n{\"a\":1}\n") in
  (match rs with
  | [ Error (Pobs.Json.Frame.Oversized 8); Ok _ ] -> ()
  | _ -> Alcotest.fail "expected Oversized then recovery in one chunk")

(* -- Pharness.Lru -- *)

let test_lru_semantics () =
  let evicted = ref [] in
  let l =
    Pharness.Lru.create
      ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
      ~capacity:2 ()
  in
  Alcotest.(check bool) "cold lookup misses" true (Pharness.Lru.find l "a" = None);
  Pharness.Lru.add l "a" 1;
  Pharness.Lru.add l "b" 2;
  Alcotest.(check bool) "hit returns value" true (Pharness.Lru.find l "a" = Some 1);
  (* "a" was refreshed by the hit, so inserting "c" evicts "b" *)
  Pharness.Lru.add l "c" 3;
  Alcotest.(check (list string)) "recency order mru-first" [ "c"; "a" ]
    (Pharness.Lru.keys l);
  Alcotest.(check bool) "evicted key gone" true (Pharness.Lru.find l "b" = None);
  Alcotest.(check (list (pair string int))) "on_evict saw the victim"
    [ ("b", 2) ] !evicted;
  (* replacing an existing key does not evict *)
  Pharness.Lru.add l "a" 9;
  Alcotest.(check bool) "replace updates value" true
    (Pharness.Lru.find l "a" = Some 9);
  let s = Pharness.Lru.stats l in
  Alcotest.(check int) "hits" 2 s.Pharness.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Pharness.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Pharness.Lru.evictions;
  Alcotest.(check int) "size" 2 s.Pharness.Lru.size;
  Pharness.Lru.clear l;
  let s = Pharness.Lru.stats l in
  Alcotest.(check int) "clear drops entries" 0 s.Pharness.Lru.size;
  Alcotest.(check int) "clear keeps history" 1 s.Pharness.Lru.evictions;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create: capacity 0 < 1") (fun () ->
      ignore (Pharness.Lru.create ~capacity:0 () : (string, int) Pharness.Lru.t))

let test_lru_concurrent () =
  (* pool workers hammer one store with a hot set that fits the
     capacity plus a cold tail that overflows it (a cyclic scan would
     be LRU's zero-hit worst case); the books must balance no matter
     the interleaving *)
  let l : (int, int) Pharness.Lru.t = Pharness.Lru.create ~capacity:32 () in
  let lookups = 2000 in
  (* workers return what they found wrong; Alcotest checks run here, on
     the main domain, because its printing is not domain-safe *)
  let mismatches =
    Pparallel.Pool.with_pool 4 (fun p ->
        Pparallel.Pool.map p
          (fun i ->
            let k = if i mod 4 = 0 then 32 + (i mod 40) else i mod 8 in
            match Pharness.Lru.find l k with
            | Some v when v <> k -> [ (k, v) ]
            | Some _ -> []
            | None ->
                Pharness.Lru.add l k k;
                [])
          (List.init lookups Fun.id))
  in
  Alcotest.(check (list (pair int int))) "stored values intact" []
    (List.concat mismatches);
  let s = Pharness.Lru.stats l in
  Alcotest.(check int) "every lookup accounted" lookups
    (s.Pharness.Lru.hits + s.Pharness.Lru.misses);
  Alcotest.(check bool) "bounded" true (s.Pharness.Lru.size <= 32);
  Alcotest.(check bool) "working set hits" true (s.Pharness.Lru.hits > 0);
  Alcotest.(check bool) "evictions bounded by inserts" true
    (s.Pharness.Lru.evictions <= s.Pharness.Lru.misses)

(* -- content-addressed cache keys -- *)

let test_cache_key_sensitivity () =
  let base ?model_id ?(verb = "compile") ?(name = "saxpy") ?(source = saxpy_src)
      ?(opts = Parsimony.Options.default) ?(extra = "") () =
    Pharness.Serve.Cache.key ?model_id ~verb ~name ~source ~opts ~extra ()
  in
  let k0 = base () in
  Alcotest.(check string) "deterministic" k0 (base ());
  let distinct what k = Alcotest.(check bool) what true (k <> k0) in
  distinct "verb changes key" (base ~verb:"report" ());
  distinct "name changes key" (base ~name:"saxpy2" ());
  distinct "source changes key" (base ~source:pairsum_src ());
  distinct "options change key"
    (base ~opts:{ Parsimony.Options.default with boscc = true } ());
  distinct "math lib changes key" (base ~opts:Parsimony.Options.ispc ());
  let strategy strategy = { Parsimony.Options.default with strategy } in
  Alcotest.(check bool) "strategy changes key" true
    (base ~opts:(strategy Parsimony.Options.Parsimony) ()
    <> base ~opts:(strategy Parsimony.Options.SlpOptimal) ());
  Alcotest.(check bool) "default opts equal default key" true
    (base ~opts:Parsimony.Options.default () = k0);
  distinct "cost model changes key" (base ~model_id:"sim-512bit-deadbeef" ());
  distinct "entry/args change key" (base ~extra:"saxpy\x00[1,2]" ());
  (* the default model_id is the active cost model's fingerprint *)
  Alcotest.(check string) "default model id pinned" k0
    (base ~model_id:(Pmachine.Cost.model_id Pmachine.Cost.default) ())

(* -- protocol-level: one raw connection against a live daemon -- *)

let temp_socket prefix =
  let path = Filename.temp_file prefix ".sock" in
  path

let raw_send (c : Pharness.Loadgen.client) line =
  let line = line ^ "\n" in
  let rec go off len =
    if len > 0 then
      let n = Unix.write_substring c.Pharness.Loadgen.fd line off len in
      go (off + n) (len - n)
  in
  go 0 (String.length line)

let raw_recv (c : Pharness.Loadgen.client) =
  Pobs.Json.parse (input_line c.Pharness.Loadgen.ic)

let member_bool j key =
  match Pobs.Json.member key j with Some (Pobs.Json.Bool b) -> b | _ -> false

let test_serve_protocol () =
  Pobs.Metrics.reset ();
  let socket = temp_socket "psimc-proto" in
  let cfg =
    {
      (Pharness.Serve.default_config (Pharness.Serve.Unix_path socket)) with
      jobs = 1;
      max_frame = 4096;
      cache_capacity = 8;
    }
  in
  let srv = Domain.spawn (fun () -> Pharness.Serve.run cfg) in
  let c = Pharness.Loadgen.connect_retry (Pharness.Serve.Unix_path socket) in
  Fun.protect
    ~finally:(fun () -> Pharness.Loadgen.close_client c)
    (fun () ->
      (* ping *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [ ("id", Pobs.Json.Int 1); ("verb", Pobs.Json.Str "ping") ]))
      in
      Alcotest.(check bool) "ping ok" true (member_bool r "ok");
      Alcotest.(check bool) "id echoed" true
        (Pobs.Json.member "id" r = Some (Pobs.Json.Int 1));
      (* malformed frame gets an explicit error response, connection survives *)
      raw_send c "{not json";
      let r = raw_recv c in
      Alcotest.(check bool) "bad JSON rejected" false (member_bool r "ok");
      (* oversized frame: error response, then resynchronized *)
      raw_send c (String.make 5000 'x');
      let r = raw_recv c in
      (match Pobs.Json.member "error" r with
      | Some (Pobs.Json.Str msg) ->
          Alcotest.(check bool) "oversize named" true
            (Astring_contains.contains msg "4096")
      | _ -> Alcotest.fail "expected an error field");
      (* unknown verb and missing source are request-level errors *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj [ ("id", Pobs.Json.Int 2); ("verb", Pobs.Json.Str "zap") ]))
      in
      Alcotest.(check bool) "unknown verb rejected" false (member_bool r "ok");
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [ ("id", Pobs.Json.Int 3); ("verb", Pobs.Json.Str "compile") ]))
      in
      Alcotest.(check bool) "missing source rejected" false (member_bool r "ok");
      (* compile misses then hits, with per-stage trace on the miss *)
      let compile_req id =
        Pobs.Json.Obj
          [
            ("id", Pobs.Json.Int id);
            ("verb", Pobs.Json.Str "compile");
            ("name", Pobs.Json.Str "saxpy");
            ("source", Pobs.Json.Str saxpy_src);
          ]
      in
      let r1 = Result.get_ok (Pharness.Loadgen.rpc c (compile_req 4)) in
      Alcotest.(check bool) "compile ok" true (member_bool r1 "ok");
      Alcotest.(check bool) "first compile misses" false (member_bool r1 "cached");
      (match Pobs.Json.member "trace" r1 with
      | Some tr -> (
          match Pobs.Json.member "stages" tr with
          | Some (Pobs.Json.Obj stages) ->
              Alcotest.(check bool) "frontend stage timed" true
                (List.mem_assoc "frontend" stages);
              Alcotest.(check bool) "vectorize stage timed" true
                (List.mem_assoc "vectorize" stages)
          | _ -> Alcotest.fail "expected trace.stages")
      | None -> Alcotest.fail "expected a trace section");
      let r2 = Result.get_ok (Pharness.Loadgen.rpc c (compile_req 5)) in
      Alcotest.(check bool) "second compile cached" true (member_bool r2 "cached");
      Alcotest.(check bool) "cached result identical" true
        (Pobs.Json.member "result" r1 = Pobs.Json.member "result" r2);
      (* the same kernel under the SLP strategy must miss: the strategy
         leads the options fingerprint, so the cache can never serve a
         parsimony build for an SLP request *)
      let slp_req id =
        Pobs.Json.Obj
          [
            ("id", Pobs.Json.Int id);
            ("verb", Pobs.Json.Str "compile");
            ("name", Pobs.Json.Str "saxpy");
            ("source", Pobs.Json.Str saxpy_src);
            ( "options",
              Pobs.Json.Obj [ ("strategy", Pobs.Json.Str "slp") ] );
          ]
      in
      let r3 = Result.get_ok (Pharness.Loadgen.rpc c (slp_req 9)) in
      Alcotest.(check bool) "slp compile ok" true (member_bool r3 "ok");
      Alcotest.(check bool) "slp request not served the parsimony build"
        false (member_bool r3 "cached");
      let r4 = Result.get_ok (Pharness.Loadgen.rpc c (slp_req 10)) in
      Alcotest.(check bool) "repeated slp request hits its own entry" true
        (member_bool r4 "cached");
      (* the retired greedy pairing mode is an unknown strategy *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [
                  ("id", Pobs.Json.Int 11);
                  ("verb", Pobs.Json.Str "compile");
                  ("kernel", Pobs.Json.Str "gray_to_bgra");
                  ("options", Pobs.Json.Obj [ ("strategy", Pobs.Json.Str "slp-greedy") ]);
                ]))
      in
      Alcotest.(check bool) "slp-greedy rejected" false (member_bool r "ok");
      Alcotest.(check bool) "unknown-strategy error" true
        (Pobs.Json.member "error" r
        = Some (Pobs.Json.Str "options.strategy: unknown strategy \"slp-greedy\""));
      (* an SLP report carries the SLP packer's scorecards, the same
         cards its own reports give for the same compile *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [
                  ("id", Pobs.Json.Int 12);
                  ("verb", Pobs.Json.Str "report");
                  ("kernel", Pobs.Json.Str "gray_to_bgra");
                  ("options", Pobs.Json.Obj [ ("strategy", Pobs.Json.Str "slp") ]);
                ]))
      in
      let expected =
        let k = Option.get (Psimdlib.Registry.find "gray_to_bgra") in
        let m = Pfrontend.Lower.compile ~name:k.kname k.serial_src in
        Panalysis.Check.check_module m;
        let reports = Parsimony.Slp.run_module m in
        Panalysis.Check.check_module m;
        Parsimony.Simplify.run_module m;
        Parsimony.Scorecard.of_module_slp ~reports m
      in
      Alcotest.(check int) "gray_to_bgra has one slp card" 1 (List.length expected);
      Alcotest.(check bool) "slp report equals the slp scorecards" true
        (Pobs.Json.member "result" r
        = Some
            (Pobs.Json.Obj
               [
                 ( "scorecards",
                   Pobs.Json.Arr (List.map Parsimony.Scorecard.to_json expected) );
               ]));
      (* exec runs the kernel and reports simulated cycles *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [
                  ("id", Pobs.Json.Int 6);
                  ("verb", Pobs.Json.Str "exec");
                  ("name", Pobs.Json.Str "saxpy");
                  ("source", Pobs.Json.Str saxpy_src);
                  ("entry", Pobs.Json.Str "saxpy");
                  ( "args",
                    Pobs.Json.Arr
                      [
                        Pobs.Json.Str "i32";
                        Pobs.Json.Str "i32";
                        Pobs.Json.Float 2.0;
                        Pobs.Json.Int 32;
                      ] );
                ]))
      in
      Alcotest.(check bool) "exec ok" true (member_bool r "ok");
      (match Pobs.Json.member "result" r with
      | Some res -> (
          match Pobs.Json.member "cycles" res with
          | Some (Pobs.Json.Float cy) ->
              Alcotest.(check bool) "cycles positive" true (cy > 0.0)
          | _ -> Alcotest.fail "expected result.cycles")
      | None -> Alcotest.fail "expected a result");
      (* metrics scrape shows the requests we just made *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [ ("id", Pobs.Json.Int 7); ("verb", Pobs.Json.Str "metrics") ]))
      in
      let snap = Option.get (Pobs.Json.member "result" r) in
      Alcotest.(check bool) "request counter scraped" true
        (Pharness.Loadgen.metric_series snap "serve.requests" <> []);
      Alcotest.(check int) "cache hits gauge" 2
        (Pharness.Loadgen.metric_value snap "serve.cache.hits");
      Alcotest.(check bool) "uptime gauge present" true
        (Pharness.Loadgen.metric_series snap "process.uptime_s" <> []);
      (* drain *)
      let r =
        Result.get_ok
          (Pharness.Loadgen.rpc c
             (Pobs.Json.Obj
                [ ("id", Pobs.Json.Int 8); ("verb", Pobs.Json.Str "shutdown") ]))
      in
      Alcotest.(check bool) "shutdown acknowledged" true (member_bool r "ok"));
  let summary = Domain.join srv in
  (* the malformed and oversized frames are protocol errors, not
     requests; only the unknown verb, the missing source and the
     unknown strategy count *)
  Alcotest.(check int) "only the deliberate failures errored" 3
    summary.Pharness.Serve.s_errors;
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists socket)

(* -- end-to-end: multi-client load, reconciliation, clean drain -- *)

let test_serve_load_reconciles () =
  Pobs.Metrics.reset ();
  let socket = temp_socket "psimc-load-test" in
  let spec =
    {
      Pharness.Loadgen.default_spec with
      clients = 2;
      requests = 120;
      sources = [ ("saxpy", saxpy_src); ("pairsum", pairsum_src) ];
      scrape = true;
    }
  in
  let report, summary =
    Pharness.Loadgen.self_hosted ~jobs:2 ~cache_capacity:64 ~socket spec
  in
  Alcotest.(check int) "zero failed requests" 0 report.Pharness.Loadgen.lr_errors;
  Alcotest.(check int) "every request answered" 120 report.Pharness.Loadgen.lr_ok;
  Alcotest.(check bool) "hit rate above half" true
    (report.Pharness.Loadgen.lr_hit_rate > 0.5);
  Alcotest.(check int) "server hits reconcile with client cached tallies"
    report.Pharness.Loadgen.lr_cached report.Pharness.Loadgen.lr_server_hits;
  Alcotest.(check int) "no evictions within capacity" 0
    report.Pharness.Loadgen.lr_server_evictions;
  Alcotest.(check bool) "client p99 measured" true
    (Float.is_finite report.Pharness.Loadgen.lr_p99_ms
    && report.Pharness.Loadgen.lr_p99_ms > 0.0);
  Alcotest.(check bool) "server p50/p99 scraped" true
    (Float.is_finite report.Pharness.Loadgen.lr_server_p50_ms
    && Float.is_finite report.Pharness.Loadgen.lr_server_p99_ms);
  Alcotest.(check int) "drained with zero server errors" 0
    summary.Pharness.Serve.s_errors;
  Alcotest.(check bool) "summary counts the load (plus scrape)" true
    (summary.Pharness.Serve.s_requests >= 120);
  Alcotest.(check bool) "summary books match scrape" true
    (summary.Pharness.Serve.s_hits = report.Pharness.Loadgen.lr_server_hits
    && summary.Pharness.Serve.s_misses = report.Pharness.Loadgen.lr_server_misses);
  Alcotest.(check (list string)) "SLO gate clean" []
    (Pharness.Loadgen.check_slo
       { Pharness.Loadgen.default_slo with min_hit_rate = Some 0.5 }
       report)

let suites =
  [
    ( "serve.frame",
      [
        Alcotest.test_case "basic frames" `Quick test_frame_basic;
        Alcotest.test_case "split feeds" `Quick test_frame_split_feeds;
        Alcotest.test_case "trailing garbage" `Quick test_frame_trailing_garbage;
        Alcotest.test_case "truncated stream" `Quick test_frame_truncated;
        Alcotest.test_case "oversized frames" `Quick test_frame_oversized;
      ] );
    ( "serve.lru",
      [
        Alcotest.test_case "hit/miss/eviction semantics" `Quick test_lru_semantics;
        Alcotest.test_case "concurrent pool access" `Quick test_lru_concurrent;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "cache key sensitivity" `Quick test_cache_key_sensitivity;
        Alcotest.test_case "wire protocol" `Quick test_serve_protocol;
        Alcotest.test_case "multi-client load reconciles" `Quick
          test_serve_load_reconciles;
      ] );
  ]
