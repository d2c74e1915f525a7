(** serve: the compile daemon under editor traffic.

    The daemon is the [psimc serve] executable in its own process, with
    its default flags and log level (2 worker domains, a 256-entry
    cache); only the socket path is chosen here.  One closed-loop
    connection sends compile, lint and report requests of two kinds:

    - a seeded hot set of 16 kernels x 3 verbs, one kernel from each
      stratum of a cost-ranked pool (see [setup]), warmed during setup,
      which always hits: each hot key recurs every 64 requests, long
      before 256 other keys could evict it;
    - every 4th request, a never-seen variant of one of all 79 kernel
      sources (the source plus a seeded comment line), which must
      compile.

    A pass sends a variant of every (kernel, verb) pair, 948 requests
    in all, so the miss mix is the same for every seed.
    Every response must echo its id, answer [ok:true] and carry the
    [cached] flag its construction predicts, and every hit's result
    must be byte-identical to the miss that filled its key (compared
    as the codec's compact encoding).  Failed requests are counted
    with their error text, never retried or filtered, and any one of
    them makes the run incorrect.

    One connection, because with two the daemon answers some requests
    [ok:false] with [Stdlib.Queue.Empty] at random (spec.json,
    "known_defects"), so two runs of one seed would not fail the same
    ops; with one request in flight, no two worker domains compile, or
    log, at once. *)

module Json = Pobs.Json
module Loadgen = Pharness.Loadgen

let hot_kernels = 16
let verbs = [| "compile"; "lint"; "report" |]
let conns = 1

type req = {
  verb : string;
  name : string;
  source : string;
  key : int;  (** hot-key index, or -1 for a variant *)
  tail : string;  (** the request line after its id *)
}

(* -- connections: newline-framed lines.  Setup and teardown use
   [Loadgen.rpc]; the timed loop reads the socket when select says so,
   bypassing the client's channel, which is empty between round trips. *)

type conn = {
  client : Loadgen.client;
  pending : Buffer.t;  (** bytes read past the last newline *)
  mutable out : (req * int * int) option;
      (** outstanding request, its id and send time *)
}

let rbuf = Bytes.create 65536

exception Daemon_gone of string

(* lines completed by one read *)
let read_lines c =
  match Unix.read c.client.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> raise (Daemon_gone "connection closed by the daemon")
  | n ->
      Buffer.add_subbytes c.pending rbuf 0 n;
      let s = Buffer.contents c.pending in
      let parts = String.split_on_char '\n' s in
      let rec split = function
        | [ rest ] ->
            Buffer.clear c.pending;
            Buffer.add_string c.pending rest;
            []
        | line :: rest -> line :: split rest
        | [] -> []
      in
      split parts

let request_json id (r : req) =
  Loadgen.request_json ~id ~verb:r.verb ~name:r.name ~source:r.source

(* Requests are sent as prebuilt lines, so the client spends little CPU
   next to the daemon; setup checks that the lines equal the codec's
   encoding.  [Json.to_string_compact] of the source string, unquoted. *)
let escaped src =
  let q = Json.to_string_compact (Json.Str src) in
  String.sub q 1 (String.length q - 2)

(* [esc] is [escaped source], when the caller has it already *)
let mk_req ?esc ~verb ~name ~source ~key () =
  let esc = match esc with Some e -> e | None -> escaped source in
  {
    verb;
    name;
    source;
    key;
    tail =
      Fmt.str ",\"verb\":\"%s\",\"name\":\"%s\",\"source\":\"%s\"}\n" verb name esc;
  }

let line_of id r = "{\"id\":" ^ string_of_int id ^ r.tail

(* A successful response starts with this; [cached] as built. *)
let ok_prefix id r =
  Fmt.str "{\"id\":%d,\"verb\":\"%s\",\"ok\":true,\"cached\":%b,\"result\":" id r.verb
    (r.key >= 0)

(* the raw bytes of the "result" member: from the prefix to the trace
   object, which is the last member as the daemon encodes it *)
let raw_result ~prefix line =
  let n = String.length line and m = String.length ",\"trace\":" in
  let at i = i + m <= n && String.sub line i m = ",\"trace\":" in
  let rec back i = if i < prefix then None else if at i then Some i else back (i - 1) in
  Option.map (fun j -> String.sub line prefix (j - prefix)) (back (n - m))

(* -- setup: spawn, ping, warm the hot set -- *)

type state = {
  pid : int;
  stderr_file : string;
  cs : conn array;
  hot : req array;
  hot_results : string array;
      (** compact encoding of the result of each hot key's miss *)
  variants : (Psimdlib.Workload.kernel * string * string) array;
      (** miss order: kernel, verb, escaped source *)
  mutable sent : int;  (** requests the daemon has seen, all phases *)
}

(* The daemon binds and listens back to back, so once its socket file
   exists the first connect succeeds; waiting for the file in 1 ms
   steps keeps [connect_retry]'s 50 ms back-off out of setup_s. *)
let connect path =
  let deadline = Clock.now () + 30_000_000_000 in
  while (not (Sys.file_exists path)) && Clock.now () < deadline do
    Unix.sleepf 0.001
  done;
  let client = Loadgen.connect_retry ~timeout_s:30.0 (Pharness.Serve.Unix_path path) in
  { client; pending = Buffer.create 4096; out = None }

let setup (ctx : Meter.ctx) =
  let tag = string_of_int (Unix.getpid ()) in
  let sock = Filename.concat ctx.Meter.workdir ("s" ^ tag ^ ".sock") in
  let stderr_file = Filename.concat ctx.workdir ("serve" ^ tag ^ ".err") in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let fd_err = Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* OCAMLRUNPARAM v=0x400 only makes the runtime print its allocation
     totals at exit; the daemon's flags and log level stay default *)
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=v=0x400" |]
  in
  let pid =
    Unix.create_process_env ctx.psimc
      [| ctx.psimc; "serve"; "--socket"; sock |]
      env devnull devnull fd_err
  in
  List.iter Unix.close [ devnull; fd_err ];
  let cs = Array.init conns (fun _ -> connect sock) in
  (match Loadgen.rpc cs.(0).client (Json.Obj [ ("id", Json.Int 0); ("verb", Json.Str "ping") ]) with
  | Ok _ -> ()
  | Error e -> failwith ("ping failed: " ^ e));
  let kernels = Array.of_list (Psimdlib.Registry.all @ Pispc.Suite.all) in
  (* The hot set takes one kernel from each of [hot_kernels] equal
     strata of spec.json's "hot_pool", kernels ranked by what they cost
     the daemon to answer, so that the cost of warming the hot set,
     which setup_s pays, varies little from seed to seed: with a pick
     from all kernels one seed's setup took 60% longer than another's. *)
  let pool =
    match Json.member "hot_pool" ctx.wspec with
    | Some (Json.Arr names) ->
        Array.of_list
          (List.map
             (fun j ->
               match j with
               | Json.Str name -> (
                   match
                     Array.find_opt (fun (k : Psimdlib.Workload.kernel) -> k.kname = name) kernels
                   with
                   | Some k -> k
                   | None -> failwith ("spec.json hot_pool: no kernel " ^ name))
               | _ -> failwith "spec.json hot_pool: expected kernel names")
             names)
    | _ -> failwith "spec.json: no serve hot_pool"
  in
  let st = Random.State.make [| ctx.seed |] and n = Array.length pool in
  let picks =
    Array.init hot_kernels (fun i ->
        let lo = i * n / hot_kernels and hi = (i + 1) * n / hot_kernels in
        pool.(lo + Random.State.int st (hi - lo)))
  in
  let pairs =
    Array.init (hot_kernels * Array.length verbs) (fun i ->
        (picks.(i / Array.length verbs), verbs.(i mod Array.length verbs)))
  in
  Meter.shuffle ~seed:(ctx.seed + 1) pairs;
  let hot =
    Array.mapi
      (fun i ((k : Psimdlib.Workload.kernel), verb) ->
        mk_req ~verb ~name:k.kname ~source:k.psim_src ~key:i ())
      pairs
  in
  let hot_results =
    Array.map
      (fun r ->
        let id = -1 - r.key in
        if line_of id r <> Json.to_string_compact (request_json id r) ^ "\n" then
          failwith "prebuilt request line differs from the codec's";
        match Loadgen.rpc cs.(0).client (request_json id r) with
        | Ok j
          when Json.member "ok" j = Some (Json.Bool true)
               && Json.member "cached" j = Some (Json.Bool false) ->
            Json.to_string_compact (Option.get (Json.member "result" j))
        | Ok j -> failwith ("hot-set warm-up failed: " ^ Json.to_string_compact j)
        | Error e -> failwith ("hot-set warm-up failed: " ^ e))
      hot
  in
  let variants =
    Array.concat
      (Array.to_list
         (Array.map
            (fun v ->
              Array.map (fun (k : Psimdlib.Workload.kernel) -> (k, v, escaped k.psim_src)) kernels)
            verbs))
  in
  Meter.shuffle ~seed:(ctx.seed + 2) variants;
  {
    pid;
    stderr_file;
    cs;
    hot;
    hot_results;
    variants;
    sent = 1 + Array.length hot;
  }

(* Send shutdown, wait for the daemon to drain and exit; returns the
   words it allocated over its lifetime (printed by the runtime). *)
let teardown s =
  ignore
    (Loadgen.rpc s.cs.(0).client (Json.Obj [ ("id", Json.Int 0); ("verb", Json.Str "shutdown") ]));
  Array.iter (fun c -> Loadgen.close_client c.client) s.cs;
  ignore (Unix.waitpid [] s.pid);
  let ic = open_in s.stderr_file in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      Sys.remove s.stderr_file)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"allocated_words:" line ->
            Scanf.sscanf line "allocated_words: %f" Fun.id
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* -- the timed loop -- *)

type acc = {
  mutable n : int;
  mutable queue_us : float;
  mutable cache_us : float;
  mutable work_hit : float;
  mutable n_hit : int;
  mutable work_miss : float;
  mutable n_miss : int;
  mutable codec_ns : float;
  mutable transport_us : float;
  stages : (string, float * int) Hashtbl.t;
}

let run (ctx : Meter.ctx) probes s : Meter.result =
  let tally = Meter.tally () in
  let plain = Meter.samples () and traced = Meter.samples () in
  let batches_plain = Meter.samples () and batches_traced = Meter.samples () in
  let acc =
    {
      n = 0;
      queue_us = 0.0;
      cache_us = 0.0;
      work_hit = 0.0;
      n_hit = 0;
      work_miss = 0.0;
      n_miss = 0;
      codec_ns = 0.0;
      transport_us = 0.0;
      stages = Hashtbl.create 8;
    }
  in
  let hits = ref 0 and done_reqs = ref 0 in
  let next_id = ref 1 and hot_next = ref 0 in
  let pass_no = ref 0 in
  let per_pass = 4 * Array.length s.variants in
  let request_at i =
    if i mod 4 = 3 then
      let k = i / 4 in
      let kern, verb, esc = s.variants.(k) in
      let nonce = Fmt.str "// variant %d.%d.%d\n" ctx.seed !pass_no k in
      mk_req ~verb ~name:kern.kname ~key:(-1) ~source:(nonce ^ kern.psim_src)
        ~esc:(escaped nonce ^ esc) ()
    else begin
      let r = s.hot.(!hot_next mod Array.length s.hot) in
      incr hot_next;
      r
    end
  in
  let check tracing (r, id, t_send) t_recv line =
    incr done_reqs;
    tally.attempted <- tally.attempted + 1;
    let failed = tally.failed in
    let what = Fmt.str "%s %s%s" r.verb r.name (if r.key < 0 then " (variant)" else "") in
    let prefix = ok_prefix id r in
    (* fast path: the response is byte for byte the one expected *)
    let expected =
      String.starts_with ~prefix line
      && (r.key < 0
         || raw_result ~prefix:(String.length prefix) line = Some s.hot_results.(r.key))
    in
    if expected then (if r.key >= 0 then incr hits)
    else begin
      (* otherwise compare the parsed members, and say what is wrong *)
      match Json.parse_result line with
      | Error e -> Meter.fail tally ("unparsable response: " ^ e)
      | Ok j -> (
          let cached = Json.member "cached" j = Some (Json.Bool true) in
          if cached then incr hits;
          match (Json.member "id" j, Json.member "ok" j, Json.member "error" j) with
          | id', _, _ when id' <> Some (Json.Int id) ->
              Meter.fail tally (what ^ ": id not echoed")
          | _, Some (Json.Bool true), _ ->
              if cached <> (r.key >= 0) then
                Meter.fail tally
                  (Fmt.str "%s: cached flag is not the %s it was built to get" what
                     (if r.key >= 0 then "hit" else "miss"))
              else if
                r.key >= 0
                && Option.map Json.to_string_compact (Json.member "result" j)
                   <> Some s.hot_results.(r.key)
              then Meter.fail tally (what ^ ": hit differs from its miss")
          | _, _, Some (Json.Str e) -> Meter.fail tally (Fmt.str "%s: %s" what e)
          | _ -> Meter.fail tally (what ^ ": ok:false without an error"))
    end;
    Meter.record ~ok:(tally.failed = failed) (if tracing then traced else plain) ~t_end:t_recv
      (t_recv - t_send);
    if tracing then begin
      (* client codec: encoding this request and decoding its response *)
      let t0 = Clock.now () in
      ignore (Json.to_string_compact (request_json id r));
      let parsed = Json.parse_result line in
      let codec_ns = Clock.now () - t0 in
      let f = Meter.factor probes (t_recv - ((t_recv - t_send) / 2)) in
      match parsed with
      | Error _ -> ()
      | Ok j -> (
          let trace = Json.member "trace" j in
          let int_field key =
            match Option.bind trace (Json.member key) with
            | Some (Json.Int v) -> float_of_int v /. f
            | _ -> 0.0
          in
          acc.n <- acc.n + 1;
          acc.codec_ns <- acc.codec_ns +. (float_of_int codec_ns /. f);
          acc.queue_us <- acc.queue_us +. int_field "queue_us";
          acc.cache_us <- acc.cache_us +. int_field "cache_us";
          if Json.member "cached" j = Some (Json.Bool true) then begin
            acc.work_hit <- acc.work_hit +. int_field "work_us";
            acc.n_hit <- acc.n_hit + 1
          end
          else begin
            acc.work_miss <- acc.work_miss +. int_field "work_us";
            acc.n_miss <- acc.n_miss + 1
          end;
          acc.transport_us <-
            acc.transport_us
            +. (float_of_int (t_recv - t_send) /. 1e3 /. f)
            -. int_field "total_us";
          match Option.bind trace (Json.member "stages") with
          | Some (Json.Obj kvs) ->
              List.iter
                (fun (stage, v) ->
                  match v with
                  | Json.Int us ->
                      let t, n =
                        Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.stages stage)
                      in
                      Hashtbl.replace acc.stages stage (t +. (float_of_int us /. f), n + 1)
                  | _ -> ())
                kvs
          | _ -> ())
    end
  in
  let send c r =
    let id = !next_id in
    incr next_id;
    let line = line_of id r in
    let t_send = Clock.now () in
    Loadgen.write_all c.client.fd line 0 (String.length line);
    s.sent <- s.sent + 1;
    c.out <- Some (r, id, t_send)
  in
  (* one pass: batches of about 50 ms, a probe between batches while no
     request is outstanding *)
  let pass i =
    pass_no := i;
    let tracing = ctx.trace && i mod 2 = 1 in
    let next = ref 0 in
    while !next < per_pass do
      let b0 = Clock.now () in
      let stop = b0 + Meter.probe_interval_ns in
      let send_next c =
        if !next < per_pass && Clock.now () < stop then begin
          send c (request_at !next);
          incr next
        end
      in
      Array.iter send_next s.cs;
      let outstanding () = Array.exists (fun c -> c.out <> None) s.cs in
      while outstanding () do
        let fds =
          List.filter_map
            (fun c -> if c.out <> None then Some c.client.fd else None)
            (Array.to_list s.cs)
        in
        let ready, _, _ = Unix.select fds [] [] 30.0 in
        if ready = [] then raise (Daemon_gone "no response within 30 s");
        List.iter
          (fun fd ->
            let c = Array.to_list s.cs |> List.find (fun c -> c.client.fd = fd) in
            let lines = read_lines c in
            let t_recv = Clock.now () in
            List.iter
              (fun line ->
                match c.out with
                | Some o ->
                    c.out <- None;
                    check tracing o t_recv line;
                    send_next c
                | None -> Meter.fail tally "unsolicited response")
              lines)
          ready
      done;
      let b1 = Clock.now () in
      Meter.record (if tracing then batches_traced else batches_plain) ~t_end:b1 (b1 - b0);
      Meter.idle probes
    done
  in
  Meter.probe probes;
  let passes =
    Meter.run_passes probes ~seconds:ctx.seconds ~min_passes:(if ctx.trace then 2 else 1) pass
  in
  let rss = Meter.peak_rss_mb (string_of_int s.pid) in
  let words = teardown s in
  let e2e, lat_notes = Meter.latency_metrics ctx probes plain ~busy:batches_plain in
  let hit_share = float_of_int !hits /. float_of_int !done_reqs in
  let mean x n = x /. float_of_int (max 1 n) in
  {
    Meter.tally;
    e2e =
      e2e
      @ [
          Meter.metric "peak_rss_mb" "MB" rss;
          Meter.metric "alloc_mb_per_op" "MB" (words *. 8.0 /. float_of_int s.sent /. 1e6);
        ];
    extras =
      (if acc.n = 0 then []
       else
         [
           Meter.metric "tracing_overhead" "ratio"
             (Meter.overhead probes ~plain ~traced ~busy_plain:batches_plain
                ~busy_traced:batches_traced);
           Meter.metric "serve.queue_us" "us" (mean acc.queue_us acc.n);
           Meter.metric "serve.cache_us" "us" (mean acc.cache_us acc.n);
           Meter.metric "serve.work_us.hit" "us" (mean acc.work_hit acc.n_hit);
           Meter.metric "serve.work_us.miss" "us" (mean acc.work_miss acc.n_miss);
           Meter.metric "client.codec_us" "us" (mean (acc.codec_ns /. 1e3) acc.n);
           Meter.metric "client.transport_us" "us" (mean acc.transport_us acc.n);
           Meter.metric "serve.hit_share" "fraction" hit_share;
         ]
         @ List.map
             (fun stage ->
               let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc.stages stage) in
               Meter.metric ("serve.stage_us." ^ stage) "us" (mean t n))
             [ "frontend"; "check"; "vectorize"; "recheck"; "simplify" ]);
    traced_ops = acc.n;
    notes =
      lat_notes
      @ [
        Fmt.str "hit_share %.6f fraction (%d of %d requests answered from cache)"
          hit_share !hits !done_reqs;
        Fmt.str "%d passes of %d requests over %d connection(s); daemon allocated %.0f words"
          passes per_pass conns words;
      ];
  }
