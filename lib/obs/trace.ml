(** Span-based tracer with Chrome [trace_event] export.

    Disabled by default: the fast path is one [Atomic.get] per
    [with_span] call, so instrumented code costs nothing in normal runs
    and the figure tables stay byte-identical.  When enabled, completed
    spans, instants and counter samples land in a fixed-capacity ring
    buffer guarded by a mutex — [Pparallel.Pool] worker domains emit
    concurrently; when the ring is full the oldest events are dropped
    and counted.

    Timestamps come from a monotonic microsecond clock
    ([Unix.gettimeofday] clamped to be non-decreasing across domains),
    so span durations are non-negative even if the wall clock steps.

    Export formats:
    - [write_chrome]: Chrome/Perfetto [trace_event] JSON — complete
      events ([ph:"X"]), instants ([ph:"i"]) and counters ([ph:"C"]) —
      loadable in chrome://tracing.
    - [pp_summary]: human-readable aggregate tree, nesting reconstructed
      from time containment per thread. *)

type event =
  | Span of {
      name : string;
      cat : string;
      tid : int;
      ts_us : int;  (** start, µs since [epoch_us] *)
      dur_us : int;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      tid : int;
      ts_us : int;
      args : (string * string) list;
    }
  | Counter of { name : string; tid : int; ts_us : int; value : int }

(* -- monotonic clock -- *)

(* First timestamp of the process; subtracted so trace files start near
   t=0 and µs fit comfortably in an int. *)
let epoch_us = int_of_float (Unix.gettimeofday () *. 1e6)

let last_us = Atomic.make 0

(* Strictly increasing: a CAS loop over an int atomic (floats would
   compare by physical equality and livelock).  Each observation ticks
   at least 1 µs past the previous one, so no two events ever share a
   timestamp — [pp_summary]'s nesting reconstruction depends on span
   intervals being strictly ordered (two zero-length spans at the same
   µs are ambiguous: the forest it rebuilt from them was wrong often
   enough to flake the suite).  The clock only runs ahead of wall time
   when events arrive faster than 1/µs, and by at most one µs each. *)
let rec now_us () =
  let raw = int_of_float (Unix.gettimeofday () *. 1e6) - epoch_us in
  let prev = Atomic.get last_us in
  let next = if raw > prev then raw else prev + 1 in
  if Atomic.compare_and_set last_us prev next then next else now_us ()

(* -- state -- *)

let enabled = Atomic.make false

type ring = {
  mutable buf : event option array;
  mutable head : int;  (** next write slot *)
  mutable count : int;  (** live events, <= capacity *)
  mutable dropped : int;
}

let lock = Mutex.create ()

let ring = { buf = [||]; head = 0; count = 0; dropped = 0 }

let default_capacity = 65536

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  Mutex.protect lock (fun () ->
      ring.buf <- Array.make capacity None;
      ring.head <- 0;
      ring.count <- 0;
      ring.dropped <- 0);
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let clear () =
  Mutex.protect lock (fun () ->
      Array.fill ring.buf 0 (Array.length ring.buf) None;
      ring.head <- 0;
      ring.count <- 0;
      ring.dropped <- 0)

(* spans silently discarded when the ring wraps are easy to mistake for
   a complete trace; the count is surfaced three ways — this gauge, a
   warning on export, and "truncated"/"droppedEvents" fields inside the
   Chrome JSON itself *)
let m_dropped =
  Metrics.gauge "trace.dropped_events"
    ~help:"events discarded because the trace ring buffer wrapped"

let push ev =
  let dropped_now =
    Mutex.protect lock (fun () ->
        let cap = Array.length ring.buf in
        if cap = 0 then ring.dropped <- ring.dropped + 1
        else begin
          if ring.count = cap then ring.dropped <- ring.dropped + 1
          else ring.count <- ring.count + 1;
          ring.buf.(ring.head) <- Some ev;
          ring.head <- (ring.head + 1) mod cap
        end;
        ring.dropped)
  in
  if dropped_now > 0 then Metrics.set m_dropped dropped_now

let dropped () = Mutex.protect lock (fun () -> ring.dropped)

(** Buffered events, oldest first. *)
let events () =
  Mutex.protect lock (fun () ->
      let cap = Array.length ring.buf in
      if cap = 0 then []
      else begin
        let start = (ring.head - ring.count + cap) mod cap in
        List.init ring.count (fun i ->
            match ring.buf.((start + i) mod cap) with
            | Some ev -> ev
            | None -> assert false)
      end)

(* -- recording -- *)

let tid () = (Domain.self () :> int)

(** [with_span name f] runs [f ()] under a span.  The span is recorded
    even if [f] raises (so a failing pass still shows in the trace);
    [extra] lets [f] attach result attributes, e.g. instruction counts,
    discovered only after it finishes. *)
let with_span ?(cat = "") ?(args = []) ?extra name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        let args =
          match extra with Some g -> args @ g () | None -> args
        in
        push (Span { name; cat; tid = tid (); ts_us = t0; dur_us = t1 - t0; args }))
      f
  end

let instant ?(cat = "") ?(args = []) name =
  if Atomic.get enabled then
    push (Instant { name; cat; tid = tid (); ts_us = now_us (); args })

let counter name value =
  if Atomic.get enabled then
    push (Counter { name; tid = tid (); ts_us = now_us (); value })

(* -- Chrome trace_event export -- *)

let args_json args =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)

let event_json = function
  | Span { name; cat; tid; ts_us; dur_us; args } ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("cat", Json.Str (if cat = "" then "default" else cat));
          ("ph", Json.Str "X");
          ("ts", Json.Int ts_us);
          ("dur", Json.Int dur_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", args_json args);
        ]
  | Instant { name; cat; tid; ts_us; args } ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("cat", Json.Str (if cat = "" then "default" else cat));
          ("ph", Json.Str "i");
          ("ts", Json.Int ts_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("s", Json.Str "t");
          ("args", args_json args);
        ]
  | Counter { name; tid; ts_us; value } ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "C");
          ("ts", Json.Int ts_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("value", Json.Int value) ]);
        ]

let to_json () =
  let evs = events () in
  let d = dropped () in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str "parsimony") ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (meta :: List.map event_json evs));
      ("displayTimeUnit", Json.Str "ms");
      (* self-describing truncation: a reader of the file alone can tell
         whether the ring wrapped, without the exporter's stderr *)
      ("truncated", Json.Bool (d > 0));
      ("droppedEvents", Json.Int d);
    ]

let write_chrome file =
  let d = dropped () in
  if d > 0 then
    Logs.warn (fun m ->
        m "trace ring overflowed: %d event(s) dropped (oldest first)" d);
  Json.write file (to_json ())

(* -- human-readable summary -- *)

(* Nesting is reconstructed per tid by time containment: spans sorted
   by (start asc, duration desc) form a forest where a span is a child
   of the nearest earlier span that fully contains it.  Chrome does the
   same with complete events. *)

type node = {
  span_name : string;
  start : int;
  stop : int;
  mutable children : node list;
}

let build_forest spans =
  let sorted =
    List.sort
      (fun (a : node) b ->
        if a.start <> b.start then compare a.start b.start
        else compare (b.stop - b.start) (a.stop - a.start))
      spans
  in
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun n ->
      let rec unwind () =
        match !stack with
        | top :: rest when n.stop > top.stop || n.start >= top.stop ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | top :: _ -> top.children <- top.children @ [ n ]
      | [] -> roots := !roots @ [ n ]);
      stack := n :: !stack)
    sorted;
  !roots

(* Aggregate sibling spans with the same name so a pass run 72 times
   prints one line with count and total. *)
type agg = { agg_name : string; count : int; total_us : int; kids : agg list }

let rec aggregate nodes : agg list =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
      match Hashtbl.find_opt tbl n.span_name with
      | None ->
          order := !order @ [ n.span_name ];
          Hashtbl.replace tbl n.span_name (1, n.stop - n.start, n.children)
      | Some (c, tot, kids) ->
          Hashtbl.replace tbl n.span_name
            (c + 1, tot + (n.stop - n.start), kids @ n.children))
    nodes;
  List.map
    (fun name ->
      let c, tot, kids = Hashtbl.find tbl name in
      { agg_name = name; count = c; total_us = tot; kids = aggregate kids })
    !order

let pp_summary ppf () =
  let evs = events () in
  let spans =
    List.filter_map
      (function
        | Span { name; tid; ts_us; dur_us; _ } ->
            Some (tid, { span_name = name; start = ts_us; stop = ts_us + dur_us; children = [] })
        | _ -> None)
      evs
  in
  let tids = List.sort_uniq compare (List.map fst spans) in
  let rec pp_agg indent (a : agg) =
    Fmt.pf ppf "%s%-*s %4dx %10.3f ms@." indent
      (max 1 (42 - String.length indent))
      a.agg_name a.count
      (float_of_int a.total_us /. 1000.);
    List.iter (pp_agg (indent ^ "  ")) a.kids
  in
  List.iter
    (fun tid ->
      let mine = List.filter_map (fun (t, n) -> if t = tid then Some n else None) spans in
      if mine <> [] then begin
        Fmt.pf ppf "-- thread %d --@." tid;
        List.iter (pp_agg "") (aggregate (build_forest mine))
      end)
    tids;
  let d = dropped () in
  if d > 0 then Fmt.pf ppf "(%d event(s) dropped: ring buffer full)@." d
