(** Structured optimization remarks, modeled on LLVM's [-Rpass] family.

    Passes report *why* they did or didn't transform something:
    - [Passed]   — a transformation was applied ([-Rpass]);
    - [Missed]   — a transformation was possible but not applied
                   ([-Rpass-missed]);
    - [Analysis] — a fact the pass established that explains its
                   decisions ([-Rpass-analysis]), e.g. the shape class
                   of a memory operation.

    Three collection modes:
    - [Off]    — [emit] skips even the argument formatting
                 ([Format.ikfprintf]), so instrumented passes cost
                 nothing by default;
    - [Counts] — only per-(pass, kind) tallies are kept; used by the
                 benchmark harness to fold remark counts into [--json]
                 without the allocation cost of full text;
    - [Full]   — complete remark records are buffered for printing.

    Collection is mutex-guarded: the figure sweeps compile kernels on
    [Pparallel.Pool] worker domains. *)

type kind = Passed | Missed | Analysis

let kind_name = function
  | Passed -> "passed"
  | Missed -> "missed"
  | Analysis -> "analysis"

type t = { kind : kind; pass : string; func : string; msg : string }

type mode = Off | Counts | Full

let mode = Atomic.make Off

let set_mode m = Atomic.set mode m

let active () = Atomic.get mode <> Off

let lock = Mutex.create ()

let buffer : t list ref = ref []  (* newest first *)

let tallies : (string * kind, int) Hashtbl.t = Hashtbl.create 16

(* remark volume also lands in the metrics registry (labeled by pass and
   kind), so a single [Metrics.snapshot] sees what the passes reported *)
let m_remarks =
  Metrics.counter "remarks.emitted"
    ~help:"optimization remarks recorded, by pass and kind"

let record r =
  Mutex.protect lock (fun () ->
      let key = (r.pass, r.kind) in
      Hashtbl.replace tallies key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tallies key));
      if Atomic.get mode = Full then buffer := r :: !buffer);
  Metrics.incr
    ~labels:[ ("pass", r.pass); ("kind", kind_name r.kind) ]
    m_remarks

(** [emit kind ~pass ~func fmt ...] — no-op (including argument
    formatting) unless a mode is active. *)
let emit kind ~pass ~func fmt =
  match Atomic.get mode with
  | Off -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Counts ->
      (* tally without rendering the message *)
      record { kind; pass; func; msg = "" };
      Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Full -> Fmt.kstr (fun msg -> record { kind; pass; func; msg }) fmt

let clear () =
  Mutex.protect lock (fun () ->
      buffer := [];
      Hashtbl.reset tallies)

(** All buffered remarks in emission order ([Full] mode only). *)
let drain () =
  Mutex.protect lock (fun () ->
      let rs = List.rev !buffer in
      buffer := [];
      rs)

(** Per-(pass, kind) counts, sorted by pass name then kind, so output
    is deterministic across runs and job counts. *)
let counts () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun (pass, kind) n acc -> (pass, kind, n) :: acc) tallies []
      |> List.sort (fun (p1, k1, _) (p2, k2, _) ->
             match compare p1 p2 with 0 -> compare k1 k2 | c -> c))

let pp ppf r =
  Fmt.pf ppf "remark: %s: [%s] %s: %s" r.func r.pass
    (String.capitalize_ascii (kind_name r.kind))
    r.msg

(** Run [f] with remarks collected in [m], restoring the previous mode
    and returning the collected remarks alongside [f]'s result.  Used
    by [psimc] and the tests; clears any previously buffered remarks. *)
let collect m f =
  let prev = Atomic.get mode in
  clear ();
  set_mode m;
  Fun.protect
    ~finally:(fun () -> set_mode prev)
    (fun () ->
      let x = f () in
      (x, drain ()))
