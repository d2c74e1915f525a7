(** [Logs] reporter setup shared by [psimc] and the benchmark harness.

    The repo's library code logs through [Logs.Src "parsimony"] (and
    friends); without a reporter those messages are silently dropped.
    [setup] installs a stderr reporter with the level resolved from, in
    precedence order: the explicit [?level] argument (a [--verbosity]
    flag), the [PARSIMONY_LOG] environment variable, then a default of
    [Warning]. *)

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "off" | "none" -> Ok None
  | "app" -> Ok (Some Logs.App)
  | "error" -> Ok (Some Logs.Error)
  | "warning" | "warn" -> Ok (Some Logs.Warning)
  | "info" -> Ok (Some Logs.Info)
  | "debug" -> Ok (Some Logs.Debug)
  | _ ->
      Error
        (Fmt.str
           "bad log level %S (expected quiet|app|error|warning|info|debug)" s)

let env_level () =
  match Sys.getenv_opt "PARSIMONY_LOG" with
  | None | Some "" -> None
  | Some s -> (
      match level_of_string s with
      | Ok l -> Some l
      | Error msg ->
          (* a bad env var shouldn't kill the run; mention it on stderr *)
          Fmt.epr "PARSIMONY_LOG: %s@." msg;
          None)

(* [Logs_fmt]'s reporter writes straight into the shared [Fmt.stderr]
   formatter, whose pretty-printing queue is not domain-safe: two pool
   domains logging at once (the serve daemon's workers) interleaved
   lines and raised [Queue.Empty].  So each message is reported whole
   under one lock. *)
let reporter =
  let lock = Mutex.create () and inner = Logs_fmt.reporter ~dst:Fmt.stderr () in
  let report src level ~over k msgf =
    Mutex.protect lock (fun () -> inner.Logs.report src level ~over k msgf)
  in
  { Logs.report }

let setup ?level () =
  let resolved =
    match level with
    | Some l -> l
    | None -> (
        match env_level () with
        | Some l -> l
        | None -> Some Logs.Warning)
  in
  Logs.set_level resolved;
  Logs.set_reporter reporter
