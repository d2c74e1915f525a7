(** Self-contained JSON tree: emitter and parser.

    The observability layer both *writes* JSON (Chrome trace files) and
    needs to *read it back* (the test suite and the trace self-check
    validate that an emitted file is well-formed without any external
    tooling).  The environment carries no JSON package, so this is a
    small, complete implementation of RFC 8259 minus the corners the
    tracer never produces (surrogate-pair escapes are accepted but not
    recombined; numbers parse with [float_of_string]).

    Non-finite floats have no JSON representation and are emitted as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- emission -- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* shortest representation that still reparses as a Float: integral
   values keep a trailing ".0" so a round trip through [parse] preserves
   the Int/Float distinction *)
let float_repr f =
  let s = Fmt.str "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      if Float.is_finite f then Fmt.string ppf (float_repr f)
      else Fmt.string ppf "null"
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | Arr xs -> Fmt.pf ppf "[@[<hv>%a@]]" Fmt.(list ~sep:(any ",@ ") pp) xs
  | Obj kvs ->
      Fmt.pf ppf "{@[<hv>%a@]}"
        Fmt.(
          list ~sep:(any ",@ ") (fun ppf (k, v) ->
              Fmt.pf ppf "\"%s\":@ %a" (escape k) pp v))
        kvs

let to_string v = Fmt.str "%a" pp v

(** Single-line emission, for JSONL stores where one value must occupy
    exactly one line (the pretty-printer inserts line breaks). *)
let rec pp_compact ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      if Float.is_finite f then Fmt.string ppf (float_repr f)
      else Fmt.string ppf "null"
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | Arr xs ->
      Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ",") pp_compact) xs
  | Obj kvs ->
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ",") (fun ppf (k, v) ->
              Fmt.pf ppf "\"%s\":%a" (escape k) pp_compact v))
        kvs

let to_string_compact v = Fmt.str "%a" pp_compact v

let write file v =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v ^ "\n"))

(* -- parsing -- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let perr fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> perr "at %d: expected '%c', got '%c'" c.pos ch x
  | None -> perr "at %d: expected '%c', got end of input" c.pos ch

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else perr "at %d: expected %s" c.pos word

let parse_string_body c =
  (* called just past the opening quote *)
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> perr "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
        | Some ('"' | '\\' | '/') ->
            Buffer.add_char b c.src.[c.pos];
            advance c;
            go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then perr "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> perr "bad \\u escape %S" hex
            in
            c.pos <- c.pos + 4;
            (* encode as UTF-8; unpaired surrogates pass through as-is *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> perr "bad escape at %d" c.pos)
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek c with Some ch when is_num_char ch -> true | _ -> false
  do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> perr "at %d: bad number %S" start s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> perr "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '"' ->
      advance c;
      Str (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> perr "at %d: expected ',' or ']'" c.pos
        in
        Arr (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let member () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> perr "at %d: expected ',' or '}'" c.pos
        in
        Obj (members [])
      end
  | Some ch -> perr "at %d: unexpected character '%c'" c.pos ch

(** Parse a complete JSON document; raises [Parse_error] on malformed
    input (including trailing garbage). *)
let parse (s : string) : t =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then perr "trailing garbage at %d" c.pos;
  v

(** [parse] that reports failure as a value instead of an exception —
    the wire decoder and the serve daemon want errors they can frame. *)
let parse_result (s : string) : (t, string) result =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

let parse_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

(* -- incremental wire framing -- *)

(** Newline-delimited JSON frame decoder for the serve wire protocol.

    A peer writes one compact JSON value per line ([pp_compact] never
    emits a raw newline, so framing on ['\n'] is unambiguous).  The
    decoder is incremental: [feed] accepts arbitrary read-sized chunks —
    a frame split across ten reads and ten frames in one read both
    decode identically — and every malformed input becomes an explicit
    [error] instead of whatever exception falls out of [parse]:

    - [Syntax]: a complete line that is not one well-formed JSON value
      (including trailing garbage after the value);
    - [Oversized]: a line longer than [max_bytes].  Reported once when
      the limit is crossed, then the rest of the line is discarded so
      the stream can resynchronize at the next newline;
    - [Truncated]: the connection closed with a partial frame pending
      ([finish] reports it; [feed] cannot know the stream ended).

    Blank lines are ignored (a tolerant framing that lets clients keep
    the connection warm).  Decoders are single-connection state and are
    not thread-safe; the daemon owns one per client fd. *)
module Frame = struct
  type error =
    | Oversized of int  (** frame longer than the decoder's byte limit *)
    | Truncated of int  (** stream ended with this many bytes pending *)
    | Syntax of string  (** complete frame, malformed JSON *)

  let error_to_string = function
    | Oversized limit -> Fmt.str "frame exceeds %d bytes" limit
    | Truncated n -> Fmt.str "stream ended with %d byte(s) of partial frame" n
    | Syntax msg -> "bad JSON: " ^ msg

  type decoder = {
    dbuf : Buffer.t;  (** bytes of the current (incomplete) frame *)
    dmax : int;
    mutable ddropping : bool;
        (** an oversized frame was reported; swallow to the next newline *)
  }

  let default_max_bytes = 8 * 1024 * 1024

  let decoder ?(max_bytes = default_max_bytes) () =
    if max_bytes < 1 then invalid_arg "Frame.decoder: max_bytes must be >= 1";
    { dbuf = Buffer.create 256; dmax = max_bytes; ddropping = false }

  (** Bytes buffered for a not-yet-terminated frame. *)
  let pending d = Buffer.length d.dbuf

  let decode_line line =
    if String.trim line = "" then None
    else
      match parse line with
      | v -> Some (Ok v)
      | exception Parse_error msg -> Some (Error (Syntax msg))

  (** Feed a chunk of bytes; returns the decoded frames (and frame
      errors) completed by this chunk, in stream order. *)
  let feed d chunk : (t, error) result list =
    let out = ref [] in
    let emit r = out := r :: !out in
    let n = String.length chunk in
    let i = ref 0 in
    while !i < n do
      match String.index_from_opt chunk !i '\n' with
      | Some j ->
          let seg = String.sub chunk !i (j - !i) in
          i := j + 1;
          if d.ddropping then
            (* the newline ends the over-long frame; resynchronize *)
            d.ddropping <- false
          else begin
            Buffer.add_string d.dbuf seg;
            let line = Buffer.contents d.dbuf in
            Buffer.clear d.dbuf;
            if String.length line > d.dmax then emit (Error (Oversized d.dmax))
            else match decode_line line with Some r -> emit r | None -> ()
          end
      | None ->
          let seg = String.sub chunk !i (n - !i) in
          i := n;
          if not d.ddropping then begin
            Buffer.add_string d.dbuf seg;
            if Buffer.length d.dbuf > d.dmax then begin
              Buffer.clear d.dbuf;
              d.ddropping <- true;
              emit (Error (Oversized d.dmax))
            end
          end
    done;
    List.rev !out

  (** Signal end-of-stream: reports a pending partial frame, if any.
      The decoder is reusable afterwards. *)
  let finish d : error option =
    if d.ddropping then begin
      d.ddropping <- false;
      Some (Oversized d.dmax)
    end
    else if Buffer.length d.dbuf > 0 then begin
      let n = Buffer.length d.dbuf in
      Buffer.clear d.dbuf;
      Some (Truncated n)
    end
    else None
end

(* -- accessors (for tests and the trace self-check) -- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None
