(** Failure triage: map every oracle failure to a short, *stable* bucket
    signature.

    Buckets drive three things: the reducer's predicate ("the shrunk
    program must fail in the same bucket", so reduction never wanders
    from one bug to a different one), corpus file naming, and the
    failure tally the driver prints.  Stability matters more than
    detail, so buckets are built from the failing configuration name and
    the exception *constructor*, never from free-form messages (which
    embed value numbers and would split one bug across many buckets). *)

(** Collapse an exception to a stable tag. *)
let exn_tag = function
  | Pmachine.State.Trap _ -> "trap"
  | Pmachine.Memory.Fault _ -> "fault"
  | Pfrontend.Lower.Error _ -> "lower"
  | Parsimony.Vectorizer.Unvectorizable _ -> "unvectorizable"
  | Pbackend.Legalize.Unsupported _ -> "unsupported"
  | Failure _ -> "failure"
  | Invalid_argument _ -> "invalid"
  | _ -> "exn"

(** The vectorized/legalized output differs from the reference. *)
let diff ~config = "diff:" ^ config

(** The SLP-packed output differs from the reference: its own family so
    a packing bug never hides in the [diff:] tally of the widening
    configurations (the CI smoke job requires this family empty). *)
let slp ~config = "slp:" ^ config

(** A [diff:] failure the translation-validation checker re-triaged
    with a concrete counterexample on [config]'s own kernel: a proven
    miscompile of the transformed code. *)
let miscompile ~config = "miscompile:" ^ config

(** A [diff:] failure where the checker *proved* [config]'s kernel
    equivalent to the reference on the very inputs the oracle ran: the
    divergence originates outside the transformed kernel. *)
let costmodel ~config = "costmodel:" ^ config

(** The [diff:]/[slp:] prefix families, for the reducer and the
    checker-backed re-triage (an SLP mismatch refines to [miscompile:]
    or [costmodel:] exactly like a widening mismatch). *)
let diff_config (bucket : string) : string option =
  let strip p =
    if
      String.length bucket > String.length p
      && String.sub bucket 0 (String.length p) = p
    then
      Some (String.sub bucket (String.length p) (String.length bucket - String.length p))
    else None
  in
  match strip "diff:" with Some _ as c -> c | None -> strip "slp:"

(** Oracle machinery raised outside any configuration's compile or
    execute path (sanitizer runner, profile comparison, ...): an
    infrastructure failure that must not kill the worker pool. *)
let oracle_exn e = Fmt.str "oracle:%s" (exn_tag e)

(** Execution of [config] raised (trap, memory fault, ...). *)
let exec_exn ~config e = Fmt.str "exec:%s:%s" config (exn_tag e)

(** The pass pipeline for [config] raised. *)
let compile_exn ~config e = Fmt.str "compile:%s:%s" config (exn_tag e)

(** psan reported a proven error on a program that is race-free and
    in-bounds by construction: a sanitizer soundness bug. *)
let psan ~check = "psan:" ^ check

(** The register VM diverged from the interpreter on the same module
    (different output buffers or cycle/instruction totals): an
    execution-engine bug, not a vectorizer bug. *)
let vm ~config = "vm:" ^ config

(** Execution under the register VM raised where the interpreter ran the
    same module to completion. *)
let vm_exn ~config e = Fmt.str "vm:%s:%s" config (exn_tag e)

(** The engines' per-block cycle attributions disagree on the same
    module, or an engine's attribution fails to sum to its own [Stats]
    totals: a profiling bug, not a vectorizer bug. *)
let profile ~config = "profile:" ^ config

(** Re-executing [config] with attribution enabled raised. *)
let profile_exn ~config e = Fmt.str "profile:%s:%s" config (exn_tag e)

(** Bucket rendered safe for use in a corpus file name. *)
let filename_of_bucket bucket =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ch
      | _ -> '-')
    bucket

(** Tally buckets, sorted by descending count then name. *)
let group (buckets : string list) : (string * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    buckets;
  Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl []
  |> List.sort (fun (b1, n1) (b2, n2) ->
         if n1 <> n2 then compare n2 n1 else compare b1 b2)
