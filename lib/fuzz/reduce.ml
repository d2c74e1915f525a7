(** Delta-debugging reducer: shrink a failing program to a (locally)
    minimal PsimC source that still fails *in the same triage bucket*.

    Because the generator builds programs as a typed AST ({!Gen}), the
    reducer never manipulates text: every candidate is a transformed AST
    re-rendered through {!Gen.render}, so candidates are syntactically
    well-formed by construction.  A transformation can still produce a
    semantically invalid program (e.g. removing a declaration whose
    variable is used later) — that is harmless, because the compile
    error lands in a different triage bucket and the candidate is simply
    rejected by the predicate.

    The search is greedy hierarchical delta debugging: at each step,
    candidates are tried from coarsest to finest —

    1. drop the float result / the local arrays wholesale;
    2. remove one statement (at any nesting depth);
    3. collapse structure: replace an [if] / head-tail split by one of
       its arms, unroll a loop to a single body execution, replace a
       shuffle by a plain copy of its source;
    4. shrink one expression to a type-matched constant or to one of its
       own type-matched proper subexpressions —

    and the first candidate that still fails restarts the search from
    that smaller program.  The process stops at a fixpoint (no candidate
    fails) or when the test budget runs out.  Since {!Gen.render} only
    emits the preamble bindings a program actually uses, statement-level
    shrinking also shrinks the preamble for free. *)

open Gen

(* -- expression shrinking -- *)

let rec subexprs (e : expr) : expr list =
  match e with
  | Ei _ | Ef _ | Ev _ -> []
  | Ebin (_, a, b) | Emm (_, a, b) -> [ a; b ]
  | Eshr (a, _) | Eabs a -> [ a ]
  | Etof _ -> []  (* the operand is an int; not type-preserving *)
  | Esel (_, a, b) -> [ a; b ]
  | Eld (_, Msk (a, _)) -> if ty_of e = ty_of a then [ a ] else []
  | Eld (_, Aff _) -> []

(** Type-preserving shrink candidates for [e], simplest first. *)
and shrink_expr (e : expr) : expr list =
  let consts =
    match e with
    | Ei _ | Ef _ -> []  (* already minimal *)
    | _ -> ( match ty_of e with I32 -> [ Ei 0; Ei 1 ] | F32 -> [ Ef 0.0; Ef 1.0 ])
  in
  let ty = ty_of e in
  consts @ List.filter (fun s -> ty_of s = ty) (subexprs e)

(* -- statement-list shrinking -- *)

(* every variant of [ss] obtained by one local transformation; each
   entry is a full replacement list.  Removals come first (coarse), then
   structure collapses, then expression shrinks (fine). *)
let rec variants_stmts (ss : stmt list) : stmt list list =
  match ss with
  | [] -> []
  | s :: rest ->
      (rest :: List.map (fun repl -> repl @ rest) (variants_stmt s))
      @ List.map (fun rest' -> s :: rest') (variants_stmts rest)

(* variants of a single statement, each rendered as the statement list
   that replaces it *)
and variants_stmt (s : stmt) : stmt list list =
  match s with
  | Sif (c, t, e) ->
      [ t; e ]
      @ List.map (fun t' -> [ Sif (c, t', e) ]) (variants_stmts t)
      @ List.map (fun e' -> [ Sif (c, t, e') ]) (variants_stmts e)
      @ List.map
          (fun (cl, cr) -> [ Sif ({ c with cl; cr }, t, e) ])
          (shrink_cond c)
  | Shtif (t, e) ->
      [ t; e ]
      @ List.map (fun t' -> [ Shtif (t', e) ]) (variants_stmts t)
      @ List.map (fun e' -> [ Shtif (t, e') ]) (variants_stmts e)
  | Sloop (k, bound, body) ->
      (* unroll to one execution: keep the counter binding (the body may
         read it), run the body once *)
      (Sdecl (I32, k, Emm ("min", Emm ("max", bound, Ei (-8)), Ei 8)) :: body)
      :: List.map (fun body' -> [ Sloop (k, bound, body') ]) (variants_stmts body)
      @ List.map (fun b' -> [ Sloop (k, b', body) ]) (shrink_expr bound)
  | Sshuf (v, src, e) ->
      [ Sdecl (I32, v, Ev src) ]
      :: List.map (fun e' -> [ Sshuf (v, src, e') ]) (shrink_expr e)
  | Sdecl (ty, v, e) ->
      List.map (fun e' -> [ Sdecl (ty, v, e') ]) (shrink_expr e)
  | Sassign (v, e) -> List.map (fun e' -> [ Sassign (v, e') ]) (shrink_expr e)
  | Sstore (buf, idx, e) ->
      List.map (fun e' -> [ Sstore (buf, idx, e') ]) (shrink_expr e)
      @ (match idx with
        | Msk (ie, m) ->
            List.map (fun ie' -> [ Sstore (buf, Msk (ie', m), e) ]) (shrink_expr ie)
        | Aff _ -> [])
  | Ssync -> []

and shrink_cond (c : cond) : (expr * expr) list =
  List.map (fun cl -> (cl, c.cr)) (shrink_expr c.cl)
  @ List.map (fun cr -> (c.cl, cr)) (shrink_expr c.cr)

(* -- whole-program candidates, coarsest first -- *)

let prog_variants (p : prog) : prog list =
  (match p.fresult with Some _ -> [ { p with fresult = None } ] | None -> [])
  @ (match p.arrays with [] -> [] | _ -> [ { p with arrays = [] } ])
  @ List.map (fun body -> { p with body }) (variants_stmts p.body)
  @ List.map (fun result -> { p with result }) (shrink_expr p.result)
  @
  match p.fresult with
  | Some e -> List.map (fun e' -> { p with fresult = Some e' }) (shrink_expr e)
  | None -> []

(* the bound on predicate evaluations per reduction *)
let max_tests = 400

(** Greedily shrink [p] while [still_fails] holds (the caller's
    predicate should re-run the oracle and require the same triage
    bucket).  Returns the reduced program and the number of predicate
    evaluations spent.  [max_tests] bounds the work on pathological
    inputs; the result is then the best program found so far. *)
let reduce (still_fails : prog -> bool) (p0 : prog) : prog * int =
  let tests = ref 0 in
  let check p =
    if !tests >= max_tests then false
    else begin
      incr tests;
      still_fails p
    end
  in
  let rec go p =
    if !tests >= max_tests then p
    else
      match List.find_opt check (prog_variants p) with
      | Some smaller -> go smaller
      | None -> p
  in
  let reduced = go p0 in
  (reduced, !tests)
