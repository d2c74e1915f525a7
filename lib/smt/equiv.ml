(** Bounded equivalence checking of two PIR functions via the
    {!Symexec} symbolic evaluator — the driver behind
    `psimc verify-kernel` and the fuzz reducer's miscompile triage.

    Given a reference function (typically the serial SPMD kernel) and a
    candidate (the vectorized/legalized version), both are executed
    symbolically on identical inputs drawn from small bounded domains.
    Inputs that never steer control stay symbolic and are compared
    structurally (hash-consing identity, then AC canonicalization, then
    exhaustive enumeration of the residual support).  Inputs that do
    steer control — branch conditions, addresses, masks — are
    concretized lazily: the evaluator names exactly the variables it
    needs, the driver enumerates their domains with an odometer, and
    every enumerated case is a genuine native-width execution.

    Verdicts are three-valued.  [Proved] means every non-vacuous case
    compared equal — equivalence over the bounded domain.  [Refuted]
    carries a concrete witness assignment plus a lane-level diff of the
    output buffers (or the fault that fired).  [Bounded] means the
    state space or the evaluator's model was exceeded: no claim. *)

open Pir

type opts = {
  max_cases : int;  (** execution budget: product of concretized domains *)
  residual_budget : int;  (** per-comparison enumeration budget *)
  fuel : int;  (** instruction budget per execution, per side *)
}

let default_opts = { max_cases = 50_000; residual_budget = 65_536; fuel = 200_000 }

(* -- input specification -- *)

(** Initial contents of one buffer cell. *)
type cell = Csym  (** fresh symbolic input over the bounded domain *)
          | Ccint of int64
          | Ccfloat of float

type pspec =
  | Buf of {
      bname : string;
      bkind : Types.scalar;
      lo : int;  (** lowest modeled element index (negative = pre-slack) *)
      len : int;  (** number of modeled cells starting at [lo] *)
      init : int -> cell;  (** by element index in [lo .. lo+len-1] *)
    }
  | Sint of { sname : string; skind : Types.scalar; sdom : int64 array }
  | Sfloat of { sname : string; skind : Types.scalar; sdom : float array }
  | Kint of Types.scalar * int64  (** pinned concrete scalar *)
  | Kfloat of Types.scalar * float

(** Exactly-representable F32 dyadic values: sums and products stay
    exact, so float data that is only rearranged (not reassociated with
    rounding differences) still compares equal.  No NaN/Inf — a
    documented hole in the bound. *)
let float_palette = [| 0.0; 0.5; -1.0; 1.5; -2.0 |]

(** Domain of a [width]-bit-bounded integer input of kind [s]: all
    values of the kind when it is narrower than the bound, otherwise
    the signed [width]-bit window normalized at the kind's width. *)
let int_domain ~width (s : Types.scalar) =
  let kb = Types.scalar_bits s in
  let w = min width kb in
  Array.init (1 lsl w) (fun i ->
      Ints.norm kb (Int64.of_int (i - (if w = kb then 0 else 1 lsl (w - 1)))))

(** Input specification for one gang invocation of an SPMD function:
    symbolic windows around every pointer parameter, bounded symbolic
    scalars, gang number pinned to 0, and the thread count ranging over
    partial activations (partial gangs) or whole multiples. *)
let spmd_spec ~width ~extent ~slack (f : Func.t) : pspec list =
  let spmd = match f.Func.spmd with Some s -> s | None -> invalid_arg "Equiv.spmd_spec" in
  let n = List.length f.Func.params in
  List.mapi
    (fun i (_, ty) ->
      let name = Fmt.str "a%d" i in
      if i = n - 2 then Kint (Types.elem ty, 0L) (* gang_num *)
      else if i = n - 1 then
        let g = Int64.of_int spmd.Func.gang_size in
        Sint
          {
            sname = "num_threads";
            skind = Types.elem ty;
            sdom =
              (if spmd.Func.partial then
                 Array.init spmd.Func.gang_size (fun k -> Int64.of_int (k + 1))
               else [| g; Int64.mul 2L g |]);
          }
      else
        match ty with
        | Types.Ptr s ->
            Buf { bname = name; bkind = s; lo = -slack; len = extent + (2 * slack); init = (fun _ -> Csym) }
        | Types.Scalar s when Types.is_float_scalar s ->
            Sfloat { sname = name; skind = s; sdom = float_palette }
        | Types.Scalar s -> Sint { sname = name; skind = s; sdom = int_domain ~width s }
        | ty -> invalid_arg (Fmt.str "Equiv.spmd_spec: parameter of type %a" Types.pp ty))
    f.Func.params

(** Input specification for one invocation of a serial (non-SPMD)
    function — the reference side of SLP validation.  Pointer
    parameters get the same symbolic windows as {!spmd_spec}; integer
    scalars are bounded to [0 .. extent] because a serial kernel's
    scalars are element counts and small offsets, and trip counts past
    the modeled window would only add vacuous cases. *)
let serial_spec ~extent ~slack (f : Func.t) : pspec list =
  List.mapi
    (fun i (_, ty) ->
      let name = Fmt.str "a%d" i in
      match ty with
      | Types.Ptr s ->
          Buf
            {
              bname = name;
              bkind = s;
              lo = -slack;
              len = extent + (2 * slack);
              init = (fun _ -> Csym);
            }
      | Types.Scalar s when Types.is_float_scalar s ->
          Sfloat { sname = name; skind = s; sdom = float_palette }
      | Types.Scalar s ->
          Sint
            {
              sname = name;
              skind = s;
              sdom =
                Array.init (extent + 1) (fun k ->
                    Ints.norm (Types.scalar_bits s) (Int64.of_int k));
            }
      | ty ->
          invalid_arg (Fmt.str "Equiv.serial_spec: parameter of type %a" Types.pp ty))
    f.Func.params

(* -- verdicts -- *)

type counterexample = {
  cx_witness : (string * string) list;  (** input variable -> value *)
  cx_diffs : (string * int * string * string) list;
      (** buffer, element index, reference value, candidate value *)
  cx_fault : string option;  (** fault-based refutation *)
}

type verdict =
  | Proved of { cases : int; vacuous : int }
  | Refuted of { cx : counterexample; cases : int }
  | Bounded of { reason : string; cases : int }

let verdict_name = function
  | Proved _ -> "Proved"
  | Refuted _ -> "Counterexample"
  | Bounded _ -> "Bounded-out"

let verdict_cases = function
  | Proved { cases; _ } | Refuted { cases; _ } | Bounded { cases; _ } -> cases

let pp_counterexample ppf cx =
  (match cx.cx_fault with
  | Some m -> Fmt.pf ppf "fault: %s@," m
  | None -> ());
  if cx.cx_witness <> [] then
    Fmt.pf ppf "inputs: %a@,"
      Fmt.(list ~sep:(any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s=%s" n v))
      cx.cx_witness;
  List.iter
    (fun (buf, e, r, v) -> Fmt.pf ppf "%s[%d]: reference=%s candidate=%s@," buf e r v)
    cx.cx_diffs

let pp_verdict ppf = function
  | Proved { cases; vacuous } ->
      Fmt.pf ppf "Proved (%d cases, %d vacuous)" cases vacuous
  | Refuted { cx; cases } ->
      Fmt.pf ppf "@[<v>Counterexample (%d cases)@,%a@]" cases pp_counterexample cx
  | Bounded { reason; cases } -> Fmt.pf ppf "Bounded-out (%s; %d cases)" reason cases

(* -- enumeration driver -- *)

type domain = Symexec.domain

let nth_conc (d : domain) i : Symexec.conc =
  match d with
  | Symexec.Dint a -> Symexec.CI a.(i)
  | Symexec.Dfloat a -> Symexec.CF a.(i)

(* One symbolic run's materialized inputs. *)
type run_inputs = {
  ctx : Symexec.ctx;
  args : Symexec.sval list;
  st_ref : Symexec.state;
  st_vec : Symexec.state;
  buf_names : (int * string) list;  (** param-object oid -> display name *)
}

(* One input value as every case of a check sees it: a concrete
   constant, or an input variable that a case either concretizes
   (its name is forced) or leaves symbolic over [dom]. *)
type input =
  | Iconst of Types.scalar * Symexec.conc
  | Ivar of { name : string; kind : Types.scalar; dom : domain }

type param =
  | Pscalar of input
  | Pbuf of { bname : string; bkind : Types.scalar; lo : int; cells : input array }

(** What the cases of one check share, built once per {!check}: cell
    names, one domain per buffer (all its symbolic cells range over the
    same array) and the concrete cells and scalars. *)
let template ~width (spec : pspec list) : param list =
  List.map
    (function
      | Kint (s, v) -> Pscalar (Iconst (s, Symexec.CI v))
      | Kfloat (s, v) -> Pscalar (Iconst (s, Symexec.CF v))
      | Sint { sname; skind; sdom } ->
          Pscalar (Ivar { name = sname; kind = skind; dom = Symexec.Dint sdom })
      | Sfloat { sname; skind; sdom } ->
          Pscalar (Ivar { name = sname; kind = skind; dom = Symexec.Dfloat sdom })
      | Buf { bname; bkind; lo; len; init } ->
          let dom =
            if Types.is_float_scalar bkind then Symexec.Dfloat float_palette
            else Symexec.Dint (int_domain ~width bkind)
          in
          let cell e =
            match init e with
            | Ccint v -> Iconst (bkind, Symexec.CI v)
            | Ccfloat v -> Iconst (bkind, Symexec.CF v)
            | Csym -> Ivar { name = Fmt.str "%s[%d]" bname e; kind = bkind; dom }
          in
          Pbuf { bname; bkind; lo; cells = Array.init len (fun i -> cell (lo + i)) })
    spec

let input_expr ctx (forced : (string, Symexec.conc) Hashtbl.t) = function
  | Iconst (kind, Symexec.CI v) -> Symexec.int_const ctx kind v
  | Iconst (kind, Symexec.CF v) -> Symexec.float_const ctx kind v
  | Ivar { name; kind; dom } -> (
      match Hashtbl.find_opt forced name with
      | Some (Symexec.CI v) -> Symexec.int_const ctx kind v
      | Some (Symexec.CF v) -> Symexec.float_const ctx kind v
      | None -> Symexec.var_expr ctx (Symexec.fresh_var ctx ~name ~kind ~dom))

(** Build one case's initial states and the shared argument list from
    the check's {!template}.  A fresh context interns the inputs in
    template order, so variable and expression ids are the same in
    every case.  The two states hold *separate* cell arrays seeded with
    the *same* expressions, and objects are created in the same order,
    so base addresses and untouched cells coincide structurally. *)
let build_inputs (tmpl : param list) (forced : (string, Symexec.conc) Hashtbl.t) :
    run_inputs =
  let ctx = Symexec.create_ctx () in
  let st_ref = { Symexec.objs = [] } and st_vec = { Symexec.objs = [] } in
  let buf_names = ref [] in
  let args =
    List.map
      (function
        | Pscalar i -> Symexec.S (input_expr ctx forced i)
        | Pbuf { bname; bkind; lo; cells } ->
            let cells = Array.map (input_expr ctx forced) cells in
            let oref =
              Symexec.add_obj st_ref ~name:bname ~kind:bkind ~cells ~lo ~private_:false
            in
            let _ =
              Symexec.add_obj st_vec ~name:bname ~kind:bkind ~cells:(Array.copy cells)
                ~lo ~private_:false
            in
            buf_names := (oref.Symexec.oid, bname) :: !buf_names;
            Symexec.S (Symexec.int_const ctx Types.I64 (Symexec.obj_base oref.Symexec.oid)))
      tmpl
  in
  { ctx; args; st_ref; st_vec; buf_names = !buf_names }

type side_result =
  | RDone of Symexec.sval
  | RVac
  | RFault of string
  | RNeed of (string * domain) list
  | RBounded of string

let run_side ~opts ~lookup (st : Symexec.state) (ctx : Symexec.ctx) (f : Func.t) args :
    side_result =
  let xc = { Symexec.ctx; st; lookup; fuel = opts.fuel } in
  try RDone (Symexec.exec_func xc f args) with
  | Symexec.Need_conc vids ->
      RNeed
        (Symexec.Iset.fold
           (fun vid acc ->
             let v = Symexec.var_of ctx vid in
             (v.Symexec.vname, v.Symexec.vdom) :: acc)
           vids [])
  | Symexec.Out_of_model _ -> RVac
  | Symexec.Sym_fault m -> RFault m
  | Symexec.Unsupported m -> RBounded m
  | Symexec.Fuel_exhausted -> RBounded "instruction fuel exhausted"
  | Invalid_argument m -> RBounded ("evaluator: " ^ m)
  | Pmachine.State.Trap m -> RBounded ("trap: " ^ m)

(* Control variables that must be enumerated, in concretization order. *)
type conc_set = { mutable names : (string * domain) list (* newest last *) }

let witness_of forced extra =
  let all = Hashtbl.fold (fun n v acc -> (n, v) :: acc) forced extra in
  List.sort compare (List.map (fun (n, v) -> (n, Fmt.str "%a" Symexec.pp_conc v)) all)

exception Refute of counterexample
exception Bound of string
exception Restart

(** Compare the two sides' observable outputs (all shared param-buffer
    cells, plus scalar return values).  Structural identity first, AC
    canonicalization second, exhaustive enumeration of the residual
    support last.  Raises {!Refute} with a full lane-level diff under a
    single witness assignment if any location can disagree. *)
let compare_outputs ~opts (inp : run_inputs) (forced : (string, Symexec.conc) Hashtbl.t)
    (ret_ref : Symexec.sval) (ret_vec : Symexec.sval) (residual_cases : int ref) : unit =
  let ctx = inp.ctx in
  let pairs = ref [] in
  List.iter
    (fun (oid, bname) ->
      let oref = Symexec.find_obj inp.st_ref oid
      and ovec = Symexec.find_obj inp.st_vec oid in
      Array.iteri
        (fun i er ->
          pairs := (bname, oref.Symexec.olo + i, er, ovec.Symexec.cells.(i)) :: !pairs)
        oref.Symexec.cells)
    (List.rev inp.buf_names);
  (match (ret_ref, ret_vec) with
  | Symexec.S a, Symexec.S b -> pairs := ("ret", 0, a, b) :: !pairs
  | _ -> ());
  let pairs = List.rev !pairs in
  let differs =
    List.filter
      (fun (_, _, a, b) ->
        a.Symexec.eid <> b.Symexec.eid
        && (Symexec.canon ctx a).Symexec.eid <> (Symexec.canon ctx b).Symexec.eid)
      pairs
  in
  if differs = [] then ()
  else begin
    (* hunt for a concrete assignment separating some location *)
    let sep = ref None in
    List.iter
      (fun (_, _, a, b) ->
        if !sep = None then begin
          let support = Symexec.Iset.union a.Symexec.support b.Symexec.support in
          let vars =
            Symexec.Iset.fold (fun vid acc -> Symexec.var_of ctx vid :: acc) support []
          in
          let product =
            List.fold_left (fun p v -> p * Symexec.domain_size v.Symexec.vdom) 1 vars
          in
          if product > opts.residual_budget then
            raise
              (Bound
                 (Fmt.str "residual comparison needs %d evaluations (budget %d)" product
                    opts.residual_budget));
          let vars = Array.of_list vars in
          let idx = Array.make (Array.length vars) 0 in
          let continue = ref true in
          while !continue do
            incr residual_cases;
            let assign = Hashtbl.create 16 in
            Array.iteri
              (fun k v ->
                Hashtbl.replace assign v.Symexec.vid (nth_conc v.Symexec.vdom idx.(k)))
              vars;
            let memo = Hashtbl.create 64 in
            let va = Symexec.eval ctx assign memo a
            and vb = Symexec.eval ctx assign memo b in
            if not (Symexec.conc_equal va vb) then begin
              sep := Some assign;
              continue := false
            end
            else begin
              (* odometer advance *)
              let rec bump k =
                if k < 0 then continue := false
                else begin
                  idx.(k) <- idx.(k) + 1;
                  if idx.(k) >= Symexec.domain_size vars.(k).Symexec.vdom then begin
                    idx.(k) <- 0;
                    bump (k - 1)
                  end
                end
              in
              bump (Array.length vars - 1)
            end
          done
        end)
      differs;
    match !sep with
    | None -> () (* every residual pair agreed on every assignment *)
    | Some assign ->
        (* complete the assignment so every location can be evaluated,
           then report the full lane-level diff under this witness *)
        List.iter
          (fun (v : Symexec.var) ->
            if not (Hashtbl.mem assign v.Symexec.vid) then
              Hashtbl.replace assign v.Symexec.vid (nth_conc v.Symexec.vdom 0))
          (Symexec.all_vars ctx);
        let memo = Hashtbl.create 256 in
        let diffs =
          List.filter_map
            (fun (buf, e, a, b) ->
              let va = Symexec.eval ctx assign memo a
              and vb = Symexec.eval ctx assign memo b in
              if Symexec.conc_equal va vb then None
              else
                Some (buf, e, Fmt.str "%a" Symexec.pp_conc va, Fmt.str "%a" Symexec.pp_conc vb))
            pairs
        in
        let extra =
          Hashtbl.fold
            (fun vid c acc -> ((Symexec.var_of ctx vid).Symexec.vname, c) :: acc)
            assign []
        in
        raise (Refute { cx_witness = witness_of forced extra; cx_diffs = diffs; cx_fault = None })
  end

(** Check [fref] against [fvec] on the bounded inputs described by
    [spec].  [lookup_ref]/[lookup_vec] resolve callees on each side
    (reference and transformed modules differ). *)
let check ?(opts = default_opts) ?(width = 8) ~lookup_ref ~lookup_vec ~(fref : Func.t)
    ~(fvec : Func.t) (spec : pspec list) : verdict =
  let tmpl = template ~width spec in
  let conc = { names = [] } in
  let cases = ref 0 and vacuous = ref 0 and residual = ref 0 in
  let add_needed needed =
    let fresh =
      List.filter (fun (n, _) -> not (List.mem_assoc n conc.names)) needed
    in
    if fresh = [] then raise (Bound "evaluator demanded concretization of an already-concrete input")
    else conc.names <- conc.names @ fresh
  in
  let run_case forced =
    let inp = build_inputs tmpl forced in
    match run_side ~opts ~lookup:lookup_ref inp.st_ref inp.ctx fref inp.args with
    | RNeed needed ->
        add_needed needed;
        raise Restart
    | RVac -> incr vacuous
    | RBounded m -> raise (Bound ("reference: " ^ m))
    | RFault m ->
        raise
          (Refute
             {
               cx_witness = witness_of forced [];
               cx_diffs = [];
               cx_fault = Some ("reference execution faults: " ^ m);
             })
    | RDone ret_ref -> (
        match run_side ~opts ~lookup:lookup_vec inp.st_vec inp.ctx fvec inp.args with
        | RNeed needed ->
            add_needed needed;
            raise Restart
        | RVac -> incr vacuous
        | RBounded m -> raise (Bound ("candidate: " ^ m))
        | RFault m ->
            raise
              (Refute
                 {
                   cx_witness = witness_of forced [];
                   cx_diffs = [];
                   cx_fault = Some ("candidate execution faults: " ^ m);
                 })
        | RDone ret_vec ->
            incr cases;
            compare_outputs ~opts inp forced ret_ref ret_vec residual)
  in
  let rec enumerate () =
    let doms = Array.of_list conc.names in
    let product =
      Array.fold_left (fun p (_, d) -> p * Symexec.domain_size d) 1 doms
    in
    if product > opts.max_cases then
      raise
        (Bound
           (Fmt.str "%d concretized inputs span %d cases (budget %d)" (Array.length doms)
              product opts.max_cases));
    try
      let idx = Array.make (Array.length doms) 0 in
      let continue = ref true in
      while !continue do
        let forced = Hashtbl.create 16 in
        Array.iteri
          (fun k (name, dom) -> Hashtbl.replace forced name (nth_conc dom idx.(k)))
          doms;
        run_case forced;
        let rec bump k =
          if k < 0 then continue := false
          else begin
            idx.(k) <- idx.(k) + 1;
            if idx.(k) >= Symexec.domain_size (snd doms.(k)) then begin
              idx.(k) <- 0;
              bump (k - 1)
            end
          end
        in
        bump (Array.length doms - 1)
      done
    with Restart ->
      cases := 0;
      vacuous := 0;
      residual := 0;
      enumerate ()
  in
  try
    enumerate ();
    if !cases = 0 then
      Bounded { reason = "all enumerated cases were vacuous"; cases = !cases + !residual }
    else Proved { cases = !cases + !residual; vacuous = !vacuous }
  with
  | Refute cx -> Refuted { cx; cases = !cases + !residual }
  | Bound reason -> Bounded { reason; cases = !cases + !residual }
