(** Structural and type well-formedness checks for PIR functions.

    The verifier catches the transformation bugs that matter in an
    IR-to-IR pass pipeline: mistyped operands, dangling labels,
    duplicated SSA definitions, malformed phis and blocks unreachable
    from the entry.  SSA use-dominance is checked by [Panalysis.Check],
    on the dominator tree of [Panalysis.Dom]; [Check.check_func] runs
    this verifier first. *)

open Instr

type error = { where : string; msg : string }

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.where e.msg

let errors_to_string errs = Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_error) errs

let verify_func (f : Func.t) : (unit, error list) result =
  let errs = ref [] in
  let err where fmt = Fmt.kstr (fun msg -> errs := { where; msg } :: !errs) fmt in
  let block_of = Hashtbl.create 16 in
  List.iter (fun (b : Func.block) -> Hashtbl.replace block_of b.bname b) f.blocks;
  let label_ok l = Hashtbl.mem block_of l in
  (* Single definition per id; collect all defs. *)
  let defined = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace defined v ()) f.params;
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun i ->
          if Hashtbl.mem defined i.id then
            err b.bname "%%%d defined more than once" i.id
          else Hashtbl.replace defined i.id ())
        b.instrs)
    f.blocks;
  let oty o =
    match o with
    | Const c -> Some (ty_of_const c)
    | Var v ->
        if not (Hashtbl.mem defined v) then None else Some (Func.ty_of_var f v)
  in
  let check_instr (b : Func.block) (i : instr) =
    (* the location is formatted only when an error is reported *)
    let err fmt = err (Fmt.str "%s/%s:%%%d" f.fname b.bname i.id) fmt in
    (* all uses must be defined *)
    List.iter
      (fun v ->
        if not (Hashtbl.mem defined v) then err "use of undefined value %%%d" v)
      (uses_of_op i.op);
    let t o = oty o in
    let expect_eq what a b =
      match (t a, t b) with
      | Some ta, Some tb when not (Types.equal ta tb) ->
          err "%s: operand types differ (%a vs %a)" what Types.pp ta Types.pp tb
      | _ -> ()
    in
    let expect what o pred descr =
      match t o with
      | Some ty when not (pred ty) ->
          err "%s: expected %s, got %a" what descr Types.pp ty
      | _ -> ()
    in
    let result_is ty =
      if not (Types.equal i.ty ty) then
        err "result type %a, expected %a" Types.pp i.ty Types.pp ty
    in
    match i.op with
    | Ibin (_, a, b) ->
        expect_eq "ibin" a b;
        expect "ibin" a Types.is_int "integer type";
        Option.iter (fun ta -> result_is ta) (t a)
    | Fbin (_, a, b) ->
        expect_eq "fbin" a b;
        expect "fbin" a Types.is_float "float type";
        Option.iter result_is (t a)
    | Iun (_, a) ->
        expect "iun" a Types.is_int "integer type";
        Option.iter result_is (t a)
    | Fun (_, a) ->
        expect "fun" a Types.is_float "float type";
        Option.iter result_is (t a)
    | Icmp (_, a, b) | Fcmp (_, a, b) ->
        expect_eq "cmp" a b;
        Option.iter
          (fun ta ->
            result_is
              (match ta with
              | Types.Vec (_, n) -> Types.Vec (Types.I1, n)
              | _ -> Types.bool_))
          (t a)
    | Select (c, a, b) -> (
        expect_eq "select" a b;
        Option.iter result_is (t a);
        match t c with
        | Some (Types.Scalar Types.I1) -> ()
        | Some (Types.Vec (Types.I1, n)) ->
            if Types.lanes i.ty <> n then
              err "select: mask lanes %d but value lanes %d" n
                (Types.lanes i.ty)
        | Some ty -> err "select: condition must be i1 or mask, got %a" Types.pp ty
        | None -> ())
    | Cast (k, a, target) -> (
        result_is target;
        match (k, t a) with
        | _, None -> ()
        | Bitcast, Some _ -> ()
        | (Trunc | ZExt | SExt), Some src ->
            if not (Types.is_int src && Types.is_int target) then
              err "int cast on non-integer types"
            else if Types.lanes src <> Types.lanes target then
              err "cast changes lane count"
        | (FPTrunc | FPExt), Some src ->
            if not (Types.is_float src && Types.is_float target) then
              err "fp cast on non-float types"
        | (FPToSI | FPToUI), Some src ->
            if not (Types.is_float src && Types.is_int target) then
              err "fptoint cast type mismatch"
        | (SIToFP | UIToFP), Some src ->
            if not (Types.is_int src && Types.is_float target) then
              err "inttofp cast type mismatch")
    | Alloca (s, n) ->
        result_is (Types.Ptr s);
        if n <= 0 then err "alloca of %d elements" n
    | Load p -> (
        match t p with
        | Some (Types.Ptr s) -> result_is (Types.Scalar s)
        | Some ty -> err "load from non-pointer %a" Types.pp ty
        | None -> ())
    | Store (v, p) -> (
        match (t p, t v) with
        | Some (Types.Ptr s), Some tv ->
            if not (Types.equal tv (Types.Scalar s)) then
              err "store type mismatch (%a into %a*)" Types.pp tv Types.pp
                (Types.Scalar s)
        | Some ty, _ -> err "store to non-pointer %a" Types.pp ty
        | None, _ -> ())
    | Gep (p, idx) -> (
        expect "gep index" idx
          (fun ty -> Types.is_int ty && Types.is_scalar ty)
          "integer scalar";
        match t p with
        | Some (Types.Ptr _ as pt) -> result_is pt
        | Some ty -> err "gep on non-pointer %a" Types.pp ty
        | None -> ())
    | Call (name, args) ->
        if Intrinsics.is_math name then
          if List.length args <> Intrinsics.math_arity (Intrinsics.math_op name)
          then err "math call %s arity" name
    | Phi incoming ->
        if incoming = [] then err "empty phi";
        List.iter
          (fun (l, v) ->
            if not (label_ok l) then err "phi references unknown label %s" l;
            match oty v with
            | Some tv when not (Types.equal tv i.ty) ->
                err "phi incoming type %a, expected %a" Types.pp tv Types.pp i.ty
            | _ -> ())
          incoming
    | Splat (a, n) ->
        Option.iter (fun ta -> result_is (Types.widen ta n)) (t a)
    | VLoad (p, m) -> (
        (match t p with
        | Some (Types.Ptr s) ->
            if Types.elem i.ty <> s || not (Types.is_vector i.ty) then
              err "vload result %a from %a*" Types.pp i.ty Types.pp
                (Types.Scalar s)
        | Some ty -> err "vload from non-pointer %a" Types.pp ty
        | None -> ());
        match Option.map t m with
        | Some (Some (Types.Vec (Types.I1, n))) when n = Types.lanes i.ty -> ()
        | Some (Some ty) -> err "vload mask type %a" Types.pp ty
        | _ -> ())
    | VStore (v, p, m) -> (
        (match (t v, t p) with
        | Some (Types.Vec (s, _)), Some (Types.Ptr s') when s = s' -> ()
        | Some tv, Some tp ->
            err "vstore %a into %a" Types.pp tv Types.pp tp
        | _ -> ());
        match Option.map t m with
        | Some (Some (Types.Vec (Types.I1, n)))
          when Some n = Option.map (fun v -> Types.lanes v) (t v) ->
            ()
        | Some (Some ty) -> err "vstore mask type %a" Types.pp ty
        | _ -> ())
    | Gather (base, idx, m) -> (
        (match (t base, t idx) with
        | Some (Types.Ptr s), Some (Types.Vec (si, n)) ->
            if not (Types.is_int_scalar si) then err "gather index not integer";
            if not (Types.equal i.ty (Types.Vec (s, n))) then
              err "gather result type %a" Types.pp i.ty
        | _ -> err "gather operand types");
        match Option.map t m with
        | Some (Some (Types.Vec (Types.I1, n))) when n = Types.lanes i.ty -> ()
        | Some (Some ty) -> err "gather mask type %a" Types.pp ty
        | _ -> ())
    | Scatter (v, base, idx, m) -> (
        (match (t v, t base, t idx) with
        | Some (Types.Vec (s, n)), Some (Types.Ptr s'), Some (Types.Vec (_, n'))
          ->
            if s <> s' then err "scatter element type mismatch";
            if n <> n' then err "scatter lane count mismatch"
        | _ -> err "scatter operand types");
        match Option.map t m with
        | Some (Some (Types.Vec (Types.I1, n)))
          when Some n = Option.map Types.lanes (t idx) ->
            ()
        | Some (Some ty) -> err "scatter mask type %a" Types.pp ty
        | _ -> ())
    | Shuffle (a, b, idx) -> (
        expect_eq "shuffle" a b;
        match t a with
        | Some (Types.Vec (s, n)) ->
            result_is (Types.Vec (s, Array.length idx));
            Array.iter
              (fun k ->
                if k < -1 || k >= 2 * n then err "shuffle index %d out of range" k)
              idx
        | Some ty -> err "shuffle of non-vector %a" Types.pp ty
        | None -> ())
    | ShuffleDyn (a, idx) -> (
        (match t a with
        | Some (Types.Vec _ as ta) -> result_is ta
        | Some ty -> err "shuffle.dyn of non-vector %a" Types.pp ty
        | None -> ());
        match t idx with
        | Some (Types.Vec (si, n)) ->
            if not (Types.is_int_scalar si) then err "shuffle.dyn index not int";
            if n <> Types.lanes i.ty then err "shuffle.dyn lane mismatch"
        | Some ty -> err "shuffle.dyn index type %a" Types.pp ty
        | None -> ())
    | ExtractLane (v, idx) -> (
        expect "extractlane index" idx
          (fun ty -> Types.is_int ty && Types.is_scalar ty)
          "integer scalar";
        match t v with
        | Some (Types.Vec (s, _)) -> result_is (Types.Scalar s)
        | Some ty -> err "extractlane of non-vector %a" Types.pp ty
        | None -> ())
    | InsertLane (v, x, _) -> (
        match (t v, t x) with
        | Some (Types.Vec (s, _) as tv), Some tx ->
            result_is tv;
            if not (Types.equal tx (Types.Scalar s)) then
              err "insertlane value type %a" Types.pp tx
        | Some ty, _ -> err "insertlane into non-vector %a" Types.pp ty
        | None, _ -> ())
    | Reduce (k, v) -> (
        match (k, t v) with
        | (RAny | RAll), Some (Types.Vec (Types.I1, _)) -> result_is Types.bool_
        | (RAny | RAll), Some ty -> err "mask reduce of %a" Types.pp ty
        | _, Some (Types.Vec (s, _)) -> result_is (Types.Scalar s)
        | _, Some ty -> err "reduce of non-vector %a" Types.pp ty
        | _, None -> ())
    | FirstLane m -> (
        result_is Types.i32;
        match t m with
        | Some (Types.Vec (Types.I1, _)) | None -> ()
        | Some ty -> err "firstlane of non-mask %a" Types.pp ty)
    | Psadbw (a, b) -> (
        expect_eq "psadbw" a b;
        match t a with
        | Some (Types.Vec (Types.I8, n)) when n mod 8 = 0 ->
            result_is (Types.Vec (Types.I64, n / 8))
        | Some ty -> err "psadbw of %a" Types.pp ty
        | None -> ())
  in
  (* CFG-level checks *)
  let preds = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun s ->
          Hashtbl.replace preds s (b.bname :: Option.value ~default:[] (Hashtbl.find_opt preds s)))
        (Func.successors b))
    f.blocks;
  List.iter
    (fun (b : Func.block) ->
      (match b.term with
      | Br l -> if not (label_ok l) then err b.bname "br to unknown label %s" l
      | CondBr (c, l1, l2) ->
          if not (label_ok l1) then err b.bname "br to unknown label %s" l1;
          if not (label_ok l2) then err b.bname "br to unknown label %s" l2;
          (match oty c with
          | Some ty when not (Types.equal ty Types.bool_) ->
              err b.bname "branch condition has type %a" Types.pp ty
          | _ -> ())
      | Ret (Some v) -> (
          match oty v with
          | Some ty when not (Types.equal ty f.ret) ->
              err b.bname "ret %a from %a function" Types.pp ty Types.pp f.ret
          | _ -> ())
      | Ret None ->
          if f.ret <> Types.Void then err b.bname "ret void from non-void function"
      | Unreachable -> ());
      (* phis must be a prefix of the block and match CFG predecessors *)
      let rec check_phis seen_non_phi = function
        | [] -> ()
        | i :: rest ->
            (match i.op with
            | Phi incoming ->
                if seen_non_phi then
                  err b.bname "phi %%%d after non-phi instruction" i.id;
                let ps =
                  Option.value ~default:[] (Hashtbl.find_opt preds b.bname)
                in
                let inc_labels = List.map fst incoming in
                List.iter
                  (fun p ->
                    if not (List.mem p inc_labels) then
                      err b.bname "phi %%%d missing incoming for pred %s" i.id p)
                  ps;
                List.iter
                  (fun l ->
                    if not (List.mem l ps) then
                      err b.bname "phi %%%d incoming from non-pred %s" i.id l)
                  inc_labels;
                check_phis seen_non_phi rest
            | _ -> check_phis true rest)
      in
      check_phis false b.instrs;
      List.iter (fun i -> check_instr b i) b.instrs)
    f.blocks;
  (* block names unique *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      if Hashtbl.mem seen b.bname then err f.fname "duplicate block label %s" b.bname
      else Hashtbl.replace seen b.bname ())
    f.blocks;
  (* reachability *)
  (match f.blocks with
  | [] -> err f.fname "function has no blocks"
  | entry :: _ ->
      let reachable = Hashtbl.create 16 in
      let rec dfs name =
        if (not (Hashtbl.mem reachable name)) && Hashtbl.mem block_of name
        then begin
          Hashtbl.replace reachable name ();
          List.iter dfs (Func.successors (Hashtbl.find block_of name))
        end
      in
      dfs entry.bname;
      List.iter
        (fun (b : Func.block) ->
          if not (Hashtbl.mem reachable b.bname) then
            err b.bname "block is unreachable from entry %s" entry.bname)
        f.blocks);
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let verify_module (m : Func.modul) : (unit, error list) result =
  let errs =
    List.concat_map
      (fun f -> match verify_func f with Ok () -> [] | Error es -> es)
      m.funcs
  in
  match errs with [] -> Ok () | es -> Error es

(** Raise [Invalid_argument] with a readable message if verification
    fails; handy in tests and pass pipelines. *)
let check_func f =
  match verify_func f with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Fmt.str "IR verification failed for %s:@.%a@.%a" f.Func.fname
           Fmt.(list ~sep:(any "@.") pp_error)
           es Printer.pp_func f)

let check_module m =
  List.iter check_func m.Func.funcs
