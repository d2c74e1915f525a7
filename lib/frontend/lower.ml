(** Typechecking and lowering of PsimC to PIR.

    Lowering constructs SSA directly from the structured AST: mutable
    locals live in a persistent environment threaded through statement
    lowering, with phis created at if-joins and loop headers.  The
    emitted CFG is exactly the canonical structured shape that
    [Panalysis.Regions] recovers (each [if] gets a fresh join block;
    loop headers hold only phis, a trivial condition, and a conditional
    branch).

    SPMD regions are extracted per the paper's Listing 6: the region
    body becomes a standalone SPMD-annotated function taking the
    captured variables plus the gang number and thread count; the host
    function gets a loop over full gangs and, when the thread count may
    not divide by the gang size, a call to a partially-masked variant
    for the tail gang. *)

open Ast

exception Error of string * pos

let err pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

module Env = Map.Make (String)
module Builder = Pir.Builder

type value = { op : Pir.Instr.operand; ty : Ast.ty }

type psim_ctx = {
  gang : int;
  gang_op : Pir.Instr.operand;
  nthreads_op : Pir.Instr.operand;
  is_head : bool option;  (** [Some b]: specialized copy, fold the check *)
  is_tail : bool option;
}

type ctx = {
  prog : program;
  modul : Pir.Func.modul;
  b : Builder.t;
  func : Pir.Func.t;
  psim : psim_ctx option;
  extract_counter : int ref;
  host_name : string;
}

let rec pir_scalar_of_ty pos : Ast.ty -> Pir.Types.scalar = function
  | TInt (8, _) -> Pir.Types.I8
  | TInt (16, _) -> Pir.Types.I16
  | TInt (32, _) -> Pir.Types.I32
  | TInt (64, _) -> Pir.Types.I64
  | TFloat 32 -> Pir.Types.F32
  | TFloat 64 -> Pir.Types.F64
  | TBool -> Pir.Types.I1
  | t -> err pos "type %s has no scalar representation" (ty_to_string t)

and pir_ty pos : Ast.ty -> Pir.Types.t = function
  | TVoid -> Pir.Types.Void
  | TPtr t -> Pir.Types.Ptr (pir_scalar_of_ty pos t)
  | t -> Pir.Types.Scalar (pir_scalar_of_ty pos t)

let is_int_ty = function TInt _ -> true | _ -> false
let is_float_ty = function TFloat _ -> true | _ -> false
let is_signed = function TInt (_, s) -> s | _ -> true
let void_value = { op = Pir.Instr.cbool false; ty = TVoid }

(* -- implicit conversions -- *)

let coerce ctx (v : value) (target : Ast.ty) pos : value =
  if v.ty = target then v
  else
    let cast k = { op = Builder.cast ctx.b k v.op (pir_ty pos target); ty = target } in
    match (v.ty, target) with
    | TInt (ws, ss), TInt (wd, _) ->
        if wd = ws then { v with ty = target }
        else if wd < ws then cast Pir.Instr.Trunc
        else cast (if ss then Pir.Instr.SExt else Pir.Instr.ZExt)
    | TInt (_, s), TFloat _ ->
        cast (if s then Pir.Instr.SIToFP else Pir.Instr.UIToFP)
    | TFloat ws, TFloat wd ->
        if wd < ws then cast Pir.Instr.FPTrunc else cast Pir.Instr.FPExt
    | TBool, TInt _ -> cast Pir.Instr.ZExt
    | TPtr _, TPtr _ -> cast Pir.Instr.Bitcast
    | _ ->
        err pos "cannot implicitly convert %s to %s" (ty_to_string v.ty)
          (ty_to_string target)

let explicit_cast ctx (v : value) (target : Ast.ty) pos : value =
  if v.ty = target then v
  else
    let cast k = { op = Builder.cast ctx.b k v.op (pir_ty pos target); ty = target } in
    match (v.ty, target) with
    | TFloat _, TInt (_, s) ->
        cast (if s then Pir.Instr.FPToSI else Pir.Instr.FPToUI)
    | TInt _, TBool ->
        {
          op =
            Builder.icmp ctx.b Pir.Instr.Ne v.op
              (Pir.Instr.cint (pir_scalar_of_ty pos v.ty) 0L);
          ty = TBool;
        }
    | TFloat _, TBool ->
        {
          op =
            Builder.fcmp ctx.b Pir.Instr.One v.op
              (Pir.Instr.Const (Pir.Instr.Cfloat (pir_scalar_of_ty pos v.ty, 0.0)));
          ty = TBool;
        }
    | TPtr _, TInt (64, _) | TInt (64, _), TPtr _ -> cast Pir.Instr.Bitcast
    | _ -> coerce ctx v target pos

(* usual arithmetic unification (no C integer promotion: arithmetic
   happens at the operand width, which SIMD kernels rely on) *)
let unify ctx (a : value) (b : value) pos : value * value * Ast.ty =
  match (a.ty, b.ty) with
  | t1, t2 when t1 = t2 -> (a, b, t1)
  | TInt (w1, s1), TInt (w2, s2) ->
      let w = max w1 w2 in
      let s = if w1 = w2 then s1 && s2 else if w1 > w2 then s1 else s2 in
      let t = TInt (w, s) in
      (coerce ctx a t pos, coerce ctx b t pos, t)
  | TFloat w1, TFloat w2 ->
      let t = TFloat (max w1 w2) in
      (coerce ctx a t pos, coerce ctx b t pos, t)
  | TInt _, TFloat w -> (coerce ctx a (TFloat w) pos, b, TFloat w)
  | TFloat w, TInt _ -> (a, coerce ctx b (TFloat w) pos, TFloat w)
  | _ ->
      err pos "cannot combine %s and %s" (ty_to_string a.ty) (ty_to_string b.ty)

(* -- compile-time evaluation (gang sizes) -- *)

let rec const_eval (e : expr) : int64 =
  match e.e with
  | IntLit v -> v
  | Bin (Add, a, b) -> Int64.add (const_eval a) (const_eval b)
  | Bin (Sub, a, b) -> Int64.sub (const_eval a) (const_eval b)
  | Bin (Mul, a, b) -> Int64.mul (const_eval a) (const_eval b)
  | Bin (Div, a, b) -> Int64.div (const_eval a) (const_eval b)
  | Cast (_, a) -> const_eval a
  | _ -> err e.pos "expected a compile-time integer constant"

(* -- free and assigned variables -- *)

let rec expr_idents (e : expr) acc =
  match e.e with
  | Ident x -> x :: acc
  | IntLit _ | FloatLit _ | BoolLit _ -> acc
  | Bin (_, a, b) -> expr_idents a (expr_idents b acc)
  | Un (_, a) | Cast (_, a) -> expr_idents a acc
  | Call (_, args) -> List.fold_left (fun acc a -> expr_idents a acc) acc args
  | Index (p, i) -> expr_idents p (expr_idents i acc)
  | Ternary (c, a, b) -> expr_idents c (expr_idents a (expr_idents b acc))

(* variables read inside [ss] that are not declared within *)
let free_vars (ss : stmt list) : string list =
  let seen = ref [] in
  let add declared x =
    if (not (List.mem x declared)) && not (List.mem x !seen) then
      seen := x :: !seen
  in
  let rec go declared ss =
    ignore
      (List.fold_left
         (fun declared (s : stmt) ->
           match s.s with
           | Decl (_, x, e) ->
               List.iter (add declared) (expr_idents e []);
               x :: declared
           | DeclArr (_, x, _) -> x :: declared
           | Assign (LIdent x, e) ->
               add declared x;
               List.iter (add declared) (expr_idents e []);
               declared
           | Assign (LIndex (p, i), e) ->
               List.iter (add declared)
                 (expr_idents p (expr_idents i (expr_idents e [])));
               declared
           | If (c, a, b) ->
               List.iter (add declared) (expr_idents c []);
               go declared a;
               go declared b;
               declared
           | While (c, body) ->
               List.iter (add declared) (expr_idents c []);
               go declared body;
               declared
           | For _ -> err s.spos "for loop survived desugaring"
           | Return e ->
               Option.iter (fun e -> List.iter (add declared) (expr_idents e [])) e;
               declared
           | ExprStmt e ->
               List.iter (add declared) (expr_idents e []);
               declared
           | Block body ->
               go declared body;
               declared
           | Psim p ->
               List.iter (add declared)
                 (expr_idents p.gang_size (expr_idents p.num_threads []));
               go declared p.body;
               declared
           | Break | Continue -> declared)
         declared ss)
  in
  go [] ss;
  List.rev !seen

(* variable names (re)assigned anywhere in [ss], including nested *)
let rec assigned_vars (ss : stmt list) : string list =
  List.concat_map
    (fun (s : stmt) ->
      match s.s with
      | Assign (LIdent x, _) -> [ x ]
      | If (_, a, b) -> assigned_vars a @ assigned_vars b
      | While (_, body) | Block body -> assigned_vars body
      | Psim p -> assigned_vars p.body
      | _ -> [])
    ss

(* declared names in a statement list (shadowing: their assignments do
   not escape) *)
let declared_here (ss : stmt list) : string list =
  List.filter_map
    (fun (s : stmt) ->
      match s.s with
      | Decl (_, x, _) | DeclArr (_, x, _) -> Some x
      | _ -> None)
    ss

(* names of pure builtins, for the purity check below (the full builtin
   table with semantics lives further down) *)
let builtins_pure =
  List.map (fun n -> (n, ()))
    [
      "sqrtf"; "sqrt"; "rsqrtf"; "rsqrt"; "expf"; "exp"; "logf"; "log";
      "sinf"; "sin"; "cosf"; "cos"; "tanf"; "tan"; "atanf"; "atan";
      "atan2f"; "atan2"; "powf"; "pow"; "fmodf"; "fmod"; "fabsf"; "fabs";
      "floorf"; "floor"; "ceilf"; "ceil"; "fminf"; "fmin"; "fmaxf"; "fmax";
      "min"; "max"; "abs"; "add_sat"; "sub_sat"; "avg_u"; "absdiff_u";
      "mulhi"; "clamp";
    ]

(* is an expression safe to evaluate unconditionally? (used to pick
   select-based lowering for ternaries) *)
let rec pure_expr (e : expr) =
  match e.e with
  | IntLit _ | FloatLit _ | BoolLit _ | Ident _ -> true
  | Bin ((LAnd | LOr), a, b) -> pure_expr a && pure_expr b
  | Bin (_, a, b) -> pure_expr a && pure_expr b
  | Un (_, a) | Cast (_, a) -> pure_expr a
  | Call (name, args) ->
      (* builtin operations are pure; user calls and memory are not *)
      List.mem_assoc name builtins_pure && List.for_all pure_expr args
  | Index _ -> false
  | Ternary (c, a, b) -> pure_expr c && pure_expr a && pure_expr b

(* -- the math/builtin table -- *)

type builtin =
  | MathCall of string * int  (** op name, arity; type from first arg *)
  | FloatUn of Pir.Instr.fun_
  | FloatBin of Pir.Instr.fbin
  | IntMinMax of [ `Min | `Max ]
  | IntAbs
  | SatOp of [ `Add | `Sub ]
  | AvgU
  | AbsDiffU
  | MulHi
  | Clamp

let builtins =
  [
    ("sqrtf", MathCall ("sqrt", 1)); ("sqrt", MathCall ("sqrt", 1));
    ("rsqrtf", MathCall ("rsqrt", 1)); ("rsqrt", MathCall ("rsqrt", 1));
    ("expf", MathCall ("exp", 1)); ("exp", MathCall ("exp", 1));
    ("logf", MathCall ("log", 1)); ("log", MathCall ("log", 1));
    ("sinf", MathCall ("sin", 1)); ("sin", MathCall ("sin", 1));
    ("cosf", MathCall ("cos", 1)); ("cos", MathCall ("cos", 1));
    ("tanf", MathCall ("tan", 1)); ("tan", MathCall ("tan", 1));
    ("atanf", MathCall ("atan", 1)); ("atan", MathCall ("atan", 1));
    ("atan2f", MathCall ("atan2", 2)); ("atan2", MathCall ("atan2", 2));
    ("powf", MathCall ("pow", 2)); ("pow", MathCall ("pow", 2));
    ("fmodf", MathCall ("fmod", 2)); ("fmod", MathCall ("fmod", 2));
    ("fabsf", FloatUn Pir.Instr.FAbs); ("fabs", FloatUn Pir.Instr.FAbs);
    ("floorf", FloatUn Pir.Instr.FFloor); ("floor", FloatUn Pir.Instr.FFloor);
    ("ceilf", FloatUn Pir.Instr.FCeil); ("ceil", FloatUn Pir.Instr.FCeil);
    ("fminf", FloatBin Pir.Instr.FMin); ("fmin", FloatBin Pir.Instr.FMin);
    ("fmaxf", FloatBin Pir.Instr.FMax); ("fmax", FloatBin Pir.Instr.FMax);
    ("min", IntMinMax `Min); ("max", IntMinMax `Max);
    ("abs", IntAbs);
    ("add_sat", SatOp `Add); ("sub_sat", SatOp `Sub);
    ("avg_u", AvgU);
    ("absdiff_u", AbsDiffU);
    ("mulhi", MulHi);
    ("clamp", Clamp);
  ]

let float_width = function
  | TFloat w -> w
  | _ -> 32

(* -- expression lowering -- *)

let rec lower_expr ctx env ?expect (e : expr) : value =
  match e.e with
  | IntLit v -> (
      match expect with
      | Some (TInt (w, s)) ->
          { op = Pir.Instr.cint (pir_scalar_of_ty e.pos (TInt (w, s))) v; ty = TInt (w, s) }
      | Some (TFloat w) ->
          let s = pir_scalar_of_ty e.pos (TFloat w) in
          { op = Pir.Instr.Const (Pir.Instr.Cfloat (s, Int64.to_float v)); ty = TFloat w }
      | _ ->
          if v >= -2147483648L && v <= 2147483647L then
            { op = Pir.Instr.cint Pir.Types.I32 v; ty = TInt (32, true) }
          else { op = Pir.Instr.cint Pir.Types.I64 v; ty = TInt (64, true) })
  | FloatLit v -> (
      match expect with
      | Some (TFloat 32) ->
          { op = Pir.Instr.Const (Pir.Instr.Cfloat (Pir.Types.F32, v)); ty = TFloat 32 }
      | _ ->
          { op = Pir.Instr.Const (Pir.Instr.Cfloat (Pir.Types.F64, v)); ty = TFloat 64 })
  | BoolLit v -> { op = Pir.Instr.cbool v; ty = TBool }
  | Ident x -> (
      match Env.find_opt x env with
      | Some v -> v
      | None -> err e.pos "unknown variable '%s'" x)
  | Cast (t, a) ->
      let v = lower_expr ctx env a ?expect:(match t with TFloat _ | TInt _ -> Some t | _ -> None) in
      explicit_cast ctx v t e.pos
  | Un (op, a) -> lower_unop ctx env op a e.pos
  | Bin (op, a, b) -> lower_binop ctx env op a b ?expect e.pos
  | Index (p, i) -> (
      let ptr, elem_ty = lower_index ctx env p i e.pos in
      match elem_ty with
      | TBool -> err e.pos "bool arrays are not supported"
      | _ -> { op = Builder.load ctx.b ptr; ty = elem_ty })
  | Ternary (c, a, b) -> lower_ternary ctx env c a b ?expect e.pos
  | Call (name, args) -> lower_call ctx env name args e.pos

and lower_index ctx env p i pos : Pir.Instr.operand * Ast.ty =
  let pv = lower_expr ctx env p in
  let elem_ty =
    match pv.ty with
    | TPtr t -> t
    | t -> err pos "cannot index a value of type %s" (ty_to_string t)
  in
  let iv = lower_expr ctx env i ~expect:(TInt (64, true)) in
  if not (is_int_ty iv.ty) then err pos "array index must be an integer";
  (Builder.gep ctx.b pv.op iv.op, elem_ty)

and lower_unop ctx env op a pos : value =
  let v = lower_expr ctx env a in
  match (op, v.ty) with
  | Neg, TInt _ -> { v with op = Builder.iun ctx.b Pir.Instr.INeg v.op }
  | Neg, TFloat _ -> { v with op = Builder.fun_ ctx.b Pir.Instr.FNeg v.op }
  | LNot, TBool -> { v with op = Builder.not_ ctx.b v.op }
  | BNot, TInt _ -> { v with op = Builder.not_ ctx.b v.op }
  | _ ->
      err pos "cannot apply unary operator to %s" (ty_to_string v.ty)

and lower_binop ctx env op a b ?expect pos : value =
  let is_lit (e : expr) =
    match e.e with
    | IntLit _ | FloatLit _ -> true
    | Un (Neg, { e = IntLit _; _ }) | Un (Neg, { e = FloatLit _; _ }) -> true
    | _ -> false
  in
  (* lower the non-literal side first so literals adopt its type *)
  let lower_sides () =
    if is_lit b && not (is_lit a) then begin
      let va = lower_expr ctx env a ?expect in
      let vb = lower_expr ctx env b ~expect:va.ty in
      (va, vb)
    end
    else if is_lit a && not (is_lit b) then begin
      let vb = lower_expr ctx env b ?expect in
      let va = lower_expr ctx env a ~expect:vb.ty in
      (va, vb)
    end
    else (lower_expr ctx env a ?expect, lower_expr ctx env b ?expect)
  in
  match op with
  | LAnd | LOr -> lower_logical ctx env op a b pos
  | Add | Sub -> (
      let va, vb = lower_sides () in
      match (va.ty, vb.ty) with
      | TPtr _, TInt _ ->
          let idx = coerce ctx vb (TInt (64, true)) pos in
          let idx =
            if op = Sub then
              { idx with op = Builder.iun ctx.b Pir.Instr.INeg idx.op }
            else idx
          in
          { op = Builder.gep ctx.b va.op idx.op; ty = va.ty }
      | _ ->
          let va, vb, ty = unify ctx va vb pos in
          if is_float_ty ty then
            {
              op =
                Builder.fbin ctx.b
                  (if op = Add then Pir.Instr.FAdd else Pir.Instr.FSub)
                  va.op vb.op;
              ty;
            }
          else
            {
              op =
                Builder.ibin ctx.b
                  (if op = Add then Pir.Instr.Add else Pir.Instr.Sub)
                  va.op vb.op;
              ty;
            })
  | Mul | Div | Rem -> (
      let va, vb = lower_sides () in
      let va, vb, ty = unify ctx va vb pos in
      match (op, ty) with
      | Mul, TFloat _ -> { op = Builder.fbin ctx.b Pir.Instr.FMul va.op vb.op; ty }
      | Div, TFloat _ -> { op = Builder.fbin ctx.b Pir.Instr.FDiv va.op vb.op; ty }
      | Rem, TFloat _ -> err pos "use fmodf for float remainder"
      | Mul, _ -> { op = Builder.ibin ctx.b Pir.Instr.Mul va.op vb.op; ty }
      | Div, _ ->
          {
            op =
              Builder.ibin ctx.b
                (if is_signed ty then Pir.Instr.SDiv else Pir.Instr.UDiv)
                va.op vb.op;
            ty;
          }
      | Rem, _ ->
          {
            op =
              Builder.ibin ctx.b
                (if is_signed ty then Pir.Instr.SRem else Pir.Instr.URem)
                va.op vb.op;
            ty;
          }
      | _ -> assert false)
  | BAnd | BOr | BXor -> (
      let va, vb = lower_sides () in
      let va, vb, ty = unify ctx va vb pos in
      let k =
        match op with
        | BAnd -> Pir.Instr.And
        | BOr -> Pir.Instr.Or
        | _ -> Pir.Instr.Xor
      in
      match ty with
      | TInt _ | TBool -> { op = Builder.ibin ctx.b k va.op vb.op; ty }
      | _ -> err pos "bitwise operator on %s" (ty_to_string ty))
  | Shl | Shr -> (
      let va = lower_expr ctx env a ?expect in
      match va.ty with
      | TInt _ ->
          let vb = lower_expr ctx env b ~expect:va.ty in
          let vb = coerce ctx vb va.ty pos in
          let k =
            if op = Shl then Pir.Instr.Shl
            else if is_signed va.ty then Pir.Instr.AShr
            else Pir.Instr.LShr
          in
          { op = Builder.ibin ctx.b k va.op vb.op; ty = va.ty }
      | t -> err pos "shift of %s" (ty_to_string t))
  | Lt | Gt | Le | Ge | Eq | Ne -> (
      let va, vb = lower_sides2 ctx env a b in
      let va, vb, ty = unify ctx va vb pos in
      match ty with
      | TFloat _ ->
          let p =
            match op with
            | Lt -> Pir.Instr.Olt
            | Gt -> Pir.Instr.Ogt
            | Le -> Pir.Instr.Ole
            | Ge -> Pir.Instr.Oge
            | Eq -> Pir.Instr.Oeq
            | _ -> Pir.Instr.One
          in
          { op = Builder.fcmp ctx.b p va.op vb.op; ty = TBool }
      | TInt _ | TBool | TPtr _ ->
          let s = match ty with TInt (_, s) -> s | _ -> false in
          let p =
            match (op, s) with
            | Lt, true -> Pir.Instr.Slt
            | Lt, false -> Pir.Instr.Ult
            | Gt, true -> Pir.Instr.Sgt
            | Gt, false -> Pir.Instr.Ugt
            | Le, true -> Pir.Instr.Sle
            | Le, false -> Pir.Instr.Ule
            | Ge, true -> Pir.Instr.Sge
            | Ge, false -> Pir.Instr.Uge
            | Eq, _ -> Pir.Instr.Eq
            | _ -> Pir.Instr.Ne
          in
          { op = Builder.icmp ctx.b p va.op vb.op; ty = TBool }
      | t -> err pos "comparison of %s" (ty_to_string t))

and lower_sides2 ctx env a b =
  let is_lit (e : expr) =
    match e.e with
    | IntLit _ | FloatLit _ -> true
    | Un (Neg, { e = IntLit _; _ }) | Un (Neg, { e = FloatLit _; _ }) -> true
    | _ -> false
  in
  if is_lit b && not (is_lit a) then begin
    let va = lower_expr ctx env a in
    (va, lower_expr ctx env b ~expect:va.ty)
  end
  else if is_lit a && not (is_lit b) then begin
    let vb = lower_expr ctx env b in
    (lower_expr ctx env a ~expect:vb.ty, vb)
  end
  else (lower_expr ctx env a, lower_expr ctx env b)

and lower_logical ctx env op a b pos : value =
  let va = lower_expr ctx env a in
  if va.ty <> TBool then err pos "logical operator needs bool operands";
  if pure_expr b then begin
    let vb = lower_expr ctx env b in
    if vb.ty <> TBool then err pos "logical operator needs bool operands";
    let k = if op = LAnd then Pir.Instr.And else Pir.Instr.Or in
    { op = Builder.ibin ctx.b k va.op vb.op; ty = TBool }
  end
  else begin
    (* short-circuit via control flow *)
    let brhs = Builder.fresh_block ctx.b "sc.rhs" in
    let bjoin = Builder.fresh_block ctx.b "sc.join" in
    let pre = Builder.current ctx.b in
    (if op = LAnd then Builder.condbr ctx.b va.op brhs.bname bjoin.bname
     else Builder.condbr ctx.b va.op bjoin.bname brhs.bname);
    Builder.position ctx.b brhs;
    let vb = lower_expr ctx env b in
    if vb.ty <> TBool then err pos "logical operator needs bool operands";
    let rhs_end = Builder.current ctx.b in
    Builder.br ctx.b bjoin.bname;
    Builder.position ctx.b bjoin;
    let short = Pir.Instr.cbool (op = LOr) in
    {
      op =
        Builder.phi ctx.b Pir.Types.bool_
          [ (pre.bname, short); (rhs_end.bname, vb.op) ];
      ty = TBool;
    }
  end

and lower_ternary ctx env c a b ?expect pos : value =
  let vc = lower_expr ctx env c in
  if vc.ty <> TBool then err pos "ternary condition must be bool";
  if pure_expr a && pure_expr b then begin
    let va = lower_expr ctx env a ?expect in
    let vb = lower_expr ctx env b ~expect:va.ty in
    let va, vb, ty = unify ctx va vb pos in
    { op = Builder.select ctx.b vc.op va.op vb.op; ty }
  end
  else begin
    let bt = Builder.fresh_block ctx.b "tern.t" in
    let be = Builder.fresh_block ctx.b "tern.e" in
    let bj = Builder.fresh_block ctx.b "tern.j" in
    Builder.condbr ctx.b vc.op bt.bname be.bname;
    Builder.position ctx.b bt;
    let va = lower_expr ctx env a ?expect in
    let t_end = Builder.current ctx.b in
    Builder.br ctx.b bj.bname;
    Builder.position ctx.b be;
    let vb = lower_expr ctx env b ~expect:va.ty in
    let vb = coerce ctx vb va.ty pos in
    let e_end = Builder.current ctx.b in
    Builder.br ctx.b bj.bname;
    Builder.position ctx.b bj;
    {
      op =
        Builder.phi ctx.b (pir_ty pos va.ty)
          [ (t_end.bname, va.op); (e_end.bname, vb.op) ];
      ty = va.ty;
    }
  end

and lower_call ctx env name args pos : value =
  let in_psim () =
    match ctx.psim with
    | Some p -> p
    | None -> err pos "%s() is only available inside a psim region" name
  in
  let uint64 = TInt (64, false) in
  match name with
  | "psim_lane_num" ->
      ignore (in_psim ());
      { op = Builder.call ctx.b Pir.Types.i64 Pir.Intrinsics.lane_num []; ty = uint64 }
  | "psim_gang_num" ->
      let p = in_psim () in
      { op = p.gang_op; ty = uint64 }
  | "psim_num_threads" ->
      let p = in_psim () in
      { op = p.nthreads_op; ty = uint64 }
  | "psim_gang_size" ->
      let p = in_psim () in
      { op = Pir.Instr.ci64 p.gang; ty = uint64 }
  | "psim_thread_num" ->
      let p = in_psim () in
      let lane =
        Builder.call ctx.b Pir.Types.i64 Pir.Intrinsics.lane_num []
      in
      let base = Builder.mul ctx.b p.gang_op (Pir.Instr.ci64 p.gang) in
      { op = Builder.add ctx.b base lane; ty = uint64 }
  | "psim_num_gangs" ->
      let p = in_psim () in
      let n1 = Builder.add ctx.b p.nthreads_op (Pir.Instr.ci64 (p.gang - 1)) in
      { op = Builder.ibin ctx.b Pir.Instr.UDiv n1 (Pir.Instr.ci64 p.gang); ty = uint64 }
  | "psim_is_head_gang" -> (
      let p = in_psim () in
      match p.is_head with
      | Some b -> { op = Pir.Instr.cbool b; ty = TBool }
      | None ->
          { op = Builder.icmp ctx.b Pir.Instr.Eq p.gang_op (Pir.Instr.ci64 0); ty = TBool })
  | "psim_is_tail_gang" -> (
      let p = in_psim () in
      match p.is_tail with
      | Some b -> { op = Pir.Instr.cbool b; ty = TBool }
      | None ->
          let n1 = Builder.add ctx.b p.nthreads_op (Pir.Instr.ci64 (p.gang - 1)) in
          let ngangs = Builder.ibin ctx.b Pir.Instr.UDiv n1 (Pir.Instr.ci64 p.gang) in
          let last = Builder.sub ctx.b ngangs (Pir.Instr.ci64 1) in
          { op = Builder.icmp ctx.b Pir.Instr.Eq p.gang_op last; ty = TBool })
  | "psim_gang_sync" ->
      ignore (in_psim ());
      Builder.call_unit ctx.b Pir.Intrinsics.gang_sync [];
      void_value
  | "psim_shuffle" -> (
      let p = in_psim () in
      ignore p;
      match args with
      | [ v; idx ] ->
          let vv = lower_expr ctx env v in
          let vi = lower_expr ctx env idx ~expect:uint64 in
          let vi = coerce ctx vi uint64 pos in
          {
            op =
              Builder.call ctx.b (pir_ty pos vv.ty) Pir.Intrinsics.shuffle
                [ vv.op; vi.op ];
            ty = vv.ty;
          }
      | _ -> err pos "psim_shuffle expects (value, source_lane)")
  | "psim_sad_u8" -> (
      ignore (in_psim ());
      match args with
      | [ x; y ] ->
          let vx = lower_expr ctx env x ~expect:(TInt (8, false)) in
          let vy = lower_expr ctx env y ~expect:(TInt (8, false)) in
          let vx = coerce ctx vx (TInt (8, false)) pos in
          let vy = coerce ctx vy (TInt (8, false)) pos in
          {
            op = Builder.call ctx.b Pir.Types.i64 Pir.Intrinsics.sad_u8 [ vx.op; vy.op ];
            ty = uint64;
          }
      | _ -> err pos "psim_sad_u8 expects (a, b)")
  | _ -> (
      match List.assoc_opt name builtins with
      | Some b -> lower_builtin ctx env b name args pos
      | None -> (
          (* user function call *)
          match List.find_opt (fun f -> f.fname = name) ctx.prog with
          | None -> err pos "unknown function '%s'" name
          | Some callee ->
              if List.length args <> List.length callee.params then
                err pos "%s expects %d arguments" name (List.length callee.params);
              let vargs =
                List.map2
                  (fun (p : param) a ->
                    let v = lower_expr ctx env a ~expect:p.pty in
                    (coerce ctx v p.pty pos).op)
                  callee.params args
              in
              if callee.ret = TVoid then begin
                Builder.call_unit ctx.b name vargs;
                void_value
              end
              else
                {
                  op = Builder.call ctx.b (pir_ty pos callee.ret) name vargs;
                  ty = callee.ret;
                }))

and lower_builtin ctx env b name args pos : value =
  let unify2 a bb =
    let va = lower_expr ctx env a in
    let vb = lower_expr ctx env bb ~expect:va.ty in
    unify ctx va vb pos
  in
  match (b, args) with
  | MathCall (op, 1), [ a ] ->
      let v = lower_expr ctx env a ~expect:(TFloat 32) in
      let v =
        if is_float_ty v.ty then v else coerce ctx v (TFloat 32) pos
      in
      let w = float_width v.ty in
      let s = pir_scalar_of_ty pos (TFloat w) in
      {
        op =
          Builder.call ctx.b (Pir.Types.Scalar s) (Pir.Intrinsics.math_name op s)
            [ v.op ];
        ty = TFloat w;
      }
  | MathCall (op, 2), [ a; bb ] ->
      let va = lower_expr ctx env a ~expect:(TFloat 32) in
      let va = if is_float_ty va.ty then va else coerce ctx va (TFloat 32) pos in
      let vb = lower_expr ctx env bb ~expect:va.ty in
      let vb = coerce ctx vb va.ty pos in
      let s = pir_scalar_of_ty pos va.ty in
      {
        op =
          Builder.call ctx.b (Pir.Types.Scalar s) (Pir.Intrinsics.math_name op s)
            [ va.op; vb.op ];
        ty = va.ty;
      }
  | FloatUn k, [ a ] ->
      let v = lower_expr ctx env a ~expect:(TFloat 32) in
      if not (is_float_ty v.ty) then err pos "%s expects a float" name;
      { v with op = Builder.fun_ ctx.b k v.op }
  | FloatBin k, [ a; bb ] ->
      let va, vb, ty = unify2 a bb in
      if not (is_float_ty ty) then err pos "%s expects floats" name;
      { op = Builder.fbin ctx.b k va.op vb.op; ty }
  | IntMinMax mm, [ a; bb ] -> (
      let va, vb, ty = unify2 a bb in
      match ty with
      | TInt (_, s) ->
          let k =
            match (mm, s) with
            | `Min, true -> Pir.Instr.SMin
            | `Min, false -> Pir.Instr.UMin
            | `Max, true -> Pir.Instr.SMax
            | `Max, false -> Pir.Instr.UMax
          in
          { op = Builder.ibin ctx.b k va.op vb.op; ty }
      | TFloat _ ->
          let k = if mm = `Min then Pir.Instr.FMin else Pir.Instr.FMax in
          { op = Builder.fbin ctx.b k va.op vb.op; ty }
      | _ -> err pos "%s on %s" name (ty_to_string ty))
  | IntAbs, [ a ] -> (
      let v = lower_expr ctx env a in
      match v.ty with
      | TInt _ -> { v with op = Builder.iun ctx.b Pir.Instr.IAbs v.op }
      | TFloat _ -> { v with op = Builder.fun_ ctx.b Pir.Instr.FAbs v.op }
      | _ -> err pos "abs on %s" (ty_to_string v.ty))
  | SatOp which, [ a; bb ] -> (
      let va, vb, ty = unify2 a bb in
      match ty with
      | TInt (_, s) ->
          let k =
            match (which, s) with
            | `Add, true -> Pir.Instr.SAddSat
            | `Add, false -> Pir.Instr.UAddSat
            | `Sub, true -> Pir.Instr.SSubSat
            | `Sub, false -> Pir.Instr.USubSat
          in
          { op = Builder.ibin ctx.b k va.op vb.op; ty }
      | _ -> err pos "%s expects integers" name)
  | AvgU, [ a; bb ] -> (
      let va, vb, ty = unify2 a bb in
      match ty with
      | TInt (_, false) -> { op = Builder.ibin ctx.b Pir.Instr.AvgrU va.op vb.op; ty }
      | _ -> err pos "avg_u expects unsigned integers")
  | AbsDiffU, [ a; bb ] -> (
      let va, vb, ty = unify2 a bb in
      match ty with
      | TInt (_, false) ->
          { op = Builder.ibin ctx.b Pir.Instr.AbsDiffU va.op vb.op; ty }
      | _ -> err pos "absdiff_u expects unsigned integers")
  | MulHi, [ a; bb ] -> (
      let va, vb, ty = unify2 a bb in
      match ty with
      | TInt (_, s) ->
          let k = if s then Pir.Instr.MulHiS else Pir.Instr.MulHiU in
          { op = Builder.ibin ctx.b k va.op vb.op; ty }
      | _ -> err pos "mulhi expects integers")
  | Clamp, [ x; lo; hi ] ->
      let vx = lower_expr ctx env x in
      let vlo = lower_expr ctx env lo ~expect:vx.ty in
      let vhi = lower_expr ctx env hi ~expect:vx.ty in
      let vlo = coerce ctx vlo vx.ty pos and vhi = coerce ctx vhi vx.ty pos in
      let mx, mn =
        match vx.ty with
        | TInt (_, true) -> (Pir.Instr.SMax, Pir.Instr.SMin)
        | TInt (_, false) -> (Pir.Instr.UMax, Pir.Instr.UMin)
        | _ -> err pos "clamp expects integers"
      in
      let t = Builder.ibin ctx.b mx vx.op vlo.op in
      { op = Builder.ibin ctx.b mn t vhi.op; ty = vx.ty }
  | _, _ -> err pos "wrong number of arguments to %s" name

(* -- statement lowering -- *)

(* clone a lowered function under a new name / SPMD annotation (used for
   the partial-gang variant of an extracted region) *)
let clone_func (f : Pir.Func.t) name spmd : Pir.Func.t =
  {
    f with
    fname = name;
    spmd;
    blocks =
      List.map
        (fun (b : Pir.Func.block) ->
          { b with Pir.Func.instrs = b.Pir.Func.instrs })
        f.blocks;
    vty = Hashtbl.copy f.vty;
  }

(* does a psim body query head/tail gang position? (drives the
   specialization of paper §3) *)
let uses_head_tail (ss : stmt list) : bool =
  let found = ref false in
  let rec expr (e : expr) =
    match e.e with
    | Call (("psim_is_head_gang" | "psim_is_tail_gang"), _) -> found := true
    | Call (_, args) -> List.iter expr args
    | Bin (_, a, b) -> expr a; expr b
    | Un (_, a) | Cast (_, a) -> expr a
    | Index (p, i) -> expr p; expr i
    | Ternary (c, a, b) -> expr c; expr a; expr b
    | IntLit _ | FloatLit _ | BoolLit _ | Ident _ -> ()
  in
  let rec stmt (s : stmt) =
    match s.s with
    | Decl (_, _, e) | Assign (LIdent _, e) | ExprStmt e | Return (Some e) -> expr e
    | DeclArr _ | Return None | Break | Continue -> ()
    | Assign (LIndex (p, i), e) -> expr p; expr i; expr e
    | If (c, a, b) -> expr c; List.iter stmt a; List.iter stmt b
    | While (c, b) -> expr c; List.iter stmt b
    | For _ -> ()
    | Block b -> List.iter stmt b
    | Psim p -> List.iter stmt p.body
  in
  List.iter stmt ss;
  !found


let rec lower_stmts ctx env (ss : stmt list) : value Env.t =
  match ss with
  | [] -> env
  | [ ({ s = Return _; _ } as s) ] -> lower_stmt ctx env s
  | { s = Return _; spos } :: _ ->
      err spos "return is only allowed as the last statement of a function"
  | s :: rest ->
      let env = lower_stmt ctx env s in
      lower_stmts ctx env rest

and lower_stmt ctx env (s : stmt) : value Env.t =
  match s.s with
  | Decl (ty, x, e) ->
      let v = lower_expr ctx env e ~expect:ty in
      let v = coerce ctx v ty s.spos in
      Env.add x v env
  | DeclArr (ty, x, n) ->
      if n <= 0 then err s.spos "array length must be positive";
      let s_of = pir_scalar_of_ty s.spos ty in
      let p = Builder.alloca ctx.b s_of n in
      Env.add x { op = p; ty = TPtr ty } env
  | Assign (LIdent x, e) -> (
      match Env.find_opt x env with
      | None -> err s.spos "assignment to undeclared variable '%s'" x
      | Some old ->
          let v = lower_expr ctx env e ~expect:old.ty in
          let v = coerce ctx v old.ty s.spos in
          Env.add x v env)
  | Assign (LIndex (p, i), e) ->
      let ptr, elem_ty = lower_index ctx env p i s.spos in
      let v = lower_expr ctx env e ~expect:elem_ty in
      let v = coerce ctx v elem_ty s.spos in
      Builder.store ctx.b v.op ptr;
      env
  | ExprStmt e ->
      ignore (lower_expr ctx env e);
      env
  | Block body ->
      let env' = lower_stmts ctx env body in
      (* inner declarations drop; assignments to outer variables persist *)
      Env.mapi (fun x _ -> Env.find x env') env
  | If (c, thn, els) ->
      let vc = lower_expr ctx env c in
      if vc.ty <> TBool then err s.spos "if condition must be bool";
      let bt = Builder.fresh_block ctx.b "if.then" in
      let be = Builder.fresh_block ctx.b "if.else" in
      let bj = Builder.fresh_block ctx.b "if.join" in
      Builder.condbr ctx.b vc.op bt.bname be.bname;
      Builder.position ctx.b bt;
      let env_t = lower_stmts ctx env thn in
      let t_end = Builder.current ctx.b in
      Builder.br ctx.b bj.bname;
      Builder.position ctx.b be;
      let env_e = lower_stmts ctx env els in
      let e_end = Builder.current ctx.b in
      Builder.br ctx.b bj.bname;
      Builder.position ctx.b bj;
      (* merge: phi for every outer variable whose binding differs *)
      Env.mapi
        (fun x (outer : value) ->
          let vt = try Env.find x env_t with Not_found -> outer in
          let ve = try Env.find x env_e with Not_found -> outer in
          if vt.op = ve.op then vt
          else
            {
              op =
                Builder.phi ctx.b (pir_ty s.spos vt.ty)
                  [ (t_end.bname, vt.op); (e_end.bname, ve.op) ];
              ty = vt.ty;
            })
        env
  | While (c, body) ->
      let names = declared_here body in
      let assigned =
        List.sort_uniq compare
          (List.filter
             (fun x -> Env.mem x env && not (List.mem x names))
             (assigned_vars body))
      in
      let pre = Builder.current ctx.b in
      let hdr = Builder.fresh_block ctx.b "while.hdr" in
      let bbody = Builder.fresh_block ctx.b "while.body" in
      let bexit = Builder.fresh_block ctx.b "while.exit" in
      Builder.br ctx.b hdr.bname;
      Builder.position ctx.b hdr;
      let env_h =
        List.fold_left
          (fun env x ->
            let old = Env.find x env in
            let p =
              Builder.phi ctx.b (pir_ty s.spos old.ty) [ (pre.bname, old.op) ]
            in
            Env.add x { old with op = p } env)
          env assigned
      in
      let vc = lower_expr ctx env_h c in
      if vc.ty <> TBool then err s.spos "while condition must be bool";
      if (Builder.current ctx.b).bname <> hdr.bname then
        err s.spos "loop condition is too complex (front-end bug: desugaring should have rotated it)";
      Builder.condbr ctx.b vc.op bbody.bname bexit.bname;
      Builder.position ctx.b bbody;
      let env_b = lower_stmts ctx env_h body in
      let latch = Builder.current ctx.b in
      Builder.br ctx.b hdr.bname;
      (* patch header phis with the latch values *)
      List.iter
        (fun x ->
          let phi_op = (Env.find x env_h).op in
          let latch_val = (Env.find x env_b).op in
          let phi_id =
            match phi_op with Pir.Instr.Var v -> v | _ -> assert false
          in
          Builder.add_incoming ctx.b hdr phi_id [ (latch.bname, latch_val) ])
        assigned;
      Builder.position ctx.b bexit;
      env_h
  | Return _ when ctx.psim <> None ->
      err s.spos "return inside a psim region is not allowed"
  | Return None ->
      Builder.ret_void ctx.b;
      env
  | Return (Some e) ->
      let rty =
        match List.find_opt (fun f -> f.fname = ctx.host_name) ctx.prog with
        | Some f -> f.ret
        | None -> err s.spos "unknown enclosing function"
      in
      let v = lower_expr ctx env e ~expect:rty in
      let v = coerce ctx v rty s.spos in
      Builder.ret ctx.b (Some v.op);
      env
  | Break | Continue -> err s.spos "break/continue survived desugaring"
  | For _ -> err s.spos "for loop survived desugaring"
  | Psim { gang_size; num_threads; body } ->
      lower_psim ctx env ~gang_size ~num_threads ~body s.spos

(* -- SPMD region extraction (Listing 6) -- *)

and lower_psim ctx env ~gang_size ~num_threads ~body pos : value Env.t =
  if ctx.psim <> None then err pos "nested psim regions are not supported";
  let gang = Int64.to_int (const_eval gang_size) in
  if gang <= 0 || gang land (gang - 1) <> 0 || gang > 512 then
    err pos "gang_size must be a power of two between 1 and 512 (got %d)" gang;
  let n_v = lower_expr ctx env num_threads ~expect:(TInt (64, false)) in
  let n_v = coerce ctx n_v (TInt (64, false)) pos in
  (* captured variables: free in the body and bound in the host scope *)
  let captured =
    List.filter (fun x -> Env.mem x env) (free_vars body)
  in
  let cap_vals = List.map (fun x -> (x, Env.find x env)) captured in
  (* reject captured-scalar mutation inside the region: capture is by
     value here (the paper captures by reference; our benchmarks only
     mutate through pointers, which behave identically) *)
  List.iter
    (fun x ->
      if List.mem x (assigned_vars body) && List.mem x captured then
        err pos "psim region assigns captured scalar '%s' (write through a pointer instead)" x)
    (assigned_vars body);
  incr ctx.extract_counter;
  let base_name = Fmt.str "%s__psim%d" ctx.host_name !(ctx.extract_counter) in
  let params =
    List.mapi (fun i (_, (v : value)) -> (i, pir_ty pos v.ty)) cap_vals
    @ [
        (List.length cap_vals, Pir.Types.i64);
        (List.length cap_vals + 1, Pir.Types.i64);
      ]
  in
  (* restrict facts survive extraction: a captured pointer that is a
     restrict parameter of the host function stays restrict in the
     variant (the variant accesses the same objects under the same
     no-alias contract) — the alias analysis consumers (sanitizer, SLP
     packer) otherwise lose exactly the facts they need inside the
     region *)
  let noalias =
    List.filteri
      (fun _ (_, (_, (v : value))) ->
        match v.op with
        | Pir.Instr.Var p -> List.mem p ctx.func.Pir.Func.noalias
        | Pir.Instr.Const _ -> false)
      (List.mapi (fun i cv -> (i, cv)) cap_vals)
    |> List.map fst
  in
  (* lower the region body into a fresh SPMD-annotated function; the
     specialization flags fold psim_is_head_gang / psim_is_tail_gang to
     constants in that copy (paper §3: boundary checks are "optimized
     away from the non-boundary gang execution") *)
  let build_variant ~name ~partial ~is_head ~is_tail =
    let ef =
      Pir.Func.create name ~params ~ret:Pir.Types.Void ~noalias
        ~spmd:{ Pir.Func.gang_size = gang; partial }
    in
    let eb = Builder.create ef in
    let psim_ctx =
      {
        gang;
        gang_op = Pir.Instr.Var (List.length cap_vals);
        nthreads_op = Pir.Instr.Var (List.length cap_vals + 1);
        is_head;
        is_tail;
      }
    in
    let ectx = { ctx with b = eb; func = ef; psim = Some psim_ctx } in
    let eenv =
      List.fold_left
        (fun acc (i, (x, (v : value))) ->
          Env.add x { op = Pir.Instr.Var i; ty = v.ty } acc)
        Env.empty
        (List.mapi (fun i xv -> (i, xv)) cap_vals)
    in
    ignore (lower_stmts ectx eenv body);
    Builder.ret_void eb;
    Builder.finish eb;
    Pir.Func.add_func ctx.modul ef;
    ef
  in
  let cap_ops = List.map (fun (_, (v : value)) -> v.op) cap_vals in
  let g64 = Pir.Instr.ci64 gang in
  let call_variant name gang_op = Builder.call_unit ctx.b name (cap_ops @ [ gang_op; n_v.op ]) in
  (* emit [if cond then call...] as a host conditional *)
  let guarded cond emit_call =
    let bdo = Builder.fresh_block ctx.b "gang.guard" in
    let bdone = Builder.fresh_block ctx.b "gang.guard.done" in
    Builder.condbr ctx.b cond bdo.bname bdone.bname;
    Builder.position ctx.b bdo;
    emit_call ();
    Builder.br ctx.b bdone.bname;
    Builder.position ctx.b bdone
  in
  (* mid-gang loop over [lo, hi) *)
  let gang_loop fn_name lo hi =
    let pre = Builder.current ctx.b in
    let ghdr = Builder.fresh_block ctx.b "gang.hdr" in
    let gbody = Builder.fresh_block ctx.b "gang.body" in
    let gexit = Builder.fresh_block ctx.b "gang.exit" in
    Builder.br ctx.b ghdr.bname;
    Builder.position ctx.b ghdr;
    let gi = Builder.phi ctx.b Pir.Types.i64 [ (pre.bname, lo) ] in
    let gc = Builder.icmp ctx.b Pir.Instr.Slt gi hi in
    Builder.condbr ctx.b gc gbody.bname gexit.bname;
    Builder.position ctx.b gbody;
    call_variant fn_name gi;
    let gi' = Builder.add ctx.b gi (Pir.Instr.ci64 1) in
    let latch = Builder.current ctx.b in
    Builder.br ctx.b ghdr.bname;
    (match gi with
    | Pir.Instr.Var phi_id -> Builder.add_incoming ctx.b ghdr phi_id [ (latch.bname, gi') ]
    | _ -> assert false);
    Builder.position ctx.b gexit
  in
  if uses_head_tail body then begin
    (* head / mid / tail copies; head and tail are partial-safe (a lone
       or trailing gang may be partially full) *)
    ignore
      (build_variant ~name:(base_name ^ "_head") ~partial:true
         ~is_head:(Some true) ~is_tail:None);
    ignore
      (build_variant ~name:base_name ~partial:false ~is_head:(Some false)
         ~is_tail:(Some false));
    ignore
      (build_variant ~name:(base_name ^ "_tail") ~partial:true
         ~is_head:(Some false) ~is_tail:(Some true));
    let n1 = Builder.add ctx.b n_v.op (Pir.Instr.ci64 (gang - 1)) in
    let ngangs = Builder.ibin ctx.b Pir.Instr.UDiv n1 g64 in
    let have_any = Builder.icmp ctx.b Pir.Instr.Ugt ngangs (Pir.Instr.ci64 0) in
    guarded have_any (fun () ->
        call_variant (base_name ^ "_head") (Pir.Instr.ci64 0));
    let last = Builder.sub ctx.b ngangs (Pir.Instr.ci64 1) in
    gang_loop base_name (Pir.Instr.ci64 1) last;
    let have_tail = Builder.icmp ctx.b Pir.Instr.Ugt ngangs (Pir.Instr.ci64 1) in
    guarded have_tail (fun () -> call_variant (base_name ^ "_tail") last)
  end
  else begin
    (* Listing 6: full-gang loop plus a partially-masked call for the
       remainder (omitted when the thread count is a known multiple) *)
    ignore
      (build_variant ~name:base_name ~partial:false ~is_head:None ~is_tail:None);
    let n_const =
      match num_threads.e with
      | IntLit v -> Some v
      | Cast (_, { e = IntLit v; _ }) -> Some v
      | _ -> None
    in
    let needs_partial =
      match n_const with
      | Some n -> Int64.rem n (Int64.of_int gang) <> 0L
      | None -> true
    in
    let pf_name = base_name ^ "_tail" in
    if needs_partial then begin
      let ef = Pir.Func.find_func ctx.modul base_name in
      Pir.Func.add_func ctx.modul
        (clone_func ef pf_name (Some { Pir.Func.gang_size = gang; partial = true }))
    end;
    let full = Builder.ibin ctx.b Pir.Instr.UDiv n_v.op g64 in
    gang_loop base_name (Pir.Instr.ci64 0) full;
    if needs_partial then begin
      let rem = Builder.ibin ctx.b Pir.Instr.URem n_v.op g64 in
      let has_tail = Builder.icmp ctx.b Pir.Instr.Ne rem (Pir.Instr.ci64 0) in
      guarded has_tail (fun () -> call_variant pf_name full)
    end
  end;
  env

(* -- function and program lowering -- *)

let lower_func ~prog ~modul ~extract_counter (f : Ast.func) : unit =
  let params =
    List.mapi (fun i (p : param) -> (i, pir_ty no_pos p.pty)) f.params
  in
  let noalias =
    List.filteri (fun _ (p : param) -> p.restrict) f.params
    |> List.map (fun (p : param) ->
           let rec idx i = function
             | [] -> assert false
             | q :: _ when q == p -> i
             | _ :: rest -> idx (i + 1) rest
           in
           idx 0 f.params)
  in
  let pf =
    Pir.Func.create f.fname ~params ~ret:(pir_ty no_pos f.ret) ~noalias
  in
  let b = Builder.create pf in
  let ctx =
    {
      prog;
      modul;
      b;
      func = pf;
      psim = None;
      extract_counter;
      host_name = f.fname;
    }
  in
  let env =
    List.fold_left
      (fun acc (i, (p : param)) ->
        Env.add p.pname { op = Pir.Instr.Var i; ty = p.pty } acc)
      Env.empty
      (List.mapi (fun i p -> (i, p)) f.params)
  in
  ignore (lower_stmts ctx env f.body);
  (* implicit return for void functions without a trailing return; the
     builder's current block is where control falls off the end *)
  (match (Builder.current b).term with
  | Pir.Instr.Unreachable when f.ret = TVoid -> Builder.ret_void b
  | Pir.Instr.Unreachable ->
      err no_pos "function %s must end with a return" f.fname
  | _ -> ());
  Builder.finish b;
  Pir.Func.add_func modul pf

(** Compile a PsimC source string to a PIR module: desugar, inline,
    typecheck, lower, extract SPMD regions. *)
let compile ?(name = "psimc") (src : string) : Pir.Func.modul =
  Pobs.Trace.with_span ~cat:"frontend" ~args:[ ("module", name) ] "compile"
    (fun () ->
      let prog =
        Pobs.Trace.with_span ~cat:"frontend" "parse" (fun () ->
            Parser.parse_program src)
      in
      let prog =
        Pobs.Trace.with_span ~cat:"frontend" "desugar" (fun () ->
            Desugar.desugar_program prog)
      in
      let prog =
        Pobs.Trace.with_span ~cat:"frontend" "inline" (fun () ->
            Inline.inline_program prog)
      in
      Pobs.Trace.with_span ~cat:"frontend" "lower" (fun () ->
          let modul = Pir.Func.create_module name in
          let extract_counter = ref 0 in
          List.iter (lower_func ~prog ~modul ~extract_counter) prog;
          modul))

(** Compile from an AST (for tests that build programs directly). *)
let compile_ast ?(name = "psimc") (prog : program) : Pir.Func.modul =
  let prog = Desugar.desugar_program prog in
  let prog = Inline.inline_program prog in
  let modul = Pir.Func.create_module name in
  let extract_counter = ref 0 in
  List.iter (lower_func ~prog ~modul ~extract_counter) prog;
  modul
