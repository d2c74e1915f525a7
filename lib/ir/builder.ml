(** Convenience layer for constructing PIR functions.

    Emission is constant-time.  The open block's new instructions stay in
    the builder, newest first, until the builder leaves the block
    ([position], [current], [take]), and the blocks it adds stay in the
    builder until [finish] appends them to the function.  Every block the
    builder has left holds its instructions in order; the function is
    complete after [finish]. *)

open Instr

type t = {
  func : Func.t;
  mutable cur : Func.block;
  mutable pending : instr list;  (** new instructions of [cur], newest first *)
  mutable added : Func.block list;  (** blocks not yet in [func], newest first *)
}

let new_block name : Func.block = { bname = name; instrs = []; term = Unreachable }

(* move the open block's pending instructions into the block *)
let close t =
  match t.pending with
  | [] -> ()
  | pending ->
      t.cur.instrs <-
        (match t.cur.instrs with
        | [] -> List.rev pending
        | old -> old @ List.rev pending);
      t.pending <- []

let create ?(entry = "entry") func =
  let b = new_block entry in
  { func; cur = b; pending = []; added = [ b ] }

let detached func = { func; cur = new_block "$detached"; pending = []; added = [] }

let add_block t name =
  let b = new_block name in
  t.added <- b :: t.added;
  b

let finish t =
  close t;
  match t.added with
  | [] -> ()
  | added ->
      t.func.Func.blocks <- t.func.Func.blocks @ List.rev added;
      t.added <- []

let position t b =
  close t;
  t.cur <- b

let current t =
  close t;
  t.cur

let take t =
  close t;
  let instrs = t.cur.instrs in
  t.cur.instrs <- [];
  instrs

let add_incoming t (blk : Func.block) id extra =
  if blk == t.cur then close t;
  blk.instrs <-
    List.map
      (fun (i : instr) ->
        match i.op with
        | Phi inc when i.id = id -> { i with op = Phi (inc @ extra) }
        | _ -> i)
      blk.instrs

let mk_name =
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  fun prefix ->
    let r =
      match Hashtbl.find_opt counters prefix with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.replace counters prefix r;
          r
    in
    incr r;
    Fmt.str "%s%d" prefix !r

let fresh_block t prefix = add_block t (mk_name (prefix ^ "."))
let ty_of t o = Func.ty_of_operand t.func o
let append t i = t.pending <- i :: t.pending

let ins t ty op =
  let id = Func.fresh_id t.func in
  Func.set_ty t.func id ty;
  append t { id; ty; op };
  Var id

let ins_unit t op = ignore (ins t Types.Void op)

(* -- terminators -- *)

let set_term t term = t.cur.term <- term
let br t l = set_term t (Br l)
let condbr t c l1 l2 = set_term t (CondBr (c, l1, l2))
let ret t r = set_term t (Ret r)
let ret_void t = set_term t (Ret None)
(* -- typed helpers -- *)

let ibin t k a b = ins t (ty_of t a) (Ibin (k, a, b))
let fbin t k a b = ins t (ty_of t a) (Fbin (k, a, b))
let iun t k a = ins t (ty_of t a) (Iun (k, a))
let fun_ t k a = ins t (ty_of t a) (Fun (k, a))
let add t a b = ibin t Add a b
let sub t a b = ibin t Sub a b
let mul t a b = ibin t Mul a b
let and_ t a b = ibin t And a b
let or_ t a b = ibin t Or a b
let xor t a b = ibin t Xor a b
let shl t a b = ibin t Shl a b
let lshr t a b = ibin t LShr a b
let ashr t a b = ibin t AShr a b
let fadd t a b = fbin t FAdd a b
let fsub t a b = fbin t FSub a b
let fmul t a b = fbin t FMul a b
let fdiv t a b = fbin t FDiv a b
let not_ t a = iun t INot a

let icmp t p a b =
  let ty =
    match ty_of t a with
    | Types.Vec (_, n) -> Types.Vec (Types.I1, n)
    | _ -> Types.bool_
  in
  ins t ty (Icmp (p, a, b))

let fcmp t p a b =
  let ty =
    match ty_of t a with
    | Types.Vec (_, n) -> Types.Vec (Types.I1, n)
    | _ -> Types.bool_
  in
  ins t ty (Fcmp (p, a, b))

let select t c a b = ins t (ty_of t a) (Select (c, a, b))
let cast t k a ty = ins t ty (Cast (k, a, ty))
let alloca t s n = ins t (Types.Ptr s) (Alloca (s, n))

let load t p =
  match ty_of t p with
  | Types.Ptr s -> ins t (Types.Scalar s) (Load p)
  | ty -> Fmt.invalid_arg "Builder.load: not a pointer (%a)" Types.pp ty

let store t v p = ins_unit t (Store (v, p))
let gep t p i = ins t (ty_of t p) (Gep (p, i))
let call t ty name args = ins t ty (Call (name, args))
let call_unit t name args = ins_unit t (Call (name, args))
let phi t ty incoming = ins t ty (Phi incoming)

(* -- vector helpers -- *)

let splat t a n = ins t (Types.widen (ty_of t a) n) (Splat (a, n))

let vload t ?mask p n =
  match ty_of t p with
  | Types.Ptr s -> ins t (Types.Vec (s, n)) (VLoad (p, mask))
  | ty -> Fmt.invalid_arg "Builder.vload: not a pointer (%a)" Types.pp ty

let vstore t ?mask v p = ins_unit t (VStore (v, p, mask))

let gather t ?mask base idx =
  match (ty_of t base, ty_of t idx) with
  | Types.Ptr s, Types.Vec (_, n) -> ins t (Types.Vec (s, n)) (Gather (base, idx, mask))
  | _ -> invalid_arg "Builder.gather: expected pointer base and vector index"

let scatter t ?mask v base idx = ins_unit t (Scatter (v, base, idx, mask))

let shuffle t a b idx =
  let s = Types.elem (ty_of t a) in
  ins t (Types.Vec (s, Array.length idx)) (Shuffle (a, b, idx))

let shuffle_dyn t a idx = ins t (ty_of t a) (ShuffleDyn (a, idx))
let extract t v i = ins t (Types.Scalar (Types.elem (ty_of t v))) (ExtractLane (v, i))
let insert t v x i = ins t (ty_of t v) (InsertLane (v, x, i))

let reduce t k v =
  let ty =
    match (k, ty_of t v) with
    | (RAny | RAll), _ -> Types.bool_
    | _, Types.Vec (s, _) -> Types.Scalar s
    | _, ty -> Fmt.invalid_arg "Builder.reduce: not a vector (%a)" Types.pp ty
  in
  ins t ty (Reduce (k, v))

let first_lane t m = ins t Types.i32 (FirstLane m)

let psadbw t a b =
  match ty_of t a with
  | Types.Vec (Types.I8, n) when n mod 8 = 0 ->
      ins t (Types.Vec (Types.I64, n / 8)) (Psadbw (a, b))
  | ty -> Fmt.invalid_arg "Builder.psadbw: expected <8k x i8> (%a)" Types.pp ty
