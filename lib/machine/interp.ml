(** Execution engines for PIR on the simulated machine.

    Two engines share this module:

    - the single-thread interpreter, which executes ordinary (serial or
      vectorized) functions and accumulates cycle costs from
      [Cost.model]; and

    - the SPMD reference executor, which gives SPMD-annotated scalar
      functions their programming-model semantics (paper §3): a gang of
      conceptually independent threads with weak forward-progress,
      scheduled cooperatively and exchanging data only at explicit
      horizontal operations.  The gang rules live in {!Gang}; this
      module supplies the per-thread step.  It is the oracle that
      differential tests compare the vectorizer's output against.

    When the interpreter calls a function that still carries an SPMD
    annotation it dispatches one gang to the reference executor, so the
    same driver code runs before and after vectorization. *)

open Pir.Instr

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

type stats = Stats.t = {
  mutable cycles : float;
  mutable instrs : int;
  mutable vector_instrs : int;
  mutable gathers : int;
  mutable scatters : int;
  mutable packed_mem : int;
  mutable scalar_mem : int;
}

let empty_stats = Stats.empty

(* -- execution caches --

   The interpreter spends most of its time navigating module structure:
   [find_block] per branch, [List.nth] per SPMD step, one
   [List.assoc_opt] per phi per block entry, and [find_func] plus
   intrinsic string tests per call.  All of that is precomputed here,
   once per function per interpreter, on first call:

   - every block's instructions as an array ([all]), with the phi
     prefix length;
   - per predecessor label, the operand each phi takes from that edge;
   - the terminator's targets resolved to block records;
   - a name -> callee table replacing intrinsic prefix checks and the
     linear module scan.

   Caches key on the function record and its block-list spine, so a
   module must not be structurally modified between [run]s on the same
   interpreter (every pass runs before [create] in practice; create a
   fresh interpreter after further transformation). *)

type bexec = {
  blk : Pir.Func.block;  (** underlying block (name, terminator) *)
  all : Pir.Instr.instr array;  (** full instruction sequence *)
  costs : float array;
      (** charged cost per instruction, from [Cost.schedule_func] —
          static given the model and the function's type table, so paid
          once instead of per execution (the [Call] case scans strings) *)
  term_cost : float;
  nphis : int;  (** length of the phi prefix of [all] *)
  phi_cost_sum : float;  (** sum of [costs] over the phi prefix *)
  body_cost_sum : float;
      (** sum of [costs] past the phi prefix, plus [term_cost]: the
          static cost of one complete non-phi block execution, so the
          serial engine (and the VM) charge a block in O(1) *)
  n_vec_phi : int;  (** vector-typed phis (static, for block stats) *)
  n_vec_body : int;  (** vector-typed non-phi instructions *)
  phis_by_pred : (string * operand option array) list;
      (** for each incoming label: the operand each phi in the prefix
          takes from that edge ([None] = phi lacks that edge) *)
  mutable targets : targets;
  (* -- profiling accumulators (written only when [t.profile]) -- *)
  mutable p_entries : int;  (** times this block was entered *)
  mutable p_instrs : int;  (** instructions executed in this block *)
  p_cyc : floatarray;
      (** cycles attributed to this block; unboxed accumulator for the
          same reason as [t.cyc] *)
}

and targets = Tnone | Tbr of bexec | Tcond of bexec * bexec

type fexec = {
  fn : Pir.Func.t;
  blocks : Pir.Func.block list;  (** spine at build time (staleness check) *)
  entry_be : bexec;
  bes : bexec array;  (** every block, in function order (profiling walk) *)
}

type callee =
  | CMath  (** math / SLEEF / ispc library entry: [Mathlib.eval] *)
  | CPsim  (** Parsimony intrinsic: traps outside SPMD execution *)
  | CFunc of Pir.Func.t
  | CUnknown

type t = {
  modul : Pir.Func.modul;
  mem : Memory.t;
  model : Cost.model;
  stats : stats;
  cyc : floatarray;
      (** running cycle count: unboxed accumulator behind [charge],
          flushed to [stats.cycles] when [run] returns ([stats.cycles]
          is a float field of a mixed record, so adding to it directly
          would box a fresh float per executed instruction) *)
  mutable fuel : int;
  count_cost : bool;
  mutable profile : bool;
      (** attribute per-block entries/instructions/cycles into the
          [bexec] accumulators as execution proceeds *)
  prof_root : Profile.node;
      (** call-tree root for folded-stack output; children are the
          top-level entry functions of profiled runs *)
  mutable prof_stack : Profile.node list;
      (** current call path, innermost first; [] = at the root *)
  prof_mark : floatarray;
      (** cycle watermark of the last call boundary: self-time flushed
          to the current node is [cyc - mark] (unboxed, like [cyc]) *)
  fexecs : (string, fexec) Hashtbl.t;
  callees : (string, callee) Hashtbl.t;
}

let create ?(model = Cost.default) ?mem ?(fuel = 2_000_000_000) ?(profile = false)
    modul =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  {
    modul;
    mem;
    model;
    stats = empty_stats ();
    cyc = Float.Array.make 1 0.0;
    fuel;
    count_cost = true;
    profile;
    prof_root = Profile.make_node "(root)";
    prof_stack = [];
    prof_mark = Float.Array.make 1 0.0;
    fexecs = Hashtbl.create 16;
    callees = Hashtbl.create 32;
  }

let build_fexec model (f : Pir.Func.t) : fexec =
  let scheds = Cost.schedule_func model f in
  let bexecs =
    List.map
      (fun (b : Pir.Func.block) ->
        let all = Array.of_list b.instrs in
        let sched : Cost.block_sched = Hashtbl.find scheds b.bname in
        let costs = sched.cs_costs in
        let term_cost = sched.cs_term in
        let nphis = sched.cs_nphis in
        let preds =
          (* union of incoming labels across the phi prefix, in
             first-appearance order *)
          let seen = ref [] in
          for j = 0 to nphis - 1 do
            match all.(j).op with
            | Phi incoming ->
                List.iter
                  (fun (l, _) ->
                    if not (List.mem l !seen) then seen := l :: !seen)
                  incoming
            | _ -> assert false
          done;
          List.rev !seen
        in
        let phis_by_pred =
          List.map
            (fun p ->
              ( p,
                Array.init nphis (fun j ->
                    match all.(j).op with
                    | Phi incoming -> List.assoc_opt p incoming
                    | _ -> assert false) ))
            preds
        in
        {
          blk = b;
          all;
          costs;
          term_cost;
          nphis;
          phi_cost_sum = sched.cs_phi_sum;
          body_cost_sum = sched.cs_body_sum;
          n_vec_phi = sched.cs_nvec_phi;
          n_vec_body = sched.cs_nvec_body;
          phis_by_pred;
          targets = Tnone;
          p_entries = 0;
          p_instrs = 0;
          p_cyc = Float.Array.make 1 0.0;
        })
      f.blocks
  in
  let tbl = Hashtbl.create 16 in
  List.iter (fun be -> Hashtbl.replace tbl be.blk.bname be) bexecs;
  let resolve l =
    match Hashtbl.find_opt tbl l with
    | Some be -> be
    | None ->
        Fmt.invalid_arg "Func.find_block: no block %%%s in %s" l f.fname
  in
  List.iter
    (fun be ->
      be.targets <-
        (match be.blk.term with
        | Br l -> Tbr (resolve l)
        | CondBr (_, l1, l2) -> Tcond (resolve l1, resolve l2)
        | Ret _ | Unreachable -> Tnone))
    bexecs;
  match bexecs with
  | [] -> Fmt.invalid_arg "Func.entry: %s has no blocks" f.fname
  | entry_be :: _ ->
      { fn = f; blocks = f.blocks; entry_be; bes = Array.of_list bexecs }

let fexec_of t (f : Pir.Func.t) : fexec =
  match Hashtbl.find_opt t.fexecs f.fname with
  | Some fe when fe.fn == f && fe.blocks == f.blocks -> fe
  | _ ->
      let fe = build_fexec t.model f in
      Hashtbl.replace t.fexecs f.fname fe;
      fe

let callee_of t name : callee =
  match Hashtbl.find_opt t.callees name with
  | Some c -> c
  | None ->
      let c =
        if
          Pir.Intrinsics.is_math name || Pir.Intrinsics.is_sleef name
          || Pir.Intrinsics.is_ispc name
        then CMath
        else if Pir.Intrinsics.is_psim name then CPsim
        else
          match Pir.Func.find_func_opt t.modul name with
          | Some callee -> CFunc callee
          | None -> CUnknown
      in
      Hashtbl.replace t.callees name c;
      c

let charge t c =
  Float.Array.unsafe_set t.cyc 0 (Float.Array.unsafe_get t.cyc 0 +. c)

(** Make [stats.cycles] reflect the unboxed accumulator (see [cyc]). *)
let flush_cycles t = t.stats.cycles <- Float.Array.get t.cyc 0

(* profiling: add [c] cycles to a block's accumulator *)
let attr_cyc (be : bexec) c =
  Float.Array.unsafe_set be.p_cyc 0 (Float.Array.unsafe_get be.p_cyc 0 +. c)

(* -- call-tree tracking (profiling only) --

   Self-time is flushed to the node on top of the stack at every call
   boundary: cost is paid per *call*, never per block, so the folded
   stacks come for free relative to the block attribution above.  The
   VM shares this tree (its [call] pushes here too), which is what
   makes interp-vs-VM folded output comparable bit for bit. *)

let prof_flush t =
  let now = Float.Array.get t.cyc 0 in
  let node = match t.prof_stack with n :: _ -> n | [] -> t.prof_root in
  node.Profile.cn_self <-
    node.Profile.cn_self +. (now -. Float.Array.get t.prof_mark 0);
  Float.Array.set t.prof_mark 0 now

let prof_push t name =
  prof_flush t;
  let parent = match t.prof_stack with n :: _ -> n | [] -> t.prof_root in
  t.prof_stack <- Profile.child parent name :: t.prof_stack

let prof_pop t =
  prof_flush t;
  match t.prof_stack with [] -> () | _ :: rest -> t.prof_stack <- rest

let burn t =
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then trap "out of fuel (infinite loop?)"

(* block-granular fuel: the serial engine (and the VM, identically)
   burns a whole block's instructions at once *)
let burn_n t n =
  t.fuel <- t.fuel - n;
  if t.fuel <= 0 then trap "out of fuel (infinite loop?)"

(* -- environments --

   The [get]/[oty] resolvers live in the environment so the interpreter
   allocates them once per function invocation instead of once per
   executed instruction (they are passed to [Eval.pure_op] on every
   data operation). *)

type env = {
  vals : Value.t array;
  get : operand -> Value.t;
  oty : operand -> Pir.Types.t;
}

let get_operand env (o : operand) : Value.t =
  match o with
  | Var v -> env.vals.(v)
  | Const (Cint (_, x)) -> Value.I x
  | Const (Cfloat (s, x)) -> Value.F (Value.round_float s x)
  | Const (Cvec (_, a)) -> Value.VI (Array.copy a)

let make_env (f : Pir.Func.t) args =
  let vals = Array.make (max 1 f.next_id) Value.Unit in
  (try
     List.iter2 (fun (v, _) a -> vals.(v) <- a) f.params args
   with Invalid_argument _ ->
     trap "call to %s with %d args (expected %d)" f.fname (List.length args)
       (List.length f.params));
  let rec env =
    { vals; get = (fun o -> get_operand env o); oty = Pir.Func.ty_of_operand f }
  in
  env

(* -- memory operation helpers -- *)

let elem_size (f : Pir.Func.t) (p : operand) =
  match Pir.Func.ty_of_operand f p with
  | Pir.Types.Ptr s -> (s, Pir.Types.scalar_bytes s)
  | ty -> trap "memory op through non-pointer (%a)" Pir.Types.pp ty

let active_lanes mask n =
  match mask with
  | None -> Array.make n true
  | Some (Value.VI m) -> Array.map (fun x -> x <> 0L) m
  | Some v -> trap "bad mask %a" Value.pp v

(* Evaluate a block's phi prefix on entry from [prev_label].  Phis read
   their inputs simultaneously: all operands are evaluated before any
   result is assigned.  With [account] (the SPMD engine, which parks
   mid-block), fuel/stat/cost accounting happens here per phi; the
   serial engine accounts block-granularly in its run loop instead. *)
let exec_phis t (f : Pir.Func.t) env (be : bexec) ~prev_label ~account =
  if be.nphis > 0 then begin
    let ops =
      match List.assoc_opt prev_label be.phis_by_pred with
      | Some ops -> ops
      | None ->
          trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    in
    let vals = Array.make be.nphis Value.Unit in
    for j = 0 to be.nphis - 1 do
      let i = be.all.(j) in
      if account then begin
        burn t;
        t.stats.instrs <- t.stats.instrs + 1;
        if Pir.Types.is_vector i.ty then
          t.stats.vector_instrs <- t.stats.vector_instrs + 1;
        if t.count_cost then charge t be.costs.(j)
      end;
      match ops.(j) with
      | Some o -> vals.(j) <- get_operand env o
      | None ->
          trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    done;
    for j = 0 to be.nphis - 1 do
      env.vals.(be.all.(j).id) <- vals.(j)
    done;
    if account && t.profile then begin
      be.p_instrs <- be.p_instrs + be.nphis;
      if t.count_cost then attr_cyc be be.phi_cost_sum
    end
  end

(* -- SPMD threads --

   One logical thread of a gang ([run_spmd_gang]): its own environment
   and control position, and the value operations [Gang] routes
   horizontal calls with. *)

type thread = {
  lane : int;
  env : env;
  mutable be : bexec;
  mutable idx : int;
  mutable prev : string;
}

let gang_ops : Value.t Gang.ops =
  {
    unit = Value.Unit;
    zero = Value.zero;
    int = Value.as_int;
    sad =
      (fun _ pairs ->
        Value.I
          (List.fold_left
             (fun acc (a, b) ->
               Int64.add acc (Pir.Ints.abs_diff_u 8 (Value.as_int a) (Value.as_int b)))
             0L pairs));
  }

(* -- instruction execution (shared by both engines) --
   [exec_call] handles Call ops; everything else is interpreted here.
   Fuel/instr/cycle accounting is the caller's job: the serial engine
   accounts block-granularly, the SPMD engine per instruction. *)

let rec exec_instr t (f : Pir.Func.t) env ~prev_label ~exec_call
    (i : instr) : Value.t =
  let get = env.get in
  let operand_ty = env.oty in
  match i.op with
  | Alloca (s, n) ->
      Value.I (Int64.of_int (Memory.alloc t.mem (Pir.Types.scalar_bytes s * n)))
  | Load p ->
      let s, _ = elem_size f p in
      t.stats.scalar_mem <- t.stats.scalar_mem + 1;
      Memory.load_scalar t.mem s (Int64.to_int (Value.as_int (get p)))
  | Store (v, p) ->
      let s, _ = elem_size f p in
      t.stats.scalar_mem <- t.stats.scalar_mem + 1;
      Memory.store_scalar t.mem s (Int64.to_int (Value.as_int (get p))) (get v);
      Value.Unit
  | Gep (p, idx) ->
      let _, esz = elem_size f p in
      let base = Value.as_int (get p) in
      let iw = Pir.Types.scalar_bits (Pir.Types.elem (operand_ty idx)) in
      let off = Pir.Ints.sext iw (Value.as_int (get idx)) in
      Value.I (Int64.add base (Int64.mul off (Int64.of_int esz)))
  | VLoad (p, mask) -> (
      let s, esz = elem_size f p in
      let n = Pir.Types.lanes i.ty in
      let base = Int64.to_int (Value.as_int (get p)) in
      t.stats.packed_mem <- t.stats.packed_mem + 1;
      (* unmasked packed loads fill the lane array unboxed *)
      match mask with
      | None when Pir.Types.is_float_scalar s ->
          let r = Array.make n 0.0 in
          for l = 0 to n - 1 do
            Array.unsafe_set r l (Memory.load_float t.mem s (base + (l * esz)))
          done;
          Value.VF r
      | None ->
          let r = Array.make n 0L in
          for l = 0 to n - 1 do
            Array.unsafe_set r l (Memory.load_int t.mem s (base + (l * esz)))
          done;
          Value.VI r
      | Some _ ->
          let act = active_lanes (Option.map get mask) n in
          Value.of_lanes s
            (Array.init n (fun l ->
                 if act.(l) then Memory.load_scalar t.mem s (base + (l * esz))
                 else Value.zero (Pir.Types.Scalar s))))
  | VStore (v, p, mask) -> (
      let s, esz = elem_size f p in
      let vv = get v in
      let base = Int64.to_int (Value.as_int (get p)) in
      t.stats.packed_mem <- t.stats.packed_mem + 1;
      match (mask, vv) with
      | None, Value.VI x when not (Pir.Types.is_float_scalar s) ->
          for l = 0 to Array.length x - 1 do
            Memory.store_int t.mem s (base + (l * esz)) (Array.unsafe_get x l)
          done;
          Value.Unit
      | None, Value.VF x when Pir.Types.is_float_scalar s ->
          for l = 0 to Array.length x - 1 do
            Memory.store_float t.mem s (base + (l * esz)) (Array.unsafe_get x l)
          done;
          Value.Unit
      | _ ->
          let n = Value.lanes vv in
          let act = active_lanes (Option.map get mask) n in
          for l = 0 to n - 1 do
            if act.(l) then
              Memory.store_scalar t.mem s (base + (l * esz)) (Value.lane vv l)
          done;
          Value.Unit)
  | Gather (b, idx, mask) -> (
      let s, esz = elem_size f b in
      let base = Value.as_int (get b) in
      let idxs = Value.as_ivec (get idx) in
      let iw = Pir.Types.scalar_bits (Pir.Types.elem (operand_ty idx)) in
      let n = Array.length idxs in
      t.stats.gathers <- t.stats.gathers + 1;
      let lane_addr l =
        Int64.to_int
          (Int64.add base
             (Int64.mul (Pir.Ints.sext iw idxs.(l)) (Int64.of_int esz)))
      in
      match mask with
      | None when Pir.Types.is_float_scalar s ->
          let r = Array.make n 0.0 in
          for l = 0 to n - 1 do
            Array.unsafe_set r l (Memory.load_float t.mem s (lane_addr l))
          done;
          Value.VF r
      | None ->
          let r = Array.make n 0L in
          for l = 0 to n - 1 do
            Array.unsafe_set r l (Memory.load_int t.mem s (lane_addr l))
          done;
          Value.VI r
      | Some _ ->
          let act = active_lanes (Option.map get mask) n in
          Value.of_lanes s
            (Array.init n (fun l ->
                 if act.(l) then Memory.load_scalar t.mem s (lane_addr l)
                 else Value.zero (Pir.Types.Scalar s))))
  | Scatter (v, b, idx, mask) -> (
      let s, esz = elem_size f b in
      let vv = get v in
      let base = Value.as_int (get b) in
      let idxs = Value.as_ivec (get idx) in
      let iw = Pir.Types.scalar_bits (Pir.Types.elem (operand_ty idx)) in
      let n = Array.length idxs in
      t.stats.scatters <- t.stats.scatters + 1;
      let lane_addr l =
        Int64.to_int
          (Int64.add base
             (Int64.mul (Pir.Ints.sext iw idxs.(l)) (Int64.of_int esz)))
      in
      match (mask, vv) with
      | None, Value.VI x when not (Pir.Types.is_float_scalar s) ->
          for l = 0 to n - 1 do
            Memory.store_int t.mem s (lane_addr l) (Array.unsafe_get x l)
          done;
          Value.Unit
      | None, Value.VF x when Pir.Types.is_float_scalar s ->
          for l = 0 to n - 1 do
            Memory.store_float t.mem s (lane_addr l) (Array.unsafe_get x l)
          done;
          Value.Unit
      | _ ->
          let act = active_lanes (Option.map get mask) n in
          for l = 0 to n - 1 do
            if act.(l) then
              Memory.store_scalar t.mem s (lane_addr l) (Value.lane vv l)
          done;
          Value.Unit)
  | Call (name, args) -> exec_call i name (List.map get args)
  | Phi incoming -> (
      match List.assoc_opt prev_label incoming with
      | Some o -> get o
      | None -> trap "phi in %s has no incoming for predecessor %s" f.fname prev_label)
  | op -> Eval.pure_op ~ty:i.ty ~operand_ty ~get op

(* -- single-thread interpreter -- *)

and exec_func t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  (* profiled runs maintain the call tree around every function
     activation (exception-safe: a trap unwinds the stack too) *)
  if t.profile then begin
    prof_push t f.fname;
    match exec_func_body t f args with
    | v ->
        prof_pop t;
        v
    | exception e ->
        prof_pop t;
        raise e
  end
  else exec_func_body t f args

and exec_func_body t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  match f.spmd with
  | Some _ -> run_spmd_gang t f args
  | None ->
      let fe = fexec_of t f in
      let env = make_env f args in
      let frame = Memory.mark t.mem in
      let exec_call _instr name vargs = dispatch_call t name vargs in
      let rec run (be : bexec) prev_label =
        (* Block-granular accounting: the whole block's fuel, instruction
           counts and cycle charges land up front, in the same order the
           VM performs them, so both engines report bit-identical stats
           and cycle totals for the same execution. *)
        let all = be.all in
        let nbody = Array.length all - be.nphis in
        burn_n t (be.nphis + nbody);
        t.stats.instrs <- t.stats.instrs + be.nphis + nbody;
        t.stats.vector_instrs <-
          t.stats.vector_instrs + be.n_vec_phi + be.n_vec_body;
        if t.count_cost then begin
          charge t be.phi_cost_sum;
          charge t be.body_cost_sum
        end;
        if t.profile then begin
          be.p_entries <- be.p_entries + 1;
          be.p_instrs <- be.p_instrs + be.nphis + nbody;
          if t.count_cost then begin
            attr_cyc be be.phi_cost_sum;
            attr_cyc be be.body_cost_sum
          end
        end;
        exec_phis t f env be ~prev_label ~account:false;
        for k = be.nphis to Array.length all - 1 do
          let i = Array.unsafe_get all k in
          let v = exec_instr t f env ~prev_label ~exec_call i in
          if i.ty <> Pir.Types.Void then env.vals.(i.id) <- v
        done;
        match be.blk.term with
        | Br _ -> (
            match be.targets with
            | Tbr nb -> run nb be.blk.bname
            | _ -> assert false)
        | CondBr (c, _, _) -> (
            match be.targets with
            | Tcond (bt, bf) ->
                run
                  (if Value.as_bool (get_operand env c) then bt else bf)
                  be.blk.bname
            | _ -> assert false)
        | Ret None -> Value.Unit
        | Ret (Some o) -> get_operand env o
        | Unreachable -> trap "reached unreachable in %s" f.fname
      in
      let result = run fe.entry_be "$entry" in
      Memory.release t.mem frame;
      result

and dispatch_call t name args : Value.t =
  match callee_of t name with
  | CMath -> Mathlib.eval name args
  | CPsim -> trap "Parsimony intrinsic %s outside SPMD execution" name
  | CFunc callee -> exec_func t callee args
  | CUnknown -> trap "call to unknown function %s" name

(* -- SPMD reference executor --

   [Gang] owns the gang's semantics (activation, scheduling,
   synchronization checks, horizontal-op lane routing); what follows is
   one logical thread's cursor and step over this interpreter. *)

and run_spmd_gang t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  let fe = fexec_of t f in
  let frame = Memory.mark t.mem in
  let init lane =
    if t.profile then fe.entry_be.p_entries <- fe.entry_be.p_entries + 1;
    { lane; env = make_env f args; be = fe.entry_be; idx = 0; prev = "$entry" }
  in
  (* Run one thread until it parks or returns.  On block entry the phi
     prefix is evaluated atomically (phis read their inputs
     simultaneously), so [idx] always points past the phis. *)
  let step th =
    let parked = ref None in
    let exec_call instr name vargs =
      if Pir.Intrinsics.is_horizontal name then begin
        parked := Some (Gang.Parked (instr, vargs));
        Value.Unit
      end
      else if name = Pir.Intrinsics.lane_num then Value.I (Int64.of_int th.lane)
      else dispatch_call t name vargs
    in
    let enter_bexec (nb : bexec) =
      th.prev <- th.be.blk.bname;
      th.be <- nb;
      if t.profile then nb.p_entries <- nb.p_entries + 1;
      exec_phis t f th.env nb ~prev_label:th.prev ~account:true;
      th.idx <- nb.nphis
    in
    let rec go () =
      let all = th.be.all in
      if th.idx < Array.length all then begin
        let i = Array.unsafe_get all th.idx in
        (* per-instruction accounting: SPMD threads park mid-block, so
           the block-granular fast path of the serial engine would
           double-count on resume *)
        burn t;
        t.stats.instrs <- t.stats.instrs + 1;
        if Pir.Types.is_vector i.ty then
          t.stats.vector_instrs <- t.stats.vector_instrs + 1;
        if t.count_cost then charge t (Array.unsafe_get th.be.costs th.idx);
        let v = exec_instr t f th.env ~prev_label:th.prev ~exec_call i in
        if t.profile then begin
          th.be.p_instrs <- th.be.p_instrs + 1;
          if t.count_cost then
            attr_cyc th.be (Array.unsafe_get th.be.costs th.idx)
        end;
        match !parked with
        | Some stop -> stop (* [resume] moves past the call *)
        | None ->
            if i.ty <> Pir.Types.Void then th.env.vals.(i.id) <- v;
            th.idx <- th.idx + 1;
            go ()
      end
      else begin
        if t.count_cost then begin
          charge t th.be.term_cost;
          if t.profile then attr_cyc th.be th.be.term_cost
        end;
        match (th.be.blk.term, th.be.targets) with
        | Br _, Tbr nb ->
            enter_bexec nb;
            go ()
        | CondBr (c, _, _), Tcond (bt, bf) ->
            enter_bexec (if Value.as_bool (get_operand th.env c) then bt else bf);
            go ()
        | Ret _, _ -> Gang.Finished
        | Unreachable, _ -> trap "SPMD thread reached unreachable in %s" f.fname
        | _ -> assert false
      end
    in
    go ()
  in
  let resume th (i : instr) v =
    if i.ty <> Pir.Types.Void then th.env.vals.(i.id) <- v;
    th.idx <- th.idx + 1
  in
  Gang.run ~fault:(fun s -> Trap s) ~ops:gang_ops ~init ~step ~resume f args;
  Memory.release t.mem frame;
  Value.Unit

(** Run function [name] with [args]; returns its result. *)
let run t name args =
  let before = if Pobs.Metrics.enabled () then Some (Stats.copy t.stats) else None in
  let finish () =
    flush_cycles t;
    Option.iter (fun b -> Stats.publish ~engine:"interp" ~before:b t.stats) before
  in
  match exec_func t (Pir.Func.find_func t.modul name) args with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* -- profiling report --

   The accumulators live on the [bexec] caches, so attribution costs one
   predictable branch per block (serial engine) or per instruction (SPMD
   engine) and nothing at all when [profile] is off.  Summing the report
   over all blocks reproduces [stats]: instruction counts exactly,
   cycles up to float addition reorder.  Note [fexec_of] rebuilds a
   function's cache (dropping its counts) if the function is
   structurally modified between runs — run the passes first, as usual. *)

let set_profile t on = t.profile <- on

type block_profile = {
  bp_func : string;
  bp_block : string;
  bp_entries : int;
  bp_instrs : int;
  bp_cycles : float;
}

let reset_profile t =
  Hashtbl.iter
    (fun _ fe ->
      Array.iter
        (fun be ->
          be.p_entries <- 0;
          be.p_instrs <- 0;
          Float.Array.set be.p_cyc 0 0.0)
        fe.bes)
    t.fexecs;
  Profile.reset_node t.prof_root;
  t.prof_stack <- [];
  (* snap the watermark to "now" so pre-reset cycles are not attributed
     to whatever runs next *)
  Float.Array.set t.prof_mark 0 (Float.Array.get t.cyc 0)

(** Executed blocks, hottest (most cycles) first; ties and the zero-cost
    tail are ordered by function then block name so the report is
    deterministic. *)
let profile_report t : block_profile list =
  Hashtbl.fold
    (fun _ fe acc ->
      Array.fold_left
        (fun acc be ->
          if be.p_entries = 0 then acc
          else
            {
              bp_func = fe.fn.Pir.Func.fname;
              bp_block = be.blk.Pir.Func.bname;
              bp_entries = be.p_entries;
              bp_instrs = be.p_instrs;
              bp_cycles = Float.Array.get be.p_cyc 0;
            }
            :: acc)
        acc fe.bes)
    t.fexecs []
  |> List.sort (fun a b ->
         match compare b.bp_cycles a.bp_cycles with
         | 0 -> (
             match String.compare a.bp_func b.bp_func with
             | 0 -> String.compare a.bp_block b.bp_block
             | c -> c)
         | c -> c)

(** Hot-block report: top [limit] blocks by attributed cycles, with
    cumulative percentage of all attributed cycles. *)
let pp_profile ?(limit = 20) ppf t =
  let rows = profile_report t in
  let total =
    List.fold_left (fun acc r -> acc +. r.bp_cycles) 0.0 rows
  in
  let shown = List.filteri (fun i _ -> i < limit) rows in
  Fmt.pf ppf "%-24s %-16s %10s %12s %14s %7s@." "function" "block" "entries"
    "instrs" "cycles" "cum%";
  let cum = ref 0.0 in
  List.iter
    (fun r ->
      cum := !cum +. r.bp_cycles;
      Fmt.pf ppf "%-24s %-16s %10d %12d %14.1f %6.1f%%@." r.bp_func r.bp_block
        r.bp_entries r.bp_instrs r.bp_cycles
        (if total > 0.0 then 100.0 *. !cum /. total else 0.0))
    shown;
  let rest = List.length rows - List.length shown in
  if rest > 0 then Fmt.pf ppf "(+ %d more block(s))@." rest

(* -- typed profile capture --

   [capture] packages the bexec accumulators, the opcode mix and the
   call tree into a [Profile.t].  The VM's [Vm.capture] reuses
   [profile_report]/[profile_mix] and merges its own per-code counters
   on top (SPMD gangs — and functions they call — execute on this
   interpreter even under the VM, so their attribution lands here). *)

(* class -> dynamic count.  Statically each block has a fixed class
   multiset; every entry executes the whole block (SPMD threads park at
   block boundaries, never mid-block), so weighting by [p_entries] is
   exact and reproduces [p_instrs]. *)
let profile_mix t : (string, int) Hashtbl.t =
  let mix = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ fe ->
      Array.iter
        (fun be ->
          if be.p_entries > 0 then
            Array.iter
              (fun (i : Pir.Instr.instr) ->
                let cls = Profile.classify i in
                let n = Option.value ~default:0 (Hashtbl.find_opt mix cls) in
                Hashtbl.replace mix cls (n + be.p_entries))
              be.all)
        fe.bes)
    t.fexecs;
  mix

let capture ?(engine = "interp") t : Profile.t =
  flush_cycles t;
  prof_flush t;
  let blocks =
    List.map
      (fun r ->
        {
          Profile.pb_func = r.bp_func;
          pb_block = r.bp_block;
          pb_entries = r.bp_entries;
          pb_instrs = r.bp_instrs;
          pb_cycles = r.bp_cycles;
        })
      (profile_report t)
  in
  let opcode_mix = Hashtbl.fold (fun c n acc -> (c, n) :: acc) (profile_mix t) [] in
  Profile.v ~engine ~blocks ~opcode_mix
    ~folded:(Profile.folded_of_root t.prof_root)
    ~total_cycles:t.stats.cycles ~total_instrs:t.stats.instrs
