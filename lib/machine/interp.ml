(** The tree-walking engine for PIR on the simulated machine.

    Two executors share this module:

    - the single-thread interpreter, which executes ordinary (serial or
      vectorized) functions and charges the cycle costs of
      [Cost.schedule_func]; and

    - the SPMD reference executor, which gives SPMD-annotated scalar
      functions their programming-model semantics (paper §3): a gang of
      conceptually independent threads with weak forward-progress,
      scheduled cooperatively and exchanging data only at explicit
      horizontal operations.  The gang rules live in {!Gang}; this
      module supplies the per-thread step.  It is the oracle that
      differential tests compare the vectorizer's output against.

    When the interpreter calls a function that still carries an SPMD
    annotation it dispatches one gang to the reference executor, so the
    same calling code runs before and after vectorization.  The machine
    state (memory, statistics, cycles, fuel, call tree) and the boxed
    semantics of each non-call instruction live in {!State}; this
    module walks the control flow.

    Both executors enter a block only through [enter], which charges
    the whole block once ([State.account], as the VM's [Acct] does),
    counts the entry while profiling, and evaluates the phi prefix.  A
    block's instructions and cycles per entry are static, so the entry
    counts are the whole profile ({!Profile.v} derives the rows). *)

open Pir.Instr

type stats = Stats.t = {
  mutable cycles : float;
  mutable instrs : int;
  mutable vector_instrs : int;
  mutable gathers : int;
  mutable scatters : int;
  mutable packed_mem : int;
  mutable scalar_mem : int;
}

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
  nphis : int;  (** length of the phi prefix of [all] *)
  sums : float array;
      (** what one entry charges, from [Cost.schedule_func]: the phi
          prefix's cycles, then the rest of the block's *)
  nvec : int;  (** vector-typed instructions *)
  phis_by_pred : (string * operand option array) list;
      (** for each incoming label: the operand each phi in the prefix
          takes from that edge ([None] = phi lacks that edge) *)
  mutable targets : targets;
  mutable entries : int;
      (** times this block was entered, counted while [State.t.profile] *)
}

and targets = Tnone | Tbr of bexec | Tcond of bexec * bexec

type fexec = {
  fn : Pir.Func.t;
  blocks : Pir.Func.block list;  (** spine at build time (staleness check) *)
  entry_be : bexec;
  bes : bexec array;  (** every block, in function order (entry counts) *)
}

type t = {
  modul : Pir.Func.modul;
  st : State.t;  (** memory, statistics, cycles, fuel, call tree *)
  fexecs : (string, fexec) Hashtbl.t;
  callees : (string, State.callee) Hashtbl.t;
}

(** An interpreter over machine state [st]; the VM builds its gang
    executor this way, over its own state. *)
let make st modul =
  { modul; st; fexecs = Hashtbl.create 16; callees = Hashtbl.create 32 }

let create ?mem ?fuel ?profile modul =
  make (State.create ?mem ?fuel ?profile ()) modul

let mem t = t.st.State.mem

let stats t = t.st.State.stats

let build_fexec (f : Pir.Func.t) : fexec =
  let scheds = Cost.schedule_func Cost.default f in
  let bexecs =
    List.map
      (fun (b : Pir.Func.block) ->
        let all = Array.of_list b.instrs in
        let sched : Cost.block_sched = Hashtbl.find scheds b.bname in
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
          nphis;
          sums = sched.cs_sums;
          nvec = sched.cs_nvec;
          phis_by_pred;
          targets = Tnone;
          entries = 0;
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
      let fe = build_fexec f in
      Hashtbl.replace t.fexecs f.fname fe;
      fe

let callee_of t name : State.callee =
  match Hashtbl.find_opt t.callees name with
  | Some c -> c
  | None ->
      let c = State.callee t.modul name in
      Hashtbl.replace t.callees name c;
      c

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
  | Const (Cvec (_, a)) -> Value.VI (Value.ivec_of_array a)

let make_env (f : Pir.Func.t) args =
  let vals = Array.make (max 1 f.next_id) Value.Unit in
  (try
     List.iter2 (fun (v, _) a -> vals.(v) <- a) f.params args
   with Invalid_argument _ ->
     State.trap "call to %s with %d args (expected %d)" f.fname (List.length args)
       (List.length f.params));
  let rec env =
    { vals; get = (fun o -> get_operand env o); oty = Pir.Func.ty_of_operand f }
  in
  env

(* Enter block [be] from [prev_label], for both executors: charge the
   whole block up front — fuel, instruction counts, then its cycles, in
   the order the VM's [Acct] charges them, so the engines report
   bit-identical stats — count the entry, and evaluate the phi prefix.
   Phis read their inputs simultaneously: all operands are evaluated
   before any result is assigned.  An SPMD thread that parks mid-block
   resumes past this point, so it never charges a block twice. *)
let enter t (f : Pir.Func.t) env (be : bexec) ~prev_label =
  State.account t.st (Array.length be.all) be.nvec be.sums;
  if t.st.profile then be.entries <- be.entries + 1;
  if be.nphis > 0 then begin
    let ops =
      match List.assoc_opt prev_label be.phis_by_pred with
      | Some ops -> ops
      | None ->
          State.trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    in
    let vals = Array.make be.nphis Value.Unit in
    for j = 0 to be.nphis - 1 do
      match ops.(j) with
      | Some o -> vals.(j) <- get_operand env o
      | None ->
          State.trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    done;
    for j = 0 to be.nphis - 1 do
      env.vals.(be.all.(j).id) <- vals.(j)
    done
  end

(* -- SPMD threads --

   One logical thread of a gang ([run_spmd_gang]): its own environment
   and control position, and the value operations [Gang] routes
   horizontal calls with. *)

type thread = { lane : int; env : env; mutable be : bexec; mutable idx : int }

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

(* -- instruction execution --
   [exec_call] handles Call ops; every other instruction past the phi
   prefix has its boxed semantics in [State.exec].  [enter] has already
   charged it. *)

let rec exec_instr t env ~exec_call (i : instr) : Value.t =
  match i.op with
  | Call (name, args) -> exec_call i name (List.map env.get args)
  | _ -> State.exec t.st ~get:env.get ~oty:env.oty i

(* -- single-thread interpreter -- *)

and exec_func t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  (* profiled runs maintain the call tree around every function
     activation (exception-safe: a trap unwinds the stack too) *)
  if t.st.profile then begin
    State.prof_push t.st f.fname;
    match exec_func_body t f args with
    | v ->
        State.prof_pop t.st;
        v
    | exception e ->
        State.prof_pop t.st;
        raise e
  end
  else exec_func_body t f args

and exec_func_body t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  match f.spmd with
  | Some _ -> run_spmd_gang t f args
  | None ->
      let fe = fexec_of t f in
      let env = make_env f args in
      let frame = Memory.mark t.st.mem in
      let exec_call _instr name vargs = dispatch_call t name vargs in
      let rec run (be : bexec) prev_label =
        enter t f env be ~prev_label;
        let all = be.all in
        for k = be.nphis to Array.length all - 1 do
          let i = Array.unsafe_get all k in
          let v = exec_instr t env ~exec_call i in
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
        | Unreachable -> State.trap "reached unreachable in %s" f.fname
      in
      let result = run fe.entry_be "$entry" in
      Memory.release t.st.mem frame;
      result

and dispatch_call t name args : Value.t =
  match callee_of t name with
  | Math -> Mathlib.eval name args
  | Func callee -> exec_func t callee args
  | Bad msg -> State.trap "%s" msg

(* -- SPMD reference executor --

   [Gang] owns the gang's semantics (activation, scheduling,
   synchronization checks, horizontal-op lane routing); what follows is
   one logical thread's cursor and step over this interpreter. *)

and run_spmd_gang t (f : Pir.Func.t) (args : Value.t list) : Value.t =
  let fe = fexec_of t f in
  let frame = Memory.mark t.st.mem in
  let init lane =
    let env = make_env f args in
    enter t f env fe.entry_be ~prev_label:"$entry";
    { lane; env; be = fe.entry_be; idx = fe.entry_be.nphis }
  in
  (* Run one thread until it parks or returns.  [enter] evaluates a
     block's phi prefix, so [idx] always points past the phis. *)
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
      let prev_label = th.be.blk.bname in
      th.be <- nb;
      enter t f th.env nb ~prev_label;
      th.idx <- nb.nphis
    in
    let rec go () =
      let all = th.be.all in
      if th.idx < Array.length all then begin
        let i = Array.unsafe_get all th.idx in
        let v = exec_instr t th.env ~exec_call i in
        match !parked with
        | Some stop -> stop (* [resume] moves past the call *)
        | None ->
            if i.ty <> Pir.Types.Void then th.env.vals.(i.id) <- v;
            th.idx <- th.idx + 1;
            go ()
      end
      else
        match (th.be.blk.term, th.be.targets) with
        | Br _, Tbr nb ->
            enter_bexec nb;
            go ()
        | CondBr (c, _, _), Tcond (bt, bf) ->
            enter_bexec (if Value.as_bool (get_operand th.env c) then bt else bf);
            go ()
        | Ret _, _ -> Gang.Finished
        | Unreachable, _ -> State.trap "SPMD thread reached unreachable in %s" f.fname
        | _ -> assert false
    in
    go ()
  in
  let resume th (i : instr) v =
    if i.ty <> Pir.Types.Void then th.env.vals.(i.id) <- v;
    th.idx <- th.idx + 1
  in
  Gang.run ~fault:(fun s -> State.Trap s) ~ops:gang_ops ~init ~step ~resume f args;
  Memory.release t.st.mem frame;
  Value.Unit

(** Run function [name] with [args]; returns its result. *)
let run t name args =
  State.run t.st ~engine:"interp" exec_func t (Pir.Func.find_func t.modul name) args

(* -- profile --

   A profiled run counts block entries on the [bexec] caches: one
   predictable branch per entry, nothing when [profile] is off.  Note
   [fexec_of] rebuilds a function's cache (dropping its counts) if the
   function is structurally modified between runs — run the passes
   first, as usual. *)

let reset_profile t =
  Hashtbl.iter (fun _ fe -> Array.iter (fun be -> be.entries <- 0) fe.bes) t.fexecs;
  State.reset_calls t.st

(** The entry counts of every block run on [t], as {!Profile.v} reads
    them.  The VM's [Vm.capture] adds its gangs' counts this way. *)
let entries t : Profile.entries =
 fun row ->
  Hashtbl.iter
    (fun _ fe ->
      Array.iter
        (fun be -> row fe.fn.Pir.Func.fname be.blk be.entries (Array.length be.all) be.sums)
        fe.bes)
    t.fexecs

let capture t : Profile.t = State.capture t.st ~engine:"interp" (entries t)
