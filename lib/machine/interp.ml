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
    module walks the control flow and keeps the per-block profile. *)

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
  costs : float array;
      (** charged cost per instruction, from [Cost.schedule_func] —
          static given the model and the function's type table, so paid
          once instead of per execution (the [Call] case scans strings) *)
  term_cost : float;
  nphis : int;  (** length of the phi prefix of [all] *)
  sums : float array;
      (** the sum of [costs] over the phi prefix, then the sum past it
          plus [term_cost]: the static cost of one complete block
          execution in two parts, so the serial engine (and the VM)
          charge a block in O(1) *)
  n_vec_phi : int;  (** vector-typed phis (static, for block stats) *)
  n_vec_body : int;  (** vector-typed non-phi instructions *)
  phis_by_pred : (string * operand option array) list;
      (** for each incoming label: the operand each phi in the prefix
          takes from that edge ([None] = phi lacks that edge) *)
  mutable targets : targets;
  (* -- profiling accumulators (written only when [State.t.profile]) -- *)
  mutable p_entries : int;  (** times this block was entered *)
  mutable p_instrs : int;  (** instructions executed in this block *)
  p_cyc : floatarray;
      (** cycles attributed to this block; unboxed accumulator for the
          same reason as [State.t.cyc] *)
}

and targets = Tnone | Tbr of bexec | Tcond of bexec * bexec

type fexec = {
  fn : Pir.Func.t;
  blocks : Pir.Func.block list;  (** spine at build time (staleness check) *)
  entry_be : bexec;
  bes : bexec array;  (** every block, in function order (profiling walk) *)
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
          sums = sched.cs_sums;
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

(* profiling: add [c] cycles to a block's accumulator *)
let attr_cyc (be : bexec) c =
  Float.Array.unsafe_set be.p_cyc 0 (Float.Array.unsafe_get be.p_cyc 0 +. c)

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
     State.trap "call to %s with %d args (expected %d)" f.fname (List.length args)
       (List.length f.params));
  let rec env =
    { vals; get = (fun o -> get_operand env o); oty = Pir.Func.ty_of_operand f }
  in
  env

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
          State.trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    in
    let vals = Array.make be.nphis Value.Unit in
    for j = 0 to be.nphis - 1 do
      if account then
        State.account t.st 1
          (if Pir.Types.is_vector be.all.(j).ty then 1 else 0)
          be.costs j (j + 1);
      match ops.(j) with
      | Some o -> vals.(j) <- get_operand env o
      | None ->
          State.trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label
    done;
    for j = 0 to be.nphis - 1 do
      env.vals.(be.all.(j).id) <- vals.(j)
    done;
    if account && t.st.profile then begin
      be.p_instrs <- be.p_instrs + be.nphis;
      attr_cyc be be.sums.(0)
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

(* -- instruction execution --
   [exec_call] handles Call ops, a phi reached outside a block's entry
   (an entry block's phis, under SPMD) reads its edge here, and
   everything else has its boxed semantics in [State.exec].
   Fuel/instr/cycle accounting is the caller's job: the serial engine
   accounts block-granularly, the SPMD engine per instruction. *)

let rec exec_instr t (f : Pir.Func.t) env ~prev_label ~exec_call
    (i : instr) : Value.t =
  match i.op with
  | Call (name, args) -> exec_call i name (List.map env.get args)
  | Phi incoming -> (
      match List.assoc_opt prev_label incoming with
      | Some o -> env.get o
      | None ->
          State.trap "phi in %s has no incoming for predecessor %s" f.fname
            prev_label)
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
        (* Block-granular accounting: the whole block's fuel, instruction
           counts and cycle charges land up front, in the same order the
           VM performs them, so both engines report bit-identical stats
           and cycle totals for the same execution. *)
        let all = be.all in
        let n = Array.length all in
        State.account t.st n (be.n_vec_phi + be.n_vec_body) be.sums 0 2;
        if t.st.profile then begin
          be.p_entries <- be.p_entries + 1;
          be.p_instrs <- be.p_instrs + n;
          attr_cyc be be.sums.(0);
          attr_cyc be be.sums.(1)
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
    if t.st.profile then fe.entry_be.p_entries <- fe.entry_be.p_entries + 1;
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
      if t.st.profile then nb.p_entries <- nb.p_entries + 1;
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
        State.account t.st 1
          (if Pir.Types.is_vector i.ty then 1 else 0)
          th.be.costs th.idx (th.idx + 1);
        let v = exec_instr t f th.env ~prev_label:th.prev ~exec_call i in
        if t.st.profile then begin
          th.be.p_instrs <- th.be.p_instrs + 1;
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
        State.charge t.st th.be.term_cost;
        if t.st.profile then attr_cyc th.be th.be.term_cost;
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
      end
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

(* -- profiling report --

   The accumulators live on the [bexec] caches, so attribution costs one
   predictable branch per block (serial engine) or per instruction (SPMD
   engine) and nothing at all when [profile] is off.  Summing the report
   over all blocks reproduces [stats]: instruction counts exactly,
   cycles up to float addition reorder.  Note [fexec_of] rebuilds a
   function's cache (dropping its counts) if the function is
   structurally modified between runs — run the passes first, as usual. *)

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
  State.reset_calls t.st

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

let capture t : Profile.t =
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
  State.capture t.st ~engine:"interp" ~blocks ~opcode_mix
