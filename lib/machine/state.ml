(** The machine state a run mutates, and the rules both engines apply
    to it.

    The interpreter ({!Interp}) and the register VM ({!Vm}) own one
    [t] each — the VM's SPMD gangs run on an interpreter built over the
    VM's own [t] — so memory, statistics, cycles, fuel and the profile
    call tree land in one place whichever engine executes.  Next to the
    record live the rules they share: the accounting call ([account]),
    the call-tree bookkeeping, the boxed semantics of one non-call
    instruction ([exec]) and the classification of a call's target
    ([callee]). *)

open Pir.Instr

exception Trap = Eval.Trap

let trap = Eval.trap

type t = {
  mem : Memory.t;
  stats : Stats.t;
  cyc : floatarray;
      (** running cycle count: unboxed accumulator behind [account],
          flushed to [stats.cycles] when a run returns ([stats.cycles]
          is a float field of a mixed record, so adding to it directly
          would box a fresh float per charge) *)
  mutable fuel : int;
  mutable profile : bool;
      (** attribute per-block entries/instructions/cycles as execution
          proceeds, and keep the call tree below *)
  prof_root : Profile.node;
      (** call-tree root for folded-stack output; children are the
          top-level entry functions of profiled runs *)
  mutable prof_stack : Profile.node list;
      (** current call path, innermost first; [] = at the root *)
  prof_mark : floatarray;
      (** cycle watermark of the last call boundary: self-time flushed
          to the current node is [cyc - mark] (unboxed, like [cyc]) *)
}

(** The instruction budget of a run unless its creator sets one. *)
let default_fuel = 2_000_000_000

let create ?mem ?(fuel = default_fuel) ?(profile = false) () =
  {
    mem = (match mem with Some m -> m | None -> Memory.create ());
    stats = Stats.empty ();
    cyc = Float.Array.make 1 0.0;
    fuel;
    profile;
    prof_root = Profile.make_node "(root)";
    prof_stack = [];
    prof_mark = Float.Array.make 1 0.0;
  }

(** Charge one block entry: [n] executed instructions, [vec] of them
    vector-typed, and the block's cycles [sums.(0)] (its phi prefix)
    then [sums.(1)] (the rest), one addition each, in that order.
    Every executor calls it once per block entry, for the whole block:
    the interpreter's serial loop and SPMD threads in [Interp.enter],
    the VM in [Acct].  Fuel runs out before anything else is charged.
    The cycles come in a flat [float array] so that no caller boxes a
    float to pass them. *)
let account t n vec (sums : float array) =
  t.fuel <- t.fuel - n;
  if t.fuel <= 0 then trap "out of fuel (infinite loop?)";
  let s = t.stats in
  s.instrs <- s.instrs + n;
  s.vector_instrs <- s.vector_instrs + vec;
  let cyc = t.cyc in
  Float.Array.unsafe_set cyc 0 (Float.Array.unsafe_get cyc 0 +. Array.unsafe_get sums 0);
  Float.Array.unsafe_set cyc 0 (Float.Array.unsafe_get cyc 0 +. Array.unsafe_get sums 1)

(** Make [stats.cycles] reflect the unboxed accumulator (see [cyc]). *)
let flush_cycles t = t.stats.cycles <- Float.Array.get t.cyc 0

let finish_run t ~engine before =
  flush_cycles t;
  match before with
  | Some b -> Stats.publish ~engine ~before:b t.stats
  | None -> ()

(** [call e f args] — engine [e] calls function [f] — as one top-level
    run: cycles are flushed and, with metrics on, the run's statistics
    are published under [engine] whether it returns or raises. *)
let run t ~engine call e f args =
  let before = if Pobs.Metrics.enabled () then Some (Stats.copy t.stats) else None in
  match call e f args with
  | v ->
      finish_run t ~engine before;
      v
  | exception ex ->
      finish_run t ~engine before;
      raise ex

(* -- call-tree tracking (profiling only) --

   Self-time is flushed to the node on top of the stack at every call
   boundary: cost is paid per *call*, never per block.  Both engines
   push and pop here around every function activation, which is what
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

let reset_calls t =
  Profile.reset_node t.prof_root;
  t.prof_stack <- [];
  (* snap the watermark to "now" so pre-reset cycles are not attributed
     to whatever runs next *)
  Float.Array.set t.prof_mark 0 (Float.Array.get t.cyc 0)

(** The typed profile of everything run on [t], given the engine's
    per-block entry counts. *)
let capture t ~engine entries : Profile.t =
  flush_cycles t;
  prof_flush t;
  Profile.v ~engine entries
    ~folded:(Profile.folded_of_root t.prof_root)
    ~total_cycles:t.stats.cycles ~total_instrs:t.stats.instrs

(* -- call targets -- *)

type callee =
  | Math  (** math / SLEEF / ispc library entry: [Mathlib.eval] *)
  | Func of Pir.Func.t
  | Bad of string  (** traps with this message when called *)

(** What a call to [name] in [modul] runs, outside SPMD execution (the
    SPMD executor resolves horizontal operations and the lane number
    itself, first). *)
let callee modul name : callee =
  if
    Pir.Intrinsics.is_math name || Pir.Intrinsics.is_sleef name
    || Pir.Intrinsics.is_ispc name
  then Math
  else if Pir.Intrinsics.is_psim name then
    Bad (Fmt.str "Parsimony intrinsic %s outside SPMD execution" name)
  else
    match Pir.Func.find_func_opt modul name with
    | Some f -> Func f
    | None -> Bad (Fmt.str "call to unknown function %s" name)

(* -- boxed semantics of one instruction --

   [exec] runs any instruction but a call or a phi on boxed values:
   [get] reads an operand, [oty] types one.  The interpreter runs every
   such instruction through it; the VM's bytecode runs only the
   instructions whose operand classes fit none of its native forms. *)

let elem_size oty (p : operand) =
  match oty p with
  | Pir.Types.Ptr s -> (s, Pir.Types.scalar_bytes s)
  | ty -> trap "memory op through non-pointer (%a)" Pir.Types.pp ty

let addr (v : Value.t) = Int64.to_int (Value.as_int v)

(* a mask operand as the engines hold it: its integer lanes *)
let mask_lanes get (mask : operand option) =
  match mask with
  | None -> Memory.no_mask
  | Some m -> (
      match get m with Value.VI m -> m | v -> trap "bad mask %a" Value.pp v)

let index_bits oty idx = Pir.Types.scalar_bits (Pir.Types.elem (oty idx))

let exec t ~(get : operand -> Value.t) ~(oty : operand -> Pir.Types.t)
    (i : instr) : Value.t =
  let st = t.stats in
  match i.op with
  | Alloca (s, n) ->
      Value.I (Int64.of_int (Memory.alloc t.mem (Pir.Types.scalar_bytes s * n)))
  | Load p ->
      let s, _ = elem_size oty p in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.load_scalar t.mem s (addr (get p))
  | Store (v, p) ->
      let s, _ = elem_size oty p in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.store_scalar t.mem s (addr (get p)) (get v);
      Value.Unit
  | Gep (p, idx) ->
      let _, esz = elem_size oty p in
      let base = Value.as_int (get p) in
      let off = Pir.Ints.sext (index_bits oty idx) (Value.as_int (get idx)) in
      Value.I (Int64.add base (Int64.mul off (Int64.of_int esz)))
  | VLoad (p, mask) ->
      let s, esz = elem_size oty p in
      let base = addr (get p) in
      st.packed_mem <- st.packed_mem + 1;
      let dst = Value.vec s (Pir.Types.lanes i.ty) in
      Memory.load_packed t.mem s ~base ~esz ~mask:(mask_lanes get mask) dst;
      dst
  | VStore (v, p, mask) ->
      let s, esz = elem_size oty p in
      let v = get v in
      let base = addr (get p) in
      st.packed_mem <- st.packed_mem + 1;
      Memory.store_packed t.mem s ~base ~esz ~mask:(mask_lanes get mask) v;
      Value.Unit
  | Gather (b, idx, mask) ->
      let s, esz = elem_size oty b in
      let base = addr (get b) in
      let idxs = Value.as_ivec (get idx) in
      st.gathers <- st.gathers + 1;
      let dst = Value.vec s (Value.ilanes idxs) in
      Memory.gather t.mem s ~base ~esz ~iw:(index_bits oty idx) ~idxs
        ~mask:(mask_lanes get mask) dst;
      dst
  | Scatter (v, b, idx, mask) ->
      let s, esz = elem_size oty b in
      let v = get v in
      let base = addr (get b) in
      let idxs = Value.as_ivec (get idx) in
      st.scatters <- st.scatters + 1;
      Memory.scatter t.mem s ~base ~esz ~iw:(index_bits oty idx) ~idxs
        ~mask:(mask_lanes get mask) v;
      Value.Unit
  | Call _ | Phi _ -> invalid_arg "State.exec: calls and phis belong to the engine"
  | op -> Eval.pure_op ~ty:i.ty ~operand_ty:oty ~get op
