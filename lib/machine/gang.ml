(** One SPMD gang: the execution rule of the programming model (paper
    §3), defined once for every executor that gives SPMD functions their
    reference semantics — the interpreter ({!Interp.run_spmd_gang}) and
    the symbolic executor ([Psmt.Symexec.exec_spmd]).

    A gang is [gang_size] conceptually independent threads with weak
    forward progress: nothing is promised about how their steps
    interleave, and they exchange data only at explicit horizontal
    operations ([psim.gang_sync], [psim.shuffle], [psim.sad_u8]).  The
    reference schedule is the simplest legal one: threads run
    cooperatively, round-robin from thread 0, each until it parks at a
    horizontal call or returns.  When every thread has stopped, the
    parked calls resolve together and the threads resume with their
    per-lane results.  Resolution requires every thread to be parked,
    and at the same call site; anything else is a divergent horizontal
    operation, a fault of the program.  So after each round either every
    thread returned, or every thread resumes, or the gang faults — no
    other state (no deadlock) can arise.

    The executor supplies the per-thread part over its own value type
    ['v]: a cursor ['c] (one thread's environment and control
    position), [step] to run a thread until it parks or returns,
    [resume] to deliver a horizontal result and move past the call, the
    few value operations of {!ops}, and [fault] to build its own fault
    exception from a message. *)

type 'v ops = {
  unit : 'v;  (** the result of [psim.gang_sync] *)
  zero : Pir.Types.t -> 'v;
      (** the zero of a type: what [psim.shuffle] reads from a lane past
          the active ones *)
  int : 'v -> int64;
      (** a concrete integer: a shuffle's source lane, and the trailing
          [gang_num] and [num_threads] arguments of a partial gang *)
  sad : Pir.Types.t -> ('v * 'v) list -> 'v;
      (** [psim.sad_u8] of one 8-lane group, at the call's result type:
          the sum of the unsigned byte differences [|a - b|] over the
          group's active lanes, given in lane order *)
}

(** Why [step] returned: the thread parked at horizontal call [instr]
    with its evaluated arguments, or it returned from the function. *)
type 'v stop = Parked of Pir.Instr.instr * 'v list | Finished

let fail fault fmt = Fmt.kstr (fun s -> raise (fault s)) fmt

(* The calling convention: SPMD functions take [gang_num, num_threads]
   as their last two arguments.  A full gang activates all [gang_size]
   threads; a [partial] one (a region's tail gang) only the
   [num_threads - gang_num * gang_size] that remain, clamped to
   [0, gang_size]. *)
let activation ~fault ~ops (f : Pir.Func.t) args =
  let { Pir.Func.gang_size; partial } =
    match f.spmd with
    | Some s -> s
    | None -> invalid_arg ("Gang.run: " ^ f.fname ^ " is not an SPMD function")
  in
  match List.rev args with
  | nt :: gn :: _ ->
      if not partial then (gang_size, gang_size)
      else
        let rem = Int64.sub (ops.int nt) (Int64.mul (ops.int gn) (Int64.of_int gang_size)) in
        (gang_size, max 0 (min gang_size (Int64.to_int rem)))
  | _ -> fail fault "SPMD function %s called with too few arguments" f.fname

(* Per-lane results of horizontal call [i], from the arguments each
   active thread passed, in lane order. *)
let horizontal ~fault ~ops ~gang_size (i : Pir.Instr.instr) (args : 'v list array) =
  let active = Array.length args in
  let name = match i.op with Pir.Instr.Call (n, _) -> n | _ -> assert false in
  let pairs () =
    Array.map (function [ x; y ] -> (x, y) | _ -> fail fault "%s expects 2 arguments" name) args
  in
  if name = Pir.Intrinsics.gang_sync then Array.make active ops.unit
  else if name = Pir.Intrinsics.shuffle then
    (* lane l receives the value its source lane contributed; the source
       index wraps to the gang, and a source past the active lanes reads
       the zero of the shuffled type *)
    let args = pairs () in
    Array.map
      (fun (_, src) ->
        let k = Int64.to_int (ops.int src) land (gang_size - 1) in
        if k < active then fst args.(k) else ops.zero i.ty)
      args
  else if name = Pir.Intrinsics.sad_u8 then
    (* every lane of an 8-lane group receives the group's sum of absolute
       differences over its active lanes (paper §7's vpsadbw) *)
    let args = pairs () in
    let group g =
      ops.sad i.ty (List.init (min 8 (active - (8 * g))) (fun k -> args.((8 * g) + k)))
    in
    let sums = Array.init ((active + 7) / 8) group in
    Array.init active (fun l -> sums.(l / 8))
  else fail fault "unknown horizontal operation %s" name

(** Run one gang of SPMD function [f] on [args] (which end with
    [gang_num, num_threads]): [init lane] makes each active thread's
    cursor, in lane order, before any thread runs. *)
let run ~fault ~ops ~(init : int -> 'c) ~(step : 'c -> 'v stop)
    ~(resume : 'c -> Pir.Instr.instr -> 'v -> unit) (f : Pir.Func.t) (args : 'v list) =
  let gang_size, active = activation ~fault ~ops f args in
  let threads = Array.init active init in
  let rec round () =
    let parked =
      Array.to_list (Array.map step threads)
      |> List.filter_map (function Parked (i, a) -> Some (i, a) | Finished -> None)
    in
    match parked with
    | [] -> ()
    | (i0, _) :: _ ->
        if List.exists (fun ((i : Pir.Instr.instr), _) -> i.id <> i0.id) parked then
          fail fault
            "divergent horizontal operation: gang threads synchronized at \
             different call sites in %s"
            f.fname;
        if List.length parked <> active then
          fail fault
            "divergent horizontal operation: only %d of %d threads reached \
             the synchronization in %s (weak forward progress violated)"
            (List.length parked) active f.fname;
        let results = horizontal ~fault ~ops ~gang_size i0 (Array.of_list (List.map snd parked)) in
        Array.iteri (fun l th -> resume th i0 results.(l)) threads;
        round ()
  in
  if active > 0 then round ()
