(** SPMD sanitizer ("psan"): static checks of the Parsimony programming
    model's contracts over PIR, built on the dataflow analyses of
    [lib/dataflow].

    Checks (each reports only *proven* violations, so a clean program
    produces zero findings):

    - [race] — two gang threads may access the same memory location
      with at least one write and no intervening horizontal sync
      ([psim.gang_sync]).  Proven via the affine lane-stride facts: two
      accesses whose addresses share the same opaque uniform terms
      collide iff [stride1·l1 + base1] and [stride2·l2 + base2] overlap
      for some lane pair [l1 <> l2], which is decided by brute force
      over the gang.  A forward dataflow on the {!Pdataflow.Engine}
      tracks the set of accesses pending since the last sync.

    - [oob] — an access to per-thread private storage ([Alloca]) whose
      affine offset provably falls outside the allocation, for some
      lane.

    - [misalign] — an access whose byte offset is provably not a
      multiple of its own element size (only possible through pointer
      bitcasts; packed accesses at arbitrary element-aligned offsets
      are fine on the modeled machine).

    - [uninit] — a read of private storage through bytes that no path
      may have initialized (may-init forward dataflow per allocation).

    - [dead-store] — a store to private storage that no later
      instruction can observe (backward liveness of allocation roots).

    Diagnostics are emitted in a deterministic order — sorted by
    function, block position, instruction position, then check name —
    independent of any hash-table iteration order. *)

open Pir
module Divergence = Pdataflow.Divergence
module Range = Pdataflow.Range
module Alias = Pdataflow.Alias
module Lanes = Pdataflow.Lanes

type severity = Error | Warning

type finding = {
  func : string;
  block : string;
  block_idx : int;
  instr_idx : int;
  instr_id : int;
  check : string;
  severity : severity;
  msg : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let pp_finding ppf f =
  Fmt.pf ppf "%s: %s: %s [%s.%d, %%%d]: %s" f.func (severity_name f.severity)
    f.check f.block f.instr_idx f.instr_id f.msg

let compare_finding a b =
  compare
    (a.func, a.block_idx, a.instr_idx, a.check, a.msg)
    (b.func, b.block_idx, b.instr_idx, b.check, b.msg)

let sort_findings fs = List.sort_uniq compare_finding fs

(* -- shared context for the per-function checks -- *)

type ctx = {
  f : Func.t;
  gang : int;
  dv : Divergence.t;
  rg : Range.t;
  al : Alias.t;
  cfg : Panalysis.Cfg.t;
  block_idx : (string, int) Hashtbl.t;
  mutable acc : finding list;
}

let mk_ctx (f : Func.t) =
  let dv = Divergence.analyze f in
  let block_idx = Hashtbl.create 16 in
  List.iteri (fun i (b : Func.block) -> Hashtbl.replace block_idx b.bname i) f.blocks;
  {
    f;
    gang = (match f.spmd with Some s -> s.Func.gang_size | None -> 1);
    dv;
    rg = Range.analyze dv f;
    al = Alias.analyze f;
    cfg = Panalysis.Cfg.build f;
    block_idx;
    acc = [];
  }

let report ctx ~check ~severity (b : Func.block) instr_idx (i : Instr.instr) msg
    =
  ctx.acc <-
    {
      func = ctx.f.Func.fname;
      block = b.bname;
      block_idx =
        Option.value ~default:0 (Hashtbl.find_opt ctx.block_idx b.bname);
      instr_idx;
      instr_id = i.id;
      check;
      severity;
      msg;
    }
    :: ctx.acc

(* element byte size behind a pointer operand *)
let ptr_esz ctx p =
  match Func.ty_of_operand ctx.f p with
  | Types.Ptr s -> Types.scalar_bytes s
  | _ -> 1

(* -- race detector -- *)

type access = {
  a_block : string;
  a_idx : int;  (** instruction index within the block *)
  a_instr : Instr.instr;
  a_ptr : Instr.operand;
  a_write : bool;
}

(* per-lane byte interval of an access, when its affine address form is
   known: [base + lane·l, base + lane·l + esz) *)
let lane_interval (aff : Range.aff) esz l =
  let lo = Int64.add aff.Range.base (Int64.mul aff.Range.lane (Int64.of_int l)) in
  (lo, Int64.add lo (Int64.of_int esz))

let intervals_overlap (lo1, hi1) (lo2, hi2) =
  Int64.compare lo1 hi2 < 0 && Int64.compare lo2 hi1 < 0

(* Do accesses [p] and [q] provably collide across two distinct lanes?
   Requires identical opaque terms so the difference is a compile-time
   function of the lane pair; solved by brute force over the gang. *)
let proven_collision ctx (p : access) (q : access) =
  (p.a_write || q.a_write)
  && ctx.gang > 1
  && (not (Divergence.block_divergent ctx.dv p.a_block))
  && (not (Divergence.block_divergent ctx.dv q.a_block))
  &&
  let rp = Alias.root_of ctx.al p.a_ptr and rq = Alias.root_of ctx.al q.a_ptr in
  (* private per-thread storage cannot be shared across lanes *)
  (match (rp, rq) with Alias.Alloc _, _ | _, Alias.Alloc _ -> false | _ -> true)
  && Alias.may_alias ctx.al rp rq
  &&
  match (Range.aff_of ctx.rg p.a_ptr, Range.aff_of ctx.rg q.a_ptr) with
  | Some ap, Some aq
    when p.a_write && q.a_write && ap.Range.lane = 0L && aq.Range.lane = 0L ->
      (* the uniform-store idiom: every lane writes the same
         lane-invariant address (e.g. [out[0] = acc] after a butterfly
         reduction).  Serial thread order and lockstep lane order both
         leave the last lane's value, so the program is deterministic;
         any interleaved read of the location is still reported as a
         read/write collision, and the vectorizer independently surfaces
         these stores as uniform-store warnings *)
      false
  | Some ap, Some aq when Range.same_terms ap aq ->
      let ep = ptr_esz ctx p.a_ptr and eq_ = ptr_esz ctx q.a_ptr in
      let hit = ref false in
      for l1 = 0 to ctx.gang - 1 do
        for l2 = 0 to ctx.gang - 1 do
          if
            l1 <> l2
            && intervals_overlap (lane_interval ap ep l1)
                 (lane_interval aq eq_ l2)
          then hit := true
        done
      done;
      !hit
  | _ -> false

module AccSet = struct
  type t = int list (* sorted access indices *)

  let bottom = []
  let equal = ( = )

  let rec join a b =
    match (a, b) with
    | [], t | t, [] -> t
    | x :: ra, y :: rb ->
        if x < y then x :: join ra b
        else if y < x then y :: join a rb
        else x :: join ra rb

  let add x t = join [ x ] t
  let pp = Fmt.(brackets (list ~sep:comma int))
end

module RaceEngine = Pdataflow.Engine.Make (AccSet)

let is_sync (i : Instr.instr) =
  match i.op with
  | Instr.Call (name, _) -> name = Intrinsics.gang_sync
  | _ -> false

let check_races ctx =
  if ctx.gang > 1 then begin
    (* enumerate the scalar memory accesses in layout order *)
    let accesses = ref [] and n = ref 0 in
    let index : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (b : Func.block) ->
        List.iteri
          (fun idx (i : Instr.instr) ->
            let acc =
              match i.op with
              | Instr.Load p ->
                  Some
                    { a_block = b.bname; a_idx = idx; a_instr = i; a_ptr = p; a_write = false }
              | Instr.Store (_, p) ->
                  Some
                    { a_block = b.bname; a_idx = idx; a_instr = i; a_ptr = p; a_write = true }
              | _ -> None
            in
            match acc with
            | Some a ->
                Hashtbl.replace index
                  (Option.value ~default:0 (Hashtbl.find_opt ctx.block_idx b.bname), idx)
                  !n;
                accesses := a :: !accesses;
                incr n
            | None -> ())
          b.Func.instrs)
      ctx.f.Func.blocks;
    let accesses = Array.of_list (List.rev !accesses) in
    let acc_of b idx =
      Hashtbl.find_opt index
        (Option.value ~default:0 (Hashtbl.find_opt ctx.block_idx b), idx)
    in
    let walk bname state k =
      let b = Panalysis.Cfg.block ctx.cfg bname in
      List.fold_left
        (fun (state, idx) (i : Instr.instr) ->
          let state =
            if is_sync i then AccSet.bottom
            else
              match acc_of bname idx with
              | Some a ->
                  k state a;
                  AccSet.add a state
              | None -> state
          in
          (state, idx + 1))
        (state, 0) b.Func.instrs
      |> fst
    in
    let transfer bname state = walk bname state (fun _ _ -> ()) in
    let res = RaceEngine.run ~boundary:AccSet.bottom ~transfer ctx.cfg in
    (* reporting sweep: replay each block from its fixpoint input and
       check every access against the pending set *)
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        if Panalysis.Cfg.reachable ctx.cfg b.bname then
          ignore
            (walk b.bname
               (RaceEngine.block_in res b.bname)
               (fun pending a ->
                 List.iter
                   (fun pi ->
                     let p = accesses.(pi) in
                     let key = (pi, a) in
                     if
                       (not (Hashtbl.mem seen key))
                       && proven_collision ctx p accesses.(a)
                     then begin
                       Hashtbl.replace seen key ();
                       let cur = accesses.(a) in
                       report ctx ~check:"race" ~severity:Error
                         (Func.find_block ctx.f cur.a_block)
                         cur.a_idx cur.a_instr
                         (Fmt.str
                            "lanes of the gang may %s this location while \
                             another lane %ss it at [%s.%d, %%%d] with no \
                             intervening psim_gang_sync()"
                            (if cur.a_write then "write" else "read")
                            (if p.a_write then "write" else "read")
                            p.a_block p.a_idx p.a_instr.Instr.id)
                     end)
                   (AccSet.add a pending)))) (* include self-collision *)
      ctx.f.Func.blocks
  end

(* -- out-of-bounds / misalignment -- *)

let check_bounds ctx =
  List.iter
    (fun (b : Func.block) ->
      List.iteri
        (fun idx (i : Instr.instr) ->
          let check_ptr p esz ~what =
            match Alias.root_of ctx.al p with
            | Alias.Alloc a -> (
                match (Alias.alloc_size ctx.al a, Range.aff_of ctx.rg p) with
                | Some (kind, n), Some aff
                  when aff.Range.terms = [ (a, 1L) ]
                       && not (Divergence.block_divergent ctx.dv b.bname) ->
                    let total =
                      Int64.of_int (n * Types.scalar_bytes kind)
                    in
                    let bad = ref None in
                    for l = 0 to ctx.gang - 1 do
                      let lo, hi = lane_interval aff esz l in
                      if
                        !bad = None
                        && (Int64.compare lo 0L < 0
                           || Int64.compare hi total > 0)
                      then bad := Some (l, lo)
                    done;
                    (match !bad with
                    | Some (l, lo) ->
                        report ctx ~check:"oob" ~severity:Error b idx i
                          (Fmt.str
                             "%s provably out of bounds: lane %d accesses \
                              byte %Ld of a %Ld-byte private allocation \
                              (%%%d)"
                             what l lo total a)
                    | None ->
                        (* in bounds; still check element alignment *)
                        let mis = ref None in
                        for l = 0 to ctx.gang - 1 do
                          let lo, _ = lane_interval aff esz l in
                          if
                            !mis = None
                            && Int64.rem lo (Int64.of_int esz) <> 0L
                          then mis := Some lo
                        done;
                        Option.iter
                          (fun lo ->
                            report ctx ~check:"misalign" ~severity:Warning b
                              idx i
                              (Fmt.str
                                 "%s at byte offset %Ld is not aligned to \
                                  its %d-byte element size"
                                 what lo esz))
                          !mis)
                | _ -> ())
            | _ -> ()
          in
          match i.op with
          | Instr.Load p -> check_ptr p (ptr_esz ctx p) ~what:"load"
          | Instr.Store (_, p) -> check_ptr p (ptr_esz ctx p) ~what:"store"
          | _ -> ())
        b.Func.instrs)
    ctx.f.Func.blocks

(* -- uninitialized reads -- *)

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

module InitState = struct
  (* per allocation: the set of bytes that MAY have been initialized on
     some path ([Full] = all of them / escaped) *)
  type elt = Full | Bytes of IntSet.t

  type t = elt IntMap.t

  let bottom = IntMap.empty

  let join_elt a b =
    match (a, b) with
    | Full, _ | _, Full -> Full
    | Bytes x, Bytes y -> Bytes (IntSet.union x y)

  let join = IntMap.union (fun _ a b -> Some (join_elt a b))

  let equal =
    IntMap.equal (fun a b ->
        match (a, b) with
        | Full, Full -> true
        | Bytes x, Bytes y -> IntSet.equal x y
        | _ -> false)

  let pp ppf t =
    Fmt.pf ppf "{%d allocs}" (IntMap.cardinal t)
end

module InitEngine = Pdataflow.Engine.Make (InitState)

(* bytes of [a]'s storage touched by an access with affine form [aff]
   across the whole gang, or [None] when not expressible *)
let touched_bytes ctx (a : int) (p : Instr.operand) esz =
  match Range.aff_of ctx.rg p with
  | Some aff when aff.Range.terms = [ (a, 1L) ] ->
      let s = ref IntSet.empty and ok = ref true in
      for l = 0 to ctx.gang - 1 do
        let lo, hi = lane_interval aff esz l in
        if Int64.compare lo 0L < 0 || Int64.compare hi (Int64.of_int max_int) > 0
        then ok := false
        else
          for byte = Int64.to_int lo to Int64.to_int hi - 1 do
            s := IntSet.add byte !s
          done
      done;
      if !ok then Some !s else None
  | _ -> None

let uninit_step ctx state (i : Instr.instr) =
  let escape_or_init state a = IntMap.add a InitState.Full state in
  match i.op with
  | Instr.Store (v, p) -> (
      (* storing an alloca's address publishes it *)
      let state =
        match Alias.root_of ctx.al v with
        | Alias.Alloc a when Types.is_pointer (Func.ty_of_operand ctx.f v) ->
            escape_or_init state a
        | _ -> state
      in
      match Alias.root_of ctx.al p with
      | Alias.Alloc a -> (
          match touched_bytes ctx a p (ptr_esz ctx p) with
          | Some bytes ->
              let cur =
                Option.value ~default:(InitState.Bytes IntSet.empty)
                  (IntMap.find_opt a state)
              in
              IntMap.add a
                (InitState.join_elt cur (InitState.Bytes bytes))
                state
          | None -> escape_or_init state a)
      | _ -> state)
  | Instr.Call (_, args) ->
      List.fold_left
        (fun state arg ->
          match Alias.root_of ctx.al arg with
          | Alias.Alloc a -> escape_or_init state a
          | _ -> state)
        state args
  | _ -> state

let check_uninit ctx =
  let transfer bname state =
    let b = Panalysis.Cfg.block ctx.cfg bname in
    List.fold_left (uninit_step ctx) state b.Func.instrs
  in
  let res = InitEngine.run ~boundary:InitState.bottom ~transfer ctx.cfg in
  (* reporting sweep *)
  List.iter
    (fun (b : Func.block) ->
      if
        Panalysis.Cfg.reachable ctx.cfg b.bname
        && not (Divergence.block_divergent ctx.dv b.bname)
      then
        ignore
          (List.fold_left
             (fun (state, idx) (i : Instr.instr) ->
               (match i.op with
               | Instr.Load p -> (
                   match Alias.root_of ctx.al p with
                   | Alias.Alloc a -> (
                       let st =
                         Option.value
                           ~default:(InitState.Bytes IntSet.empty)
                           (IntMap.find_opt a state)
                       in
                       match st with
                       | InitState.Full -> ()
                       | InitState.Bytes may ->
                           let definitely_uninit =
                             match touched_bytes ctx a p (ptr_esz ctx p) with
                             | Some bytes ->
                                 (not (IntSet.is_empty bytes))
                                 && IntSet.disjoint bytes may
                             | None -> IntSet.is_empty may
                           in
                           if definitely_uninit then
                             report ctx ~check:"uninit" ~severity:Error b idx i
                               (Fmt.str
                                  "read of private allocation %%%d through \
                                   bytes no path initializes"
                                  a))
                   | _ -> ())
               | _ -> ());
               (uninit_step ctx state i, idx + 1))
             (InitEngine.block_in res b.bname, 0)
             b.Func.instrs))
    ctx.f.Func.blocks

(* -- dead stores -- *)

module LiveSet = struct
  type t = IntSet.t

  let bottom = IntSet.empty
  let equal = IntSet.equal
  let join = IntSet.union
  let pp ppf t = Fmt.pf ppf "{%d}" (IntSet.cardinal t)
end

module LiveEngine = Pdataflow.Engine.Make (LiveSet)

let check_dead_stores ctx =
  (* allocations whose address escapes are always observable *)
  let escaped = ref IntSet.empty in
  Func.iter_instrs ctx.f (fun _ (i : Instr.instr) ->
      let esc o =
        match Alias.root_of ctx.al o with
        | Alias.Alloc a when Types.is_pointer (Func.ty_of_operand ctx.f o) ->
            escaped := IntSet.add a !escaped
        | _ -> ()
      in
      match i.op with
      | Instr.Call (_, args) -> List.iter esc args
      | Instr.Store (v, _) -> esc v
      | Instr.Phi incoming -> List.iter (fun (_, v) -> esc v) incoming
      | Instr.Select (_, a, b) ->
          esc a;
          esc b
      | _ -> ());
  let gen (i : Instr.instr) state =
    match i.op with
    | Instr.Load p -> (
        match Alias.root_of ctx.al p with
        | Alias.Alloc a -> IntSet.add a state
        | _ -> state)
    | Instr.Call (_, args) ->
        List.fold_left
          (fun state arg ->
            match Alias.root_of ctx.al arg with
            | Alias.Alloc a -> IntSet.add a state
            | _ -> state)
          state args
    | _ -> state
  in
  let transfer bname state =
    let b = Panalysis.Cfg.block ctx.cfg bname in
    List.fold_left (fun state i -> gen i state) state (List.rev b.Func.instrs)
  in
  let res =
    LiveEngine.run ~direction:Pdataflow.Engine.Backward ~boundary:LiveSet.bottom
      ~transfer ctx.cfg
  in
  List.iter
    (fun (b : Func.block) ->
      if Panalysis.Cfg.reachable ctx.cfg b.bname then begin
        let n = List.length b.Func.instrs in
        ignore
          (List.fold_left
             (fun (state, ridx) (i : Instr.instr) ->
               let idx = n - 1 - ridx in
               (match i.op with
               | Instr.Store (_, p) -> (
                   match Alias.root_of ctx.al p with
                   | Alias.Alloc a
                     when (not (IntSet.mem a state))
                          && not (IntSet.mem a !escaped) ->
                       report ctx ~check:"dead-store" ~severity:Warning b idx i
                         (Fmt.str
                            "store to private allocation %%%d is never read"
                            a)
                   | _ -> ())
               | _ -> ());
               (gen i state, ridx + 1))
             (LiveEngine.block_out res b.bname, 0)
             (List.rev b.Func.instrs))
      end)
    ctx.f.Func.blocks

(* -- vectorized-IR lint: gathers/scatters and packed accesses -- *)

let lint_vector_func (f : Func.t) : finding list =
  let dv = Divergence.analyze f in
  let rg = Range.analyze dv f in
  let al = Alias.analyze f in
  let lanes = Lanes.analyze f in
  let block_idx = Hashtbl.create 16 in
  List.iteri (fun i (b : Func.block) -> Hashtbl.replace block_idx b.bname i) f.blocks;
  let acc = ref [] in
  let report ~check ~severity (b : Func.block) idx (i : Instr.instr) msg =
    acc :=
      {
        func = f.Func.fname;
        block = b.bname;
        block_idx = Option.value ~default:0 (Hashtbl.find_opt block_idx b.bname);
        instr_idx = idx;
        instr_id = i.id;
        check;
        severity;
        msg;
      }
      :: !acc
  in
  let esz_of p =
    match Func.ty_of_operand f p with
    | Types.Ptr s -> Types.scalar_bytes s
    | _ -> 1
  in
  let alloc_bounds p =
    match Alias.root_of al p with
    | Alias.Alloc a -> (
        match (Alias.alloc_size al a, Range.aff_of rg p) with
        | Some (kind, n), Some aff when aff.Pdataflow.Range.terms = [ (a, 1L) ]
          ->
            Some (a, aff.Pdataflow.Range.base, n * Types.scalar_bytes kind)
        | _ -> None)
    | _ -> None
  in
  let check_range ~what b idx i lo hi (a, total) =
    if Int64.compare lo 0L < 0 || Int64.compare hi (Int64.of_int total) > 0 then
      report ~check:"oob" ~severity:Error b idx i
        (Fmt.str
           "%s provably out of bounds: bytes [%Ld, %Ld) of a %d-byte private \
            allocation (%%%d)"
           what lo hi total a)
  in
  List.iteri
    (fun _bi (b : Func.block) ->
      List.iteri
        (fun idx (i : Instr.instr) ->
          match i.op with
          | Instr.VLoad (p, None) | Instr.VStore (_, p, None) -> (
              let esz = esz_of p in
              let n = Types.lanes i.ty in
              let n =
                match i.op with
                | Instr.VStore (v, _, _) -> Types.lanes (Func.ty_of_operand f v)
                | _ -> n
              in
              match alloc_bounds p with
              | Some (a, base, total) ->
                  check_range ~what:"packed access" b idx i base
                    (Int64.add base (Int64.of_int (n * esz)))
                    (a, total)
              | None -> ())
          | Instr.Gather (p, idx_v, None) | Instr.Scatter (_, p, idx_v, None)
            -> (
              let esz = esz_of p in
              match (alloc_bounds p, Lanes.of_operand lanes idx_v) with
              | Some (a, base, total), Lanes.Exact picks ->
                  Array.iter
                    (fun pick ->
                      let lo =
                        Int64.add base (Int64.mul pick (Int64.of_int esz))
                      in
                      check_range ~what:"gather/scatter" b idx i lo
                        (Int64.add lo (Int64.of_int esz))
                        (a, total))
                    picks
              | _ -> ())
          | _ -> ())
        b.Func.instrs)
    f.Func.blocks;
  sort_findings !acc

(* -- drivers -- *)

(** All checks over one scalar SPMD function. *)
let run_func (f : Func.t) : finding list =
  let ctx = mk_ctx f in
  check_races ctx;
  check_bounds ctx;
  check_uninit ctx;
  check_dead_stores ctx;
  sort_findings ctx.acc

(** Sanitize a whole module: SPMD functions get the full scalar checks;
    functions containing explicit vector operations get the
    gather/scatter/packed lint. *)
let run_module (m : Func.modul) : finding list =
  let has_vector_ops (f : Func.t) =
    Func.fold_instrs f false (fun acc _ i ->
        acc || Types.is_vector i.Instr.ty
        ||
        match i.Instr.op with
        | Instr.VStore _ | Instr.Scatter _ -> true
        | _ -> false)
  in
  m.Func.funcs
  |> List.concat_map (fun (f : Func.t) ->
         if f.Func.spmd <> None then run_func f
         else if has_vector_ops f then lint_vector_func f
         else [])
  |> sort_findings

(** Emit findings on the {!Pobs.Remarks} stream (pass ["psan"]), in the
    deterministic sorted order. *)
let emit_remarks findings =
  List.iter
    (fun fd ->
      Pobs.Remarks.emit Pobs.Remarks.Analysis ~pass:"psan" ~func:fd.func
        "%s %s: %s" (severity_name fd.severity) fd.check fd.msg)
    findings
