(* Typed execution profiles — the common currency both engines produce.

   [Engine.profile] captures one of these from either the tree-walking
   interpreter or the register VM.  The attribution discipline is shared:
   every executor (serial code, SPMD gang threads and the VM) charges the
   static [Cost] schedule of a whole block once per block entry, in the
   same order, and counts the entry.  A profile captured from the VM
   must agree with one captured from the interpreter bit for bit: same
   per-block rows, same opcode mix, same collapsed call stacks.  The
   fuzz oracle and [test/suite_vm.ml] pin exactly that.

   A profile has four views of the same run:
   - per-block rows (entries / instructions / attributed cycles),
     hottest first — the `psimc profile` hot-block table — derived by
     [v] from the entry counts alone: a block's instructions and cycles
     per entry are static;
   - a dynamic opcode-class mix, derived from the static per-block
     instruction classes weighted by dynamic entry counts (every thread
     of a gang executes every instruction of a block it enters, parked
     lanes included, so entries x block length is exact — it reproduces
     the engines' own instruction counters);
   - collapsed call stacks ("caller;callee self-cycles" lines) in the
     folded format flamegraph.pl / speedscope consume, built from the
     engines' call tracking with self-time flushed at call boundaries;
   - run totals, which must equal the engine's [Stats].

   Capturing a profile also feeds the metrics registry
   ([vm.block_cycles], [vm.opcode_mix]) — a no-op unless
   [Pobs.Metrics.enable] was called, so unobserved captures stay free. *)

type block = {
  pb_func : string;
  pb_block : string;
  pb_entries : int;  (** dynamic entries (per active thread under SPMD) *)
  pb_instrs : int;  (** instructions executed (accounted) in the block *)
  pb_cycles : float;  (** simulated cycles attributed to the block *)
}

type t = {
  p_engine : string;  (** "interp" or "vm" — which engine produced it *)
  p_blocks : block list;  (** hottest first; ties by (func, block) *)
  p_opcode_mix : (string * int) list;  (** class -> dynamic count, descending *)
  p_folded : (string * float) list;  (** "f;g;h" call path -> self cycles *)
  p_total_cycles : float;
  p_total_instrs : int;
}

(* -- opcode classification ------------------------------------------- *)

(* Stable, engine-independent class names for the mix table.  Classes
   follow the cost model's groupings (arith / memory / cross-lane); a
   ".v" suffix marks instructions producing a vector result, so the mix
   separates the widened from the scalar residue of the same kernel. *)
let classify (i : Pir.Instr.instr) : string =
  let base =
    match i.op with
    | Pir.Instr.Ibin _ | Iun _ -> "int-arith"
    | Fbin _ | Fun _ -> "fp-arith"
    | Icmp _ | Fcmp _ -> "cmp"
    | Select _ -> "select"
    | Cast _ -> "cast"
    | Alloca _ -> "alloca"
    | Load _ | Store _ -> "scalar-mem"
    | Gep _ -> "addr"
    | Call _ -> "call"
    | Phi _ -> "phi"
    | Splat _ -> "splat"
    | VLoad _ | VStore _ -> "packed-mem"
    | Gather _ -> "gather"
    | Scatter _ -> "scatter"
    | Shuffle _ | ShuffleDyn _ -> "shuffle"
    | ExtractLane _ | InsertLane _ | FirstLane _ -> "lane"
    | Reduce _ -> "reduce"
    | Psadbw _ -> "sad"
  in
  (* stores/scatters produce Void; tag them by their class alone *)
  if Pir.Types.is_vector i.ty then base ^ ".v" else base

(* -- call-tree nodes -------------------------------------------------- *)

(* The engines maintain one of these trees while profiling: a node per
   distinct call path, with self-time (cycles between entering the
   function and entering/leaving a callee) flushed at call boundaries
   only — zero cost per block, a couple of float ops per call. *)
type node = {
  cn_name : string;
  mutable cn_self : float;  (** cycles attributed to this exact path *)
  cn_kids : (string, node) Hashtbl.t;
}

let make_node name = { cn_name = name; cn_self = 0.0; cn_kids = Hashtbl.create 4 }

let child (n : node) name : node =
  match Hashtbl.find_opt n.cn_kids name with
  | Some c -> c
  | None ->
      let c = make_node name in
      Hashtbl.replace n.cn_kids name c;
      c

let rec reset_node (n : node) =
  n.cn_self <- 0.0;
  Hashtbl.iter (fun _ c -> reset_node c) n.cn_kids;
  Hashtbl.reset n.cn_kids

(* Children in name order for a deterministic folded file. *)
let sorted_kids (n : node) : node list =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.cn_kids []
  |> List.sort (fun a b -> String.compare a.cn_name b.cn_name)

(** Collapsed stacks, depth-first in name order.  The root itself (the
    synthetic "(root)" node holding pre-/post-call slack) is skipped:
    its children are the top-level entry functions. *)
let folded_of_root (root : node) : (string * float) list =
  let acc = ref [] in
  let rec go prefix n =
    let path = if prefix = "" then n.cn_name else prefix ^ ";" ^ n.cn_name in
    if n.cn_self <> 0.0 then acc := (path, n.cn_self) :: !acc;
    List.iter (go path) (sorted_kids n)
  in
  List.iter (go "") (sorted_kids root);
  List.rev !acc

(* -- construction ------------------------------------------------------ *)

let m_block_cycles =
  Pobs.Metrics.histogram "vm.block_cycles"
    ~help:"per-block attributed cycles of profiled runs"

let m_opcode_mix =
  Pobs.Metrics.counter "vm.opcode_mix"
    ~help:"dynamic opcode-class mix of profiled runs"

let publish (t : t) =
  List.iter
    (fun b ->
      Pobs.Metrics.observe
        ~labels:[ ("engine", t.p_engine); ("func", b.pb_func); ("block", b.pb_block) ]
        m_block_cycles b.pb_cycles)
    t.p_blocks;
  List.iter
    (fun (cls, n) ->
      Pobs.Metrics.add ~labels:[ ("engine", t.p_engine); ("class", cls) ] m_opcode_mix n)
    t.p_opcode_mix

(** An engine's per-block entry counts: [entries row] calls
    [row func block count n sums] for blocks of the run, where [block]
    of function [func] was entered [count] times and executes [n]
    instructions and charges [sums.(0) +. sums.(1)] cycles per entry
    (the schedule's [Cost.cs_sums]).  Blocks never entered may be
    reported with a zero count; a block reported twice (a serial helper
    the VM runs and a gang calls on the interpreter) sums into one row. *)
type entries = (string -> Pir.Func.block -> int -> int -> float array -> unit) -> unit

(** Build a profile from an engine's entry counts (blocks hottest
    first, the mix by descending count) and feed the metrics registry.
    Charges are quantized to a dyadic grid ([Cost.schedule_func]), so
    [count * sum] is exact: a row's cycles equal the engine's own
    per-entry accumulation bit for bit, in any order. *)
let v ~engine (entries : entries) ~folded ~total_cycles ~total_instrs : t =
  let rows = Hashtbl.create 64 and mix = Hashtbl.create 16 in
  entries (fun func (b : Pir.Func.block) e n sums ->
      if e > 0 then begin
        let key = (func, b.bname) and ef = float_of_int e in
        let e0, i0, c0 = Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt rows key) in
        Hashtbl.replace rows key
          (e0 + e, i0 + (e * n), c0 +. ((ef *. sums.(0)) +. (ef *. sums.(1))));
        List.iter
          (fun i ->
            let cls = classify i in
            Hashtbl.replace mix cls (e + Option.value ~default:0 (Hashtbl.find_opt mix cls)))
          b.instrs
      end);
  let blocks =
    Hashtbl.fold
      (fun (pb_func, pb_block) (pb_entries, pb_instrs, pb_cycles) acc ->
        { pb_func; pb_block; pb_entries; pb_instrs; pb_cycles } :: acc)
      rows []
    |> List.sort (fun a b ->
           match compare b.pb_cycles a.pb_cycles with
           | 0 -> compare (a.pb_func, a.pb_block) (b.pb_func, b.pb_block)
           | c -> c)
  in
  let opcode_mix =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) mix []
    |> List.sort (fun (ca, na) (cb, nb) ->
           match compare nb na with 0 -> String.compare ca cb | c -> c)
  in
  let t =
    { p_engine = engine; p_blocks = blocks; p_opcode_mix = opcode_mix;
      p_folded = folded; p_total_cycles = total_cycles; p_total_instrs = total_instrs }
  in
  publish t;
  t

let sum_cycles (t : t) = List.fold_left (fun a b -> a +. b.pb_cycles) 0.0 t.p_blocks
let sum_instrs (t : t) = List.fold_left (fun a b -> a + b.pb_instrs) 0 t.p_blocks
let sum_entries (t : t) = List.fold_left (fun a b -> a + b.pb_entries) 0 t.p_blocks

(** Structural equality up to float bit patterns — what the cross-engine
    parity oracle checks.  Folded stacks are included: the two engines
    share the call-tracking discipline, so the trees must match too. *)
let equal (a : t) (b : t) : bool =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let beq x y =
    String.equal x.pb_func y.pb_func
    && String.equal x.pb_block y.pb_block
    && x.pb_entries = y.pb_entries
    && x.pb_instrs = y.pb_instrs
    && feq x.pb_cycles y.pb_cycles
  in
  List.equal beq a.p_blocks b.p_blocks
  && List.equal (fun (c, n) (c', n') -> String.equal c c' && n = n') a.p_opcode_mix b.p_opcode_mix
  && List.equal (fun (p, s) (p', s') -> String.equal p p' && feq s s') a.p_folded b.p_folded
  && feq a.p_total_cycles b.p_total_cycles
  && a.p_total_instrs = b.p_total_instrs

(* -- rendering --------------------------------------------------------- *)

let pp ?(limit = 20) ppf (t : t) =
  let total = if t.p_total_cycles > 0.0 then t.p_total_cycles else 1.0 in
  Fmt.pf ppf "%-24s %-16s %10s %12s %14s %7s@." "function" "block" "entries"
    "instrs" "cycles" "cum%";
  let cum = ref 0.0 in
  List.iteri
    (fun i b ->
      if i < limit then begin
        cum := !cum +. b.pb_cycles;
        Fmt.pf ppf "%-24s %-16s %10d %12d %14.1f %6.1f%%@." b.pb_func b.pb_block
          b.pb_entries b.pb_instrs b.pb_cycles
          (100.0 *. !cum /. total)
      end)
    t.p_blocks;
  let n = List.length t.p_blocks in
  if n > limit then Fmt.pf ppf "... (%d more blocks; --top %d to widen)@." (n - limit) n;
  Fmt.pf ppf "total: %.1f cycles over %d instructions (%d block entries)@."
    t.p_total_cycles t.p_total_instrs (sum_entries t);
  if t.p_opcode_mix <> [] then begin
    Fmt.pf ppf "@.== Opcode mix (dynamic, by class) ==@.";
    let itotal = max 1 (List.fold_left (fun a (_, n) -> a + n) 0 t.p_opcode_mix) in
    List.iter
      (fun (cls, n) ->
        Fmt.pf ppf "%-16s %12d %6.1f%%@." cls n
          (100.0 *. float_of_int n /. float_of_int itotal))
      t.p_opcode_mix
  end

(** One "path self-cycles" line per call path, flamegraph.pl's folded
    input format.  Cycles are simulated (deterministic), rounded to
    integers as the format requires. *)
let pp_folded ppf (t : t) =
  List.iter
    (fun (path, self) -> Fmt.pf ppf "%s %.0f@." path self)
    t.p_folded

let write_folded (file : string) (t : t) =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      pp_folded ppf t;
      Format.pp_print_flush ppf ())
