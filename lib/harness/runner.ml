(** Executes a benchmark kernel under one of the four compilation
    strategies of the paper's evaluation and collects simulated cycles
    and outputs. *)

open Psimdlib

type impl =
  | Scalar  (** serial source, vectorization disabled *)
  | Autovec  (** serial source through the loop auto-vectorizer *)
  | SlpImpl of Parsimony.Options.t
      (** serial source through the SLP packer (globally-optimized
          pairing) *)
  | ParsimonyImpl of Parsimony.Options.t  (** psim source through the pass *)
  | Hand  (** hand-written vector IR (intrinsics stand-in) *)

let impl_name = function
  | Scalar -> "scalar"
  | Autovec -> "autovec"
  | SlpImpl o -> Parsimony.Options.strategy_name o.Parsimony.Options.strategy
  | ParsimonyImpl o ->
      if o.Parsimony.Options.math_lib = "ispc" then "ispc" else "parsimony"
  | Hand -> "hand"

type result = {
  impl : impl;
  cycles : float;
  outputs : (string * Pmachine.Value.t array) list;
  stats : Pmachine.Interp.stats;
  profile : Pmachine.Profile.t option;
      (** per-block attribution of the run, when requested ([~profile]) *)
}

exception Unavailable of string

(** Compile-once cache for frontend lowering.

    Every strategy starts from [Pfrontend.Lower.compile] of either the
    serial or the psim source, and the figure sweep revisits the same
    kernel under several strategies (and several option sets), so the
    identical lowering used to be redone up to four times per kernel.
    The cache memoizes the *pristine* lowering per (kernel, source) and
    hands out a [Pir.Func.copy_module] deep copy, because every
    downstream pass (autovec, vectorizer, simplify) mutates the module
    in place.  Backed by the bounded [Lru] store (workers probe
    concurrently; a concurrent miss may compile twice and the last
    stored entry wins — both are deterministic, so either is correct).
    The capacity comfortably covers the whole benchmark suite's working
    set, so eviction only matters to long-lived daemon processes fed
    arbitrary sources. *)
module Compile_cache = struct
  let store : (string * string, Pir.Func.modul) Lru.t =
    Lru.create ~capacity:512 ()

  let compile ~name src : Pir.Func.modul =
    let key = (name, src) in
    match Lru.find store key with
    | Some m -> Pir.Func.copy_module m
    | None ->
        let m = Pfrontend.Lower.compile ~name src in
        Lru.add store key m;
        Pir.Func.copy_module m

  (** (hits, misses) over the process lifetime. *)
  let stats () =
    let s = Lru.stats store in
    (s.Lru.hits, s.Lru.misses)

  let clear () = Lru.clear store
end

let build_module (k : Workload.kernel) (impl : impl) : Pir.Func.modul =
  let m =
    match impl with
    | Scalar -> Compile_cache.compile ~name:k.kname k.serial_src
    | Autovec ->
        let m = Compile_cache.compile ~name:k.kname k.serial_src in
        ignore (Pautovec.Autovec.run_module m);
        m
    | SlpImpl _ ->
        let m = Compile_cache.compile ~name:k.kname k.serial_src in
        ignore (Parsimony.Slp.run_module m);
        m
    | ParsimonyImpl opts ->
        let m = Compile_cache.compile ~name:k.kname k.psim_src in
        ignore (Parsimony.Vectorizer.run_module ~opts m);
        m
    | Hand -> (
        match k.hand with
        | Some build ->
            let m = Pir.Func.create_module (k.kname ^ ".hand") in
            build m;
            m
        | None ->
            raise (Unavailable (k.kname ^ ": no hand-written implementation")))
  in
  (* the standard late pipeline (CSE + DCE) runs for every strategy,
     like the -O3 passes downstream of the paper's vectorizer *)
  Parsimony.Simplify.run_module m;
  m

(** Vectorization coverage scorecard for [k]'s Parsimony build, rolled
    up across its SPMD functions (main gang + tail).  Runs the same
    compile → vectorize → simplify pipeline as [build_module], so the
    final-IR totals describe the module the simulator executes.  [None]
    when no SPMD function was vectorized. *)
let scorecard ?(opts = Parsimony.Options.default) (k : Workload.kernel) :
    Parsimony.Scorecard.t option =
  let m = Compile_cache.compile ~name:k.kname k.psim_src in
  let reports = Parsimony.Vectorizer.run_module ~opts m in
  Parsimony.Simplify.run_module m;
  match Parsimony.Scorecard.of_module ~reports m with
  | [] -> None
  | cards -> Some (Parsimony.Scorecard.aggregate ~name:k.kname cards)

(* The VM is the default engine for bench/fuzz throughput; pass
   [~engine:Pmachine.Engine.Interp] for the tree-walking oracle (the
   two produce bit-identical outputs, cycles and stats). *)
let run ?(check = false) ?(engine = Pmachine.Engine.Vm) ?(profile = false)
    (k : Workload.kernel) (impl : impl) : result =
  let m = build_module k impl in
  if check then Panalysis.Check.check_module m;
  let t = Pmachine.Engine.create ~kind:engine ~profile m in
  let mem = Pmachine.Engine.mem t in
  let addrs =
    List.map
      (fun (b : Workload.buffer) ->
        let esz = Pir.Types.scalar_bytes b.elem in
        (* 64 bytes of slack for strided shuffle over-read *)
        let addr = Pmachine.Memory.alloc mem ((b.len * esz) + 64) in
        for i = 0 to b.len - 1 do
          Pmachine.Memory.store_scalar mem b.elem (addr + (i * esz)) (b.init i)
        done;
        (b, addr))
      k.buffers
  in
  let args =
    List.map (fun (_, a) -> Pmachine.Value.I (Int64.of_int a)) addrs @ k.scalars
  in
  ignore (Pmachine.Engine.run t k.kname args);
  let outputs =
    List.filter_map
      (fun ((b : Workload.buffer), addr) ->
        if b.output then
          Some (b.bname, Pmachine.Memory.read_array mem b.elem addr b.len)
        else None)
      addrs
  in
  let stats = Pmachine.Engine.stats t in
  let profile = if profile then Some (Pmachine.Engine.profile t) else None in
  { impl; cycles = stats.cycles; outputs; stats; profile }

let close_enough tol (a : Pmachine.Value.t) (b : Pmachine.Value.t) =
  if tol = 0.0 then Pmachine.Value.equal a b
  else
    match (a, b) with
    | Pmachine.Value.F x, Pmachine.Value.F y ->
        let d = Float.abs (x -. y) in
        d <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
    | _ -> Pmachine.Value.equal a b

(** Run all available implementations; raise with a diagnostic if any
    output buffer disagrees with the scalar reference. *)
let verify (k : Workload.kernel) : unit =
  let impls =
    [
      Scalar;
      Autovec;
      SlpImpl
        {
          Parsimony.Options.default with
          strategy = Parsimony.Options.SlpOptimal;
        };
      ParsimonyImpl Parsimony.Options.default;
      ParsimonyImpl Parsimony.Options.ispc;
    ]
    @ (if k.hand <> None then [ Hand ] else [])
  in
  let results = List.map (fun i -> run ~check:true k i) impls in
  let reference = List.hd results in
  List.iter
    (fun r ->
      List.iter2
        (fun (name, expected) (name', got) ->
          assert (name = name');
          Array.iteri
            (fun i e ->
              if not (close_enough k.float_tolerance e got.(i)) then
                failwith
                  (Fmt.str "%s: %s disagrees with scalar at %s[%d]: %a vs %a"
                     k.kname (impl_name r.impl) name i Pmachine.Value.pp e
                     Pmachine.Value.pp got.(i)))
            expected)
        reference.outputs r.outputs)
    (List.tl results)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
