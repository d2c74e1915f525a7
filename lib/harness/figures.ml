(** Regenerates the paper's evaluation artifacts (DESIGN.md experiment
    index): Figure 4, Figure 5, the code-size comparison, and the
    ablation study.  Output is textual tables whose rows mirror the
    figures' series. *)

open Psimdlib

let geomean = Runner.geomean

type row = { name : string; series : (string * float) list }

(** Per-series geometric means, in the column order of the head row.
    One pass over the rows (the old per-cell [List.nth] walk was
    quadratic in table size); log-summation stays in row order per
    column, so the result is bit-identical to folding each column
    independently. *)
let geomeans (rows : row list) : (string * float) list =
  match rows with
  | [] -> []
  | r0 :: _ ->
      let n = List.length r0.series in
      let sums = Array.make n 0.0 in
      let count = float_of_int (List.length rows) in
      List.iter
        (fun r ->
          List.iteri (fun i (_, v) -> sums.(i) <- sums.(i) +. log v) r.series)
        rows;
      List.mapi (fun i (s, _) -> (s, exp (sums.(i) /. count))) r0.series

(** A figure's rows plus its per-series geomeans, as JSON.  The hand
    column is [nan] where no hand-written kernel exists, which
    {!Pobs.Json} emits as [null]. *)
let to_json (rows : row list) : Pobs.Json.t =
  let series kvs = Pobs.Json.Obj (List.map (fun (s, v) -> (s, Pobs.Json.Float v)) kvs) in
  Pobs.Json.Obj
    [
      ( "rows",
        Pobs.Json.Arr
          (List.map
             (fun r -> Pobs.Json.Obj [ ("name", Pobs.Json.Str r.name); ("series", series r.series) ])
             rows) );
      ("geomeans", series (geomeans rows));
    ]

let pp_table ppf ~title ~unit rows =
  Fmt.pf ppf "@.== %s ==@." title;
  (match rows with
  | [] -> ()
  | r0 :: _ ->
      Fmt.pf ppf "%-36s" "benchmark";
      List.iter (fun (s, _) -> Fmt.pf ppf "%12s" s) r0.series;
      Fmt.pf ppf "@.");
  List.iter
    (fun r ->
      Fmt.pf ppf "%-36s" r.name;
      List.iter (fun (_, v) -> Fmt.pf ppf "%12.2f" v) r.series;
      Fmt.pf ppf "@.")
    rows;
  (* geomeans per series *)
  (match rows with
  | [] -> ()
  | _ ->
      Fmt.pf ppf "%-36s" "geomean";
      List.iter (fun (_, g) -> Fmt.pf ppf "%12.2f" g) (geomeans rows);
      Fmt.pf ppf "@.");
  Fmt.pf ppf "(%s)@." unit

(* -- parallel fan-out --

   Each figure flattens its sweep into independent (kernel, impl) runs
   and maps them across the pool; [Pool.map] is order-preserving, so
   reassembling rows from consecutive result slices yields byte-for-byte
   the serial tables.  Every run builds its own module copy (see
   [Runner.Compile_cache]), interpreter and memory, so tasks share no
   mutable state. *)

let pmap ?pool f xs =
  match pool with Some p -> Pparallel.Pool.map p f xs | None -> List.map f xs

(** Split [cycles] into consecutive [width]-sized slices, one per kernel
    of [kernels], and build a row from each. *)
let reassemble ~width kernels cycles mk =
  let arr = Array.of_list cycles in
  assert (Array.length arr = width * List.length kernels);
  List.mapi
    (fun i (k : Workload.kernel) ->
      mk k (Array.to_list (Array.sub arr (i * width) width)))
    kernels

(* -- raw cycle tables --

   The regression observatory gates on absolute per-kernel cycles (the
   deterministic quantity the simulator produces), while the printed
   figures show ratios.  Each figure therefore first materializes a
   [raw] table of cycles per (kernel, implementation) and then derives
   its ratio rows from it, so both views come from the same runs. *)

type raw = { rkernel : string; rcycles : (string * float) list }

(* -- Figure 4: ispc suite, normalized to LLVM auto-vectorization -- *)

let figure4_raw ?pool ?engine ?(kernels = Pispc.Suite.all) () : raw list =
  let impls =
    [
      Runner.Autovec;
      Runner.ParsimonyImpl Parsimony.Options.default;
      Runner.ParsimonyImpl Parsimony.Options.ispc;
    ]
  in
  let jobs =
    List.concat_map (fun k -> List.map (fun i -> (k, i)) impls) kernels
  in
  let cycles = pmap ?pool (fun (k, i) -> (Runner.run ?engine k i).cycles) jobs in
  reassemble ~width:3 kernels cycles (fun k -> function
    | [ auto; pars; ispc ] ->
        {
          rkernel = k.kname;
          rcycles = [ ("autovec", auto); ("parsimony", pars); ("ispc", ispc) ];
        }
    | _ -> assert false)

let figure4_rows (raws : raw list) : row list =
  List.map
    (fun r ->
      let c name = List.assoc name r.rcycles in
      let auto = c "autovec" in
      {
        name = r.rkernel;
        series =
          [ ("ispc", auto /. c "ispc"); ("parsimony", auto /. c "parsimony") ];
      })
    raws

let figure4 ?pool ?engine ?kernels () : row list =
  figure4_rows (figure4_raw ?pool ?engine ?kernels ())

(* -- Figure 5: Simd Library suite, normalized to LLVM scalar -- *)

let figure5_raw ?pool ?engine ?(kernels = Registry.all) () : raw list =
  let slp_opts =
    { Parsimony.Options.default with strategy = Parsimony.Options.SlpOptimal }
  in
  let jobs =
    List.concat_map
      (fun (k : Workload.kernel) ->
        [
          (k, Some Runner.Scalar);
          (k, Some Runner.Autovec);
          (k, Some (Runner.SlpImpl slp_opts));
          (k, Some (Runner.ParsimonyImpl Parsimony.Options.default));
          (k, if k.hand <> None then Some Runner.Hand else None);
        ])
      kernels
  in
  let cycles =
    pmap ?pool
      (fun (k, impl) ->
        match impl with Some i -> (Runner.run ?engine k i).cycles | None -> nan)
      jobs
  in
  reassemble ~width:5 kernels cycles (fun k -> function
    | [ scalar; auto; slp; pars; hand ] ->
        {
          rkernel = k.kname;
          rcycles =
            [
              ("scalar", scalar);
              ("autovec", auto);
              ("slp", slp);
              ("parsimony", pars);
              (* nan cycles: no hand implementation for this kernel *)
              ("hand", hand);
            ];
        }
    | _ -> assert false)

let figure5_rows (raws : raw list) : row list =
  List.map
    (fun r ->
      let c name = List.assoc name r.rcycles in
      let scalar = c "scalar" in
      {
        name = r.rkernel;
        series =
          [
            ("autovec", scalar /. c "autovec");
            ("slp", scalar /. c "slp");
            ("parsimony", scalar /. c "parsimony");
            (* nan cycles (no hand implementation) stays nan *)
            ("hand", scalar /. c "hand");
          ];
      })
    raws

let figure5 ?pool ?engine ?kernels () : row list =
  figure5_rows (figure5_raw ?pool ?engine ?kernels ())

(* headline numbers of §6 derived from the figure data *)
let summary_figure5 rows =
  let col name =
    List.filter_map
      (fun r ->
        match List.assoc_opt name r.series with
        | Some v when Float.is_finite v -> Some v
        | _ -> None)
      rows
  in
  let ga = geomean (col "autovec") in
  let gs = geomean (col "slp") in
  let gp = geomean (col "parsimony") in
  let gh = geomean (col "hand") in
  Fmt.str
    "autovec geomean %.2fx (paper: 3.46x); slp %.2fx (straight-line packing \
     of the serial source, no SPMD annotations); parsimony %.2fx (paper: \
     7.70x); hand-written %.2fx (paper: 7.91x); parsimony/hand = %.2f \
     (paper: 0.97); parsimony/autovec = %.2f (paper: 2.23)"
    ga gs gp gh (gp /. gh) (gp /. ga)

let summary_figure4 rows =
  let col name = List.map (fun r -> List.assoc name r.series) rows in
  Fmt.str
    "parsimony geomean %.2fx over autovec (paper: 5.9); ispc %.2fx (paper: \
     6.0); binomial parsimony/ispc = %.2f (paper: 0.71, the SLEEF pow gap)"
    (geomean (col "parsimony"))
    (geomean (col "ispc"))
    (let r = List.find (fun r -> r.name = "binomial_options") rows in
     List.assoc "parsimony" r.series /. List.assoc "ispc" r.series)

(* -- code size: Parsimony source lines vs the intrinsics-style
   implementation (paper §6: 7x average reduction) -- *)

let code_size ?(kernels = Registry.all) () :
    (string * int * int option) list =
  List.map
    (fun (k : Workload.kernel) ->
      let psim_lines = Workload.source_lines k.psim_src in
      let hand_instrs =
        match k.hand with
        | None -> None
        | Some build ->
            let m = Pir.Func.create_module "sz" in
            build m;
            Some
              (List.fold_left (fun acc f -> acc + Pir.Func.size f) 0 m.funcs)
      in
      (k.kname, psim_lines, hand_instrs))
    kernels

let summary_code_size entries =
  let ratios =
    List.filter_map
      (fun (_, p, h) ->
        match h with
        | Some h when p > 0 -> Some (float_of_int h /. float_of_int p)
        | _ -> None)
      entries
  in
  Fmt.str
    "intrinsics-style implementation is %.1fx larger than the Parsimony port \
     on average (%d kernels; paper reports 7x source reduction)"
    (geomean ratios) (List.length ratios)

(* -- ablations (DESIGN.md): each vectorizer design choice on a kernel
   mix that exposes it -- *)

let ablation_cases =
  [
    ("shape analysis off", { Parsimony.Options.default with shape_analysis = false });
    ("strided shuffles off", { Parsimony.Options.default with stride_shuffle_bound = 0 });
    ("uniform branches linearized", { Parsimony.Options.default with uniform_branches = false });
    ("boscc on", { Parsimony.Options.default with boscc = true });
    ("analysis feedback on", { Parsimony.Options.default with analysis_feedback = true });
    ("reduction unrolling on", { Parsimony.Options.default with reduce_unroll = true });
  ]

let ablation_kernels () =
  List.filter_map
    (fun n -> Registry.find n)
    [
      "operation_binary8u_saturated_add";
      "bgra_to_gray";
      "deinterleave_uv";
      "gaussian_blur_3x3";
      "get_col_sums";
      "neural_product_sum";
      "squared_difference_sum_32f";
    ]
  @ List.filter
      (fun (k : Workload.kernel) -> k.kname = "mandelbrot")
      Pispc.Suite.all

let ablations ?pool ?engine () : row list =
  let kernels = ablation_kernels () in
  let optss = Parsimony.Options.default :: List.map snd ablation_cases in
  let jobs =
    List.concat_map (fun k -> List.map (fun o -> (k, o)) optss) kernels
  in
  let cycles =
    pmap ?pool (fun (k, o) -> (Runner.run ?engine k (Runner.ParsimonyImpl o)).cycles) jobs
  in
  reassemble ~width:(List.length optss) kernels cycles (fun k -> function
    | base :: rest ->
        {
          name = k.kname;
          series =
            (* slowdown relative to the default configuration *)
            List.map2 (fun (label, _) c -> (label, c /. base)) ablation_cases rest;
        }
    | [] -> assert false)

(* -- compile time: the pass (including online precondition checks) -- *)

let compile_time_stats () =
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  List.iter
    (fun (k : Workload.kernel) ->
      let m = Pfrontend.Lower.compile ~name:k.kname k.psim_src in
      ignore (Parsimony.Vectorizer.run_module m);
      incr count)
    Registry.all;
  let dt = Unix.gettimeofday () -. t0 in
  Fmt.str
    "compiled+vectorized %d Parsimony kernels in %.3fs (%.2fms each, online \
     rule checks included — 'fractions of a second', §4.2.2)"
    !count dt
    (1000.0 *. dt /. float_of_int !count)
