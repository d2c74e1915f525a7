(* A realistic image-processing pipeline built from the Simd Library
   port: BGRA -> gray -> Gaussian blur -> Sobel edge magnitude, with
   every stage compiled by the Parsimony vectorizer, next to the same
   pipeline compiled scalar.

     dune exec examples/image_pipeline.exe *)

open Psimdlib

let w = Workload.width
let h = Workload.height

let stage name = Option.get (Registry.find name)

let build_stage impl name =
  let k = stage name in
  (k, Pharness.Runner.build_module k impl)

let run_pipeline impl =
  let total_cycles = ref 0.0 in
  (* shared memory across stages *)
  let mem = Pmachine.Memory.create () in
  let npx = w * h in
  let bgra =
    Pmachine.Memory.alloc_array mem Pir.Types.I8
      (Array.init (4 * npx) (fun i -> Workload.u8 42 i))
  in
  let gray = Pmachine.Memory.alloc mem (npx + 64) in
  let blurred = Pmachine.Memory.alloc mem (npx + 64) in
  let edges = Pmachine.Memory.alloc mem ((2 * npx) + 64) in
  let call name args =
    let k, m = build_stage impl name in
    ignore k;
    let t = Pmachine.Interp.create ~mem m in
    ignore (Pmachine.Interp.run t name args);
    total_cycles := !total_cycles +. (Pmachine.Interp.stats t).cycles
  in
  let vi v = Pmachine.Value.I (Int64.of_int v) in
  call "bgra_to_gray" [ vi bgra; vi gray; vi npx ];
  call "gaussian_blur_3x3" [ vi gray; vi blurred; vi w; vi h ];
  call "sobel_dx_abs" [ vi blurred; vi edges; vi w; vi h ];
  let out = Pmachine.Memory.read_array mem Pir.Types.I16 edges npx in
  (out, !total_cycles)

let () =
  Fmt.pr "== image pipeline: bgra_to_gray |> gaussian_blur_3x3 |> sobel_dx_abs ==@.";
  Fmt.pr "image: %dx%d@." w h;
  let scalar_out, scalar_cycles = run_pipeline Pharness.Runner.Scalar in
  let vec_out, vec_cycles =
    run_pipeline (Pharness.Runner.ParsimonyImpl Parsimony.Options.default)
  in
  assert (Array.for_all2 Pmachine.Value.equal scalar_out vec_out);
  Fmt.pr "scalar pipeline:    %.0f cycles@." scalar_cycles;
  Fmt.pr "parsimony pipeline: %.0f cycles (%.1fx)@." vec_cycles
    (scalar_cycles /. vec_cycles);
  (* tiny ASCII rendering of the edge magnitudes *)
  Fmt.pr "@.edge magnitude (downsampled):@.";
  let shades = [| ' '; '.'; ':'; '*'; '#'; '@' |] in
  for y = 1 to h - 2 do
    if y mod 2 = 1 then begin
      for x = 1 to w - 2 do
        if x mod 2 = 1 then begin
          let v =
            match vec_out.((y * w) + x) with
            | Pmachine.Value.I v -> Int64.to_int (Pir.Ints.sext 16 v)
            | _ -> 0
          in
          let lvl = min 5 (abs v / 60) in
          Fmt.pr "%c" shades.(lvl)
        end
      done;
      Fmt.pr "@."
    end
  done
