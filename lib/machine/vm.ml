(** Register-VM execution engine: runs [Bc] code.

    The VM owns a {!State.t} — memory, statistics, cycle accumulator,
    fuel and profile call tree — and charges each block through
    [State.account], as the interpreter does, in the same order: a run
    produces bit-identical cycle totals and statistics under either
    engine.  Calls to SPMD-annotated functions run one gang on an
    interpreter built over the same state ([gangs]); that, and reading
    the gangs' per-block profile rows, is all the VM asks of {!Interp}.
    Vector operations run [Eval]'s lane kernels and vector memory
    accesses [Memory]'s lane loops, the code the interpreter runs; the
    float arithmetic forms keep their loops here.

    The dispatch loop is a tail-recursive walk of the instruction
    array: one match per instruction, absolute jumps, no hashtable
    lookups.  Scalar integer and float traffic stays in the frame's
    unboxed banks — the match arms below compute native results
    in-place, so the scalar hot path (the vast majority of executed
    instructions on the benchmark suites) allocates nothing.  Register
    frames are pooled per compiled function and reused across calls
    (recursion pops fresh frames as needed); constants live in
    dedicated bank slots written once when a frame is first built.

    Profiling: with attribution on ([State.t.profile]) the Acct
    dispatch arm bumps one per-block entry counter ([Bc.c_pent]), as
    the interpreter counts entries of the blocks its gangs run;
    instructions and cycles per entry are block constants, so [capture]
    hands both sides' counts to {!Profile.v}, which derives the rows.
    When profiling is off the only residue is one predictable untaken
    branch inside Acct — the per-instruction hot path is untouched. *)

open Pir.Instr

type t = {
  st : State.t;
  modul : Pir.Func.modul;
  gangs : Interp.t;  (** runs SPMD gangs over [st] *)
  codes : (string, Bc.code) Hashtbl.t;
}

let create ?mem ?fuel ?profile modul =
  let st = State.create ?mem ?fuel ?profile () in
  { st; modul; gangs = Interp.make st modul; codes = Hashtbl.create 16 }

let stats t = t.st.State.stats

let mem t = t.st.State.mem

(* [Value.round_float F32] without leaving float registers; see
   [Value.f32_bits] for why it is written here *)
let[@inline] round32 x = Value.f32_of_bits (Value.f32_bits x)

(* destination arrays for the float lane loops.  A non-negative dst
   allocates fresh and publishes the wrapper afterwards ([fin_vf]); a
   negative dst is a private register ([Bc.c_priv]): the slot already
   holds the frame's preallocated wrapper, lanes are overwritten in
   place and nothing is published.  The shape guard turns ill-typed IR
   into a trap instead of an out-of-bounds lane write. *)
let[@inline] dst_vf (fr : Bc.frame) (d : int) (n : int) : float array =
  if d >= 0 then Array.make n 0.0
  else
    match Array.unsafe_get fr.Bc.regs (lnot d) with
    | Value.VF r when Array.length r = n -> r
    | v -> Fmt.invalid_arg "Vm.private: %a" Value.pp v

let[@inline] fin_vf (fr : Bc.frame) (d : int) (r : float array) =
  if d >= 0 then Array.unsafe_set fr.Bc.regs d (Value.VF r)

(* the destination of every other vector form: a fresh vector published
   into its slot before the lanes are computed, or the private register
   itself, which the lane loop checks the shape of *)
let[@inline] dst (fr : Bc.frame) (v : Bc.vdst) : Value.t =
  if v.slot >= 0 then begin
    let r = Value.vec v.elem v.lanes in
    Array.unsafe_set fr.Bc.regs v.slot r;
    r
  end
  else Array.unsafe_get fr.Bc.regs (lnot v.slot)

let[@inline] mask_of (fr : Bc.frame) rm =
  if rm < 0 then Memory.no_mask else Value.as_ivec (Array.unsafe_get fr.Bc.regs rm)

(* -- dispatch loop -- *)

let rec exec t (c : Bc.code) (fr : Bc.frame) (pc : int) : Value.t =
  match Array.unsafe_get c.c_insts pc with
  | Bc.Acct a ->
      State.account t.st a.a_n a.a_vec a.a_cyc;
      (* the whole of attribution: instrs and cycles per entry are
         block constants, so [capture] derives them from the entry
         count — the profiled path costs one predictable branch and
         one int bump *)
      if t.st.profile then begin
        let pent = c.c_pent and ix = a.a_ix in
        Array.unsafe_set pent ix (Array.unsafe_get pent ix + 1)
      end;
      exec t c fr (pc + 1)
  | Bc.IBin (k, w, d, a, b) ->
      let ir = fr.iregs in
      Array.unsafe_set ir d
        (Eval.ibin_nat k w (Array.unsafe_get ir a) (Array.unsafe_get ir b));
      exec t c fr (pc + 1)
  | Bc.IUn (k, w, d, a) ->
      let ir = fr.iregs in
      Array.unsafe_set ir d (Eval.iun_nat k w (Array.unsafe_get ir a));
      exec t c fr (pc + 1)
  | Bc.ICmp (p, w, d, a, b) ->
      let ir = fr.iregs in
      Array.unsafe_set ir d
        (if Eval.icmp_nat p w (Array.unsafe_get ir a) (Array.unsafe_get ir b)
         then 1
         else 0);
      exec t c fr (pc + 1)
  | Bc.FBin (k, r32, d, a, b) ->
      let fregs = fr.fregs in
      let x = Array.unsafe_get fregs a and y = Array.unsafe_get fregs b in
      let x = if r32 then round32 x else x
      and y = if r32 then round32 y else y in
      let r =
        match k with
        | FAdd -> x +. y
        | FSub -> x -. y
        | FMul -> x *. y
        | FDiv -> x /. y
        | FMin -> Float.min x y
        | FMax -> Float.max x y
      in
      Array.unsafe_set fregs d (if r32 then round32 r else r);
      exec t c fr (pc + 1)
  | Bc.FUn (k, r32, d, a) ->
      let fregs = fr.fregs in
      let x = Array.unsafe_get fregs a in
      let x = if r32 then round32 x else x in
      let r =
        match k with
        | FNeg -> -.x
        | FAbs -> Float.abs x
        | FSqrt -> sqrt x
        | FFloor -> Float.floor x
        | FCeil -> Float.ceil x
      in
      Array.unsafe_set fregs d (if r32 then round32 r else r);
      exec t c fr (pc + 1)
  | Bc.FCmp (p, d, a, b) ->
      (* raw comparisons, no rounding, as [Eval.fcmp_scalar] *)
      let fregs = fr.fregs in
      let x = Array.unsafe_get fregs a and y = Array.unsafe_get fregs b in
      let r =
        match p with
        | Oeq -> x = y
        | One -> x < y || x > y
        | Olt -> x < y
        | Ole -> x <= y
        | Ogt -> x > y
        | Oge -> x >= y
      in
      Array.unsafe_set fr.iregs d (if r then 1 else 0);
      exec t c fr (pc + 1)
  | Bc.SelI (d, cnd, a, b) ->
      let ir = fr.iregs in
      Array.unsafe_set ir d
        (if Array.unsafe_get ir cnd <> 0 then Array.unsafe_get ir a
         else Array.unsafe_get ir b);
      exec t c fr (pc + 1)
  | Bc.SelF (d, cnd, a, b) ->
      Array.unsafe_set fr.fregs d
        (if Array.unsafe_get fr.iregs cnd <> 0 then
           Array.unsafe_get fr.fregs a
         else Array.unsafe_get fr.fregs b);
      exec t c fr (pc + 1)
  | Bc.MovI (d, a) ->
      Array.unsafe_set fr.iregs d (Array.unsafe_get fr.iregs a);
      exec t c fr (pc + 1)
  | Bc.MovF (d, a) ->
      Array.unsafe_set fr.fregs d (Array.unsafe_get fr.fregs a);
      exec t c fr (pc + 1)
  | Bc.CastII (k, ws, wd, d, a) ->
      let x = Array.unsafe_get fr.iregs a in
      let r =
        match k with
        | Trunc -> x land Eval.mask_nat wd
        | ZExt -> x land Eval.mask_nat ws
        | SExt -> Eval.sext_nat ws x land Eval.mask_nat wd
        | _ -> assert false
      in
      Array.unsafe_set fr.iregs d r;
      exec t c fr (pc + 1)
  | Bc.CastIF (signed, ws, r32, d, a) ->
      let x = Array.unsafe_get fr.iregs a in
      let f =
        if signed then float_of_int (Eval.sext_nat ws x)
        else float_of_int (x land Eval.mask_nat ws)
      in
      Array.unsafe_set fr.fregs d (if r32 then round32 f else f);
      exec t c fr (pc + 1)
  | Bc.CastFI (signed, wd, d, a) ->
      let x = Float.trunc (Array.unsafe_get fr.fregs a) in
      let v =
        if x <> x || ((not signed) && x < 0.0) then 0 else int_of_float x
      in
      Array.unsafe_set fr.iregs d (v land Eval.mask_nat wd);
      exec t c fr (pc + 1)
  | Bc.CastFF (r32, d, a) ->
      let x = Array.unsafe_get fr.fregs a in
      Array.unsafe_set fr.fregs d (if r32 then round32 x else x);
      exec t c fr (pc + 1)
  | Bc.BcastIF (d, a) ->
      Array.unsafe_set fr.fregs d
        (Value.f32_of_bits (Int32.of_int (Array.unsafe_get fr.iregs a)));
      exec t c fr (pc + 1)
  | Bc.BcastFI (d, a) ->
      Array.unsafe_set fr.iregs d
        (Int32.to_int (Value.f32_bits (Array.unsafe_get fr.fregs a))
        land 0xFFFFFFFF);
      exec t c fr (pc + 1)
  | Bc.GepN (esz, iw, d, base, ix) ->
      let ir = fr.iregs in
      Array.unsafe_set ir d
        (Array.unsafe_get ir base
        + (Eval.sext_nat iw (Array.unsafe_get ir ix) * esz));
      exec t c fr (pc + 1)
  | Bc.AllocaN (bytes, d) ->
      Array.unsafe_set fr.iregs d (Memory.alloc t.st.State.mem bytes);
      exec t c fr (pc + 1)
  | Bc.LdN (s, d, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Array.unsafe_set fr.iregs d
        (Memory.load_nat t.st.State.mem s (Array.unsafe_get fr.iregs addr));
      exec t c fr (pc + 1)
  | Bc.LdF32 (d, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Array.unsafe_set fr.fregs d
        (Memory.load_f32 t.st.State.mem (Array.unsafe_get fr.iregs addr));
      exec t c fr (pc + 1)
  | Bc.LdF64 (d, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Array.unsafe_set fr.fregs d
        (Memory.load_f64 t.st.State.mem (Array.unsafe_get fr.iregs addr));
      exec t c fr (pc + 1)
  | Bc.StN (s, src, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.store_nat t.st.State.mem s
        (Array.unsafe_get fr.iregs addr)
        (Array.unsafe_get fr.iregs src);
      exec t c fr (pc + 1)
  | Bc.StF32 (src, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.store_f32 t.st.State.mem
        (Array.unsafe_get fr.iregs addr)
        (Array.unsafe_get fr.fregs src);
      exec t c fr (pc + 1)
  | Bc.StF64 (src, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.store_f64 t.st.State.mem
        (Array.unsafe_get fr.iregs addr)
        (Array.unsafe_get fr.fregs src);
      exec t c fr (pc + 1)
  | Bc.IBin64 (k, d, a, b) ->
      let lr = fr.lregs in
      Array.unsafe_set lr d
        (Eval.ibin64 k (Array.unsafe_get lr a) (Array.unsafe_get lr b));
      exec t c fr (pc + 1)
  | Bc.IUn64 (k, d, a) ->
      let lr = fr.lregs in
      Array.unsafe_set lr d (Eval.iun64 k (Array.unsafe_get lr a));
      exec t c fr (pc + 1)
  | Bc.ICmp64 (p, d, a, b) ->
      let lr = fr.lregs in
      Array.unsafe_set fr.iregs d
        (if Eval.icmp64 p (Array.unsafe_get lr a) (Array.unsafe_get lr b) then 1
         else 0);
      exec t c fr (pc + 1)
  | Bc.Sel64 (d, cnd, a, b) ->
      let lr = fr.lregs in
      Array.unsafe_set lr d
        (if Array.unsafe_get fr.iregs cnd <> 0 then Array.unsafe_get lr a
         else Array.unsafe_get lr b);
      exec t c fr (pc + 1)
  | Bc.Mov64 (d, a) ->
      Array.unsafe_set fr.lregs d (Array.unsafe_get fr.lregs a);
      exec t c fr (pc + 1)
  | Bc.Bcast64IF (d, a) ->
      Array.unsafe_set fr.fregs d
        (Int64.float_of_bits (Array.unsafe_get fr.lregs a));
      exec t c fr (pc + 1)
  | Bc.Bcast64FI (d, a) ->
      Array.unsafe_set fr.lregs d
        (Int64.bits_of_float (Array.unsafe_get fr.fregs a));
      exec t c fr (pc + 1)
  | Bc.Cast64Trunc (wd, d, a) ->
      Array.unsafe_set fr.iregs d
        (Int64.to_int (Array.unsafe_get fr.lregs a) land Eval.mask_nat wd);
      exec t c fr (pc + 1)
  | Bc.CastZ64 (ws, d, a) ->
      Array.unsafe_set fr.lregs d
        (Int64.of_int (Array.unsafe_get fr.iregs a land Eval.mask_nat ws));
      exec t c fr (pc + 1)
  | Bc.CastS64 (ws, d, a) ->
      Array.unsafe_set fr.lregs d
        (Int64.of_int (Eval.sext_nat ws (Array.unsafe_get fr.iregs a)));
      exec t c fr (pc + 1)
  | Bc.Cast64IF (signed, r32, d, a) ->
      let x = Array.unsafe_get fr.lregs a in
      (* [Eval.cast_scalar] parity: unsigned values past 2^63 go
         through the additive correction *)
      let f =
        if signed || x >= 0L then Int64.to_float x
        else Int64.to_float x +. 18446744073709551616.0
      in
      Array.unsafe_set fr.fregs d (if r32 then round32 f else f);
      exec t c fr (pc + 1)
  | Bc.CastFI64 (signed, d, a) ->
      let x = Float.trunc (Array.unsafe_get fr.fregs a) in
      let v =
        if x <> x || ((not signed) && x < 0.0) then 0L else Int64.of_float x
      in
      Array.unsafe_set fr.lregs d v;
      exec t c fr (pc + 1)
  | Bc.Gep64 (esz, d, base, ix) ->
      Array.unsafe_set fr.iregs d
        (Array.unsafe_get fr.iregs base
        + (Int64.to_int (Array.unsafe_get fr.lregs ix) * esz));
      exec t c fr (pc + 1)
  | Bc.Ld64 (d, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Array.unsafe_set fr.lregs d
        (Memory.load_i64 t.st.State.mem
           (Array.unsafe_get fr.iregs addr));
      exec t c fr (pc + 1)
  | Bc.St64 (src, addr) ->
      let st = t.st.State.stats in
      st.scalar_mem <- st.scalar_mem + 1;
      Memory.store_i64 t.st.State.mem
        (Array.unsafe_get fr.iregs addr)
        (Array.unsafe_get fr.lregs src);
      exec t c fr (pc + 1)
  | Bc.VIBin (k, w, d, a, b) ->
      let regs = fr.regs in
      Eval.ibin_lanes k w (dst fr d) (Array.unsafe_get regs a) (Array.unsafe_get regs b);
      exec t c fr (pc + 1)
  | Bc.VIUn (k, w, d, a) ->
      Eval.iun_lanes k w (dst fr d) (Array.unsafe_get fr.regs a);
      exec t c fr (pc + 1)
  | Bc.VICmp (p, w, d, a, b) ->
      let regs = fr.regs in
      Eval.icmp_lanes p w (dst fr d) (Array.unsafe_get regs a) (Array.unsafe_get regs b);
      exec t c fr (pc + 1)
  | Bc.VFBinN (k, r32, d, a, b) ->
      (match (Array.unsafe_get fr.regs a, Array.unsafe_get fr.regs b) with
      | Value.VF x, Value.VF y ->
          let n = Array.length x in
          let r = dst_vf fr d n in
          if r32 then
            for l = 0 to n - 1 do
              let xa = round32 (Array.unsafe_get x l)
              and xb = round32 (Array.unsafe_get y l) in
              let v =
                match k with
                | FAdd -> xa +. xb
                | FSub -> xa -. xb
                | FMul -> xa *. xb
                | FDiv -> xa /. xb
                | FMin -> Float.min xa xb
                | FMax -> Float.max xa xb
              in
              Array.unsafe_set r l (round32 v)
            done
          else
            for l = 0 to n - 1 do
              let xa = Array.unsafe_get x l and xb = Array.unsafe_get y l in
              Array.unsafe_set r l
                (match k with
                | FAdd -> xa +. xb
                | FSub -> xa -. xb
                | FMul -> xa *. xb
                | FDiv -> xa /. xb
                | FMin -> Float.min xa xb
                | FMax -> Float.max xa xb)
            done;
          fin_vf fr d r
      | va, vb -> Fmt.invalid_arg "Eval.fbin: %a, %a" Value.pp va Value.pp vb);
      exec t c fr (pc + 1)
  | Bc.VFUnN (k, r32, d, a) ->
      (match Array.unsafe_get fr.regs a with
      | Value.VF x ->
          let n = Array.length x in
          let r = dst_vf fr d n in
          if r32 then
            for l = 0 to n - 1 do
              let xa = round32 (Array.unsafe_get x l) in
              let v =
                match k with
                | FNeg -> -.xa
                | FAbs -> Float.abs xa
                | FSqrt -> sqrt xa
                | FFloor -> Float.floor xa
                | FCeil -> Float.ceil xa
              in
              Array.unsafe_set r l (round32 v)
            done
          else
            for l = 0 to n - 1 do
              let xa = Array.unsafe_get x l in
              Array.unsafe_set r l
                (match k with
                | FNeg -> -.xa
                | FAbs -> Float.abs xa
                | FSqrt -> sqrt xa
                | FFloor -> Float.floor xa
                | FCeil -> Float.ceil xa)
            done;
          fin_vf fr d r
      | v -> Fmt.invalid_arg "Eval.fun: %a" Value.pp v);
      exec t c fr (pc + 1)
  | Bc.VFCmpN (p, d, a, b) ->
      let regs = fr.regs in
      Eval.fcmp_lanes p (dst fr d) (Array.unsafe_get regs a) (Array.unsafe_get regs b);
      exec t c fr (pc + 1)
  | Bc.VCast (k, src, dstl, d, a) ->
      Eval.cast_lanes k src dstl (dst fr d) (Array.unsafe_get fr.regs a);
      exec t c fr (pc + 1)
  | Bc.VShuffle (sidx, d, a, b) ->
      let regs = fr.regs in
      Eval.shuffle_lanes sidx (dst fr d) (Array.unsafe_get regs a) (Array.unsafe_get regs b);
      exec t c fr (pc + 1)
  | Bc.VShuffleDyn (d, a, ix) ->
      let regs = fr.regs in
      Eval.shuffle_dyn_lanes (dst fr d) (Array.unsafe_get regs a) (Array.unsafe_get regs ix);
      exec t c fr (pc + 1)
  | Bc.VSel (d, cm, a, b) ->
      let regs = fr.regs in
      Eval.select_lanes (dst fr d) (Array.unsafe_get regs cm) (Array.unsafe_get regs a)
        (Array.unsafe_get regs b);
      exec t c fr (pc + 1)
  | Bc.VSplatI (d, a) ->
      Eval.splat_lanes (dst fr d) (Int64.of_int (Array.unsafe_get fr.iregs a));
      exec t c fr (pc + 1)
  | Bc.VSplatL (d, a) ->
      Eval.splat_lanes (dst fr d) (Array.unsafe_get fr.lregs a);
      exec t c fr (pc + 1)
  | Bc.VSplatF (n, d, a) ->
      let v = Array.unsafe_get fr.fregs a in
      let r = dst_vf fr d n in
      Array.fill r 0 n v;
      fin_vf fr d r;
      exec t c fr (pc + 1)
  | Bc.VLdV (esz, d, rp, rm) ->
      let st = t.st.State.stats in
      st.packed_mem <- st.packed_mem + 1;
      Memory.load_packed t.st.State.mem d.elem
        ~base:(Array.unsafe_get fr.iregs rp)
        ~esz ~mask:(mask_of fr rm) (dst fr d);
      exec t c fr (pc + 1)
  | Bc.VStV (s, esz, rv, rp, rm) ->
      let st = t.st.State.stats in
      st.packed_mem <- st.packed_mem + 1;
      Memory.store_packed t.st.State.mem s
        ~base:(Array.unsafe_get fr.iregs rp)
        ~esz ~mask:(mask_of fr rm)
        (Array.unsafe_get fr.regs rv);
      exec t c fr (pc + 1)
  | Bc.VRedI (k, w, d, a) ->
      Array.unsafe_set fr.iregs d (Eval.reduce_nat k w (Array.unsafe_get fr.regs a));
      exec t c fr (pc + 1)
  | Bc.VRedF (k, s, d, a) ->
      (match Array.unsafe_get fr.regs a with
      | Value.VF x ->
          let n = Array.length x in
          let v =
            match k with
            | RFAdd ->
                if s = Pir.Types.F32 then begin
                  let acc = ref 0.0 in
                  for l = 0 to n - 1 do
                    acc :=
                      round32 (round32 !acc +. round32 (Array.unsafe_get x l))
                  done;
                  !acc
                end
                else begin
                  let acc = ref 0.0 in
                  for l = 0 to n - 1 do
                    acc := !acc +. Array.unsafe_get x l
                  done;
                  !acc
                end
            | RFMin ->
                let acc = ref (Array.get x 0) in
                for l = 0 to n - 1 do
                  acc := Float.min !acc (Array.unsafe_get x l)
                done;
                !acc
            | RFMax ->
                let acc = ref (Array.get x 0) in
                for l = 0 to n - 1 do
                  acc := Float.max !acc (Array.unsafe_get x l)
                done;
                !acc
            | _ -> assert false
          in
          Array.unsafe_set fr.fregs d v
      | v -> Fmt.invalid_arg "Eval.reduce: %a" Value.pp v);
      exec t c fr (pc + 1)
  | Bc.VGaV (esz, iw, d, rb, rix, rm) ->
      let st = t.st.State.stats in
      st.gathers <- st.gathers + 1;
      Memory.gather t.st.State.mem d.elem
        ~base:(Array.unsafe_get fr.iregs rb)
        ~esz ~iw
        ~idxs:(Value.as_ivec (Array.unsafe_get fr.regs rix))
        ~mask:(mask_of fr rm) (dst fr d);
      exec t c fr (pc + 1)
  | Bc.VScV (s, esz, iw, rv, rb, rix, rm) ->
      let st = t.st.State.stats in
      st.scatters <- st.scatters + 1;
      Memory.scatter t.st.State.mem s
        ~base:(Array.unsafe_get fr.iregs rb)
        ~esz ~iw
        ~idxs:(Value.as_ivec (Array.unsafe_get fr.regs rix))
        ~mask:(mask_of fr rm)
        (Array.unsafe_get fr.regs rv);
      exec t c fr (pc + 1)
  | Bc.Op (dst, f) ->
      Array.unsafe_set fr.regs dst (f t.st fr);
      exec t c fr (pc + 1)
  | Bc.OpI (dst, f) ->
      Array.unsafe_set fr.iregs dst (Int64.to_int (Value.as_int (f t.st fr)));
      exec t c fr (pc + 1)
  | Bc.OpF (dst, f) ->
      Array.unsafe_set fr.fregs dst (Value.as_float (f t.st fr));
      exec t c fr (pc + 1)
  | Bc.OpL (dst, f) ->
      (* [as_int] hands back the existing box: no copy *)
      Array.unsafe_set fr.lregs dst (Value.as_int (f t.st fr));
      exec t c fr (pc + 1)
  | Bc.Eff f ->
      f t.st fr;
      exec t c fr (pc + 1)
  | Bc.Jmp p -> exec t c fr p
  | Bc.Cbr (r, pt, pf) ->
      exec t c fr (if Array.unsafe_get fr.iregs r <> 0 then pt else pf)
  | Bc.CbrG (g, pt, pf) ->
      exec t c fr (if Value.as_bool (g fr) then pt else pf)
  | Bc.RetB r -> Array.unsafe_get fr.regs r
  | Bc.RetI r -> Value.I (Int64.of_int (Array.unsafe_get fr.iregs r))
  | Bc.RetF r -> Value.F (Array.unsafe_get fr.fregs r)
  | Bc.RetL r -> Value.I (Array.unsafe_get fr.lregs r)
  | Bc.RetU -> Value.Unit
  | Bc.Par k ->
      let regs = fr.regs and iregs = fr.iregs and fregs = fr.fregs in
      (* all boxed-bank sources (pointer and lane) are read before any
         boxed-bank write: a lane pair may read a slot that a pointer
         pair overwrites, or the old lanes of another lane pair's
         private destination *)
      let n = Array.length k.kb_d in
      for j = 0 to n - 1 do
        Array.unsafe_set k.kb_t j
          (Array.unsafe_get regs (Array.unsafe_get k.kb_s j))
      done;
      let nvi = Array.length k.kvi_d in
      for j = 0 to nvi - 1 do
        let t = Array.unsafe_get k.kvi_t j in
        match Array.unsafe_get regs (Array.unsafe_get k.kvi_s j) with
        | Value.VI x when Bytes.length x = Bytes.length t ->
            Bytes.blit x 0 t 0 (Bytes.length t)
        | v -> Fmt.invalid_arg "Vm.private: %a" Value.pp v
      done;
      let nvf = Array.length k.kvf_d in
      for j = 0 to nvf - 1 do
        let t = Array.unsafe_get k.kvf_t j in
        match Array.unsafe_get regs (Array.unsafe_get k.kvf_s j) with
        | Value.VF x when Array.length x = Array.length t ->
            Array.blit x 0 t 0 (Array.length t)
        | v -> Fmt.invalid_arg "Vm.private: %a" Value.pp v
      done;
      for j = 0 to n - 1 do
        Array.unsafe_set regs (Array.unsafe_get k.kb_d j)
          (Array.unsafe_get k.kb_t j)
      done;
      for j = 0 to nvi - 1 do
        let t = Array.unsafe_get k.kvi_t j in
        match Array.unsafe_get regs (Array.unsafe_get k.kvi_d j) with
        | Value.VI r when Bytes.length r = Bytes.length t ->
            Bytes.blit t 0 r 0 (Bytes.length t)
        | v -> Fmt.invalid_arg "Vm.private: %a" Value.pp v
      done;
      for j = 0 to nvf - 1 do
        let t = Array.unsafe_get k.kvf_t j in
        match Array.unsafe_get regs (Array.unsafe_get k.kvf_d j) with
        | Value.VF r when Array.length r = Array.length t ->
            Array.blit t 0 r 0 (Array.length t)
        | v -> Fmt.invalid_arg "Vm.private: %a" Value.pp v
      done;
      let n = Array.length k.ki_d in
      for j = 0 to n - 1 do
        Array.unsafe_set k.ki_t j
          (Array.unsafe_get iregs (Array.unsafe_get k.ki_s j))
      done;
      for j = 0 to n - 1 do
        Array.unsafe_set iregs (Array.unsafe_get k.ki_d j)
          (Array.unsafe_get k.ki_t j)
      done;
      let n = Array.length k.kf_d in
      for j = 0 to n - 1 do
        Array.unsafe_set k.kf_t j
          (Array.unsafe_get fregs (Array.unsafe_get k.kf_s j))
      done;
      for j = 0 to n - 1 do
        Array.unsafe_set fregs (Array.unsafe_get k.kf_d j)
          (Array.unsafe_get k.kf_t j)
      done;
      let lregs = fr.lregs in
      let n = Array.length k.kl_d in
      for j = 0 to n - 1 do
        Array.unsafe_set k.kl_t j
          (Array.unsafe_get lregs (Array.unsafe_get k.kl_s j))
      done;
      for j = 0 to n - 1 do
        Array.unsafe_set lregs (Array.unsafe_get k.kl_d j)
          (Array.unsafe_get k.kl_t j)
      done;
      exec t c fr (pc + 1)
  | Bc.ParG (gets, dsts) ->
      let vals = Array.map (fun g -> g fr) gets in
      Array.iteri
        (fun j (k, i) ->
          if k = 1 then fr.iregs.(i) <- Int64.to_int (Value.as_int vals.(j))
          else if k = 2 then fr.fregs.(i) <- Value.as_float vals.(j)
          else if k = 3 then fr.lregs.(i) <- Value.as_int vals.(j)
          else fr.regs.(i) <- vals.(j))
        dsts;
      exec t c fr (pc + 1)
  | Bc.TrapI msg -> State.trap "%s" msg

(* -- frame pool -- *)

let fresh_frame (c : Bc.code) : Bc.frame =
  let regs = Array.make (max 1 c.Bc.c_nb) Value.Unit in
  let iregs = Array.make (max 1 c.Bc.c_ni) 0 in
  let fregs = Array.make (max 1 c.Bc.c_nf) 0.0 in
  let lregs = Array.make (max 1 c.Bc.c_nl) 0L in
  List.iter (fun (s, v) -> regs.(s) <- v) c.Bc.c_consts_b;
  (* private vector registers: one array for the frame's lifetime,
     lane-overwritten in place by the defining instruction *)
  Array.iter
    (fun (d, n, isf) ->
      regs.(d) <-
        (if isf then Value.VF (Array.make n 0.0) else Value.VI (Value.ivec n)))
    c.Bc.c_priv;
  List.iter (fun (s, v) -> iregs.(s) <- v) c.Bc.c_consts_i;
  List.iter (fun (s, v) -> fregs.(s) <- v) c.Bc.c_consts_f;
  List.iter (fun (s, v) -> lregs.(s) <- v) c.Bc.c_consts_l;
  let cls = c.Bc.c_cls and idx = c.Bc.c_idx in
  (* class-aware boxed view of the banks, used only by the fallback
     instructions compiled through [State.exec] *)
  let get = function
    | Var v ->
        if v < Array.length cls then begin
          let k = Array.unsafe_get cls v in
          if k = 1 then Value.I (Int64.of_int iregs.(idx.(v)))
          else if k = 2 then Value.F fregs.(idx.(v))
          else if k = 3 then Value.I lregs.(idx.(v))
          else regs.(idx.(v))
        end
        else Value.Unit
    | Const cn -> Bc.box_const cn
  in
  { Bc.regs; iregs; fregs; lregs; get }

let enter t (c : Bc.code) (args : Value.t list) : Value.t =
  let fr =
    match c.Bc.c_pool with
    | fr :: rest ->
        c.Bc.c_pool <- rest;
        fr
    | [] -> fresh_frame c
  in
  let params = c.Bc.c_params in
  let np = Array.length params in
  let cls = c.Bc.c_cls and idx = c.Bc.c_idx in
  let rec bind j remaining =
    match remaining with
    | [] ->
        if j <> np then
          State.trap "call to %s with %d args (expected %d)"
            c.Bc.c_fn.Pir.Func.fname (List.length args) np
    | a :: rest ->
        if j >= np then
          State.trap "call to %s with %d args (expected %d)"
            c.Bc.c_fn.Pir.Func.fname (List.length args) np;
        let p = params.(j) in
        let k = cls.(p) in
        if k = 1 then fr.Bc.iregs.(idx.(p)) <- Int64.to_int (Value.as_int a)
        else if k = 2 then fr.Bc.fregs.(idx.(p)) <- Value.as_float a
        else if k = 3 then fr.Bc.lregs.(idx.(p)) <- Value.as_int a
        else fr.Bc.regs.(idx.(p)) <- a;
        bind (j + 1) rest
  in
  bind 0 args;
  let mark = Memory.mark t.st.mem in
  let result = exec t c fr 0 in
  Memory.release t.st.mem mark;
  (* frames are returned to the pool only on clean exit: after a trap
     the frame is simply dropped (constants are never overwritten, but
     there is no point recycling mid-abort) *)
  c.Bc.c_pool <- fr :: c.Bc.c_pool;
  result

(* -- compilation, memoized per function -- *)

let rec code_of t (f : Pir.Func.t) : Bc.code =
  match Hashtbl.find_opt t.codes f.Pir.Func.fname with
  | Some c when c.Bc.c_fn == f && c.Bc.c_blocks == f.Pir.Func.blocks -> c
  | _ ->
      (* both shapes of callee go through [call]: SPMD-annotated ones
         run one gang on [gangs] (over this VM's state), serial ones
         are compiled lazily on first call and memoized.  Routing
         through [call] also keeps the profiling call tree identical
         under both engines. *)
      let c = Bc.compile ~call:(call t) t.modul f in
      Hashtbl.replace t.codes f.Pir.Func.fname c;
      c

and call t (f : Pir.Func.t) args : Value.t =
  if t.st.profile then begin
    State.prof_push t.st f.Pir.Func.fname;
    match call_body t f args with
    | v ->
        State.prof_pop t.st;
        v
    | exception e ->
        State.prof_pop t.st;
        raise e
  end
  else call_body t f args

and call_body t (f : Pir.Func.t) args : Value.t =
  match f.Pir.Func.spmd with
  | Some _ -> Interp.run_spmd_gang t.gangs f args
  | None -> enter t (code_of t f) args

(** Run function [name] with [args]; returns its result.  Statistics
    are published under the ["vm"] engine label. *)
let run t name args =
  State.run t.st ~engine:"vm" call t (Pir.Func.find_func t.modul name) args

(* -- profiling -- *)

(** Typed profile of everything executed since creation: the entry
    counts of the compiled blocks ([Bc.c_pent]) and of the gangs run on
    [gangs], which one flag ([State.t.profile]) turns on together.
    Note [code_of] recompiles a function (dropping its counters) if it
    is structurally modified between runs — run the passes first, as
    usual. *)
let capture t : Profile.t =
  State.capture t.st ~engine:"vm" (fun row ->
      Interp.entries t.gangs row;
      Hashtbl.iter
        (fun _ (c : Bc.code) ->
          List.iteri
            (fun ix b ->
              row c.Bc.c_fn.Pir.Func.fname b c.Bc.c_pent.(ix) c.Bc.c_pn.(ix)
                c.Bc.c_psums.(ix))
            c.Bc.c_blocks)
        t.codes)
