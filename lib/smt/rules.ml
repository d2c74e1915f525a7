(** Conditional shape-transformation rules (paper §4.2.2).

    A rule answers: given an integer operation [op a b] where each
    operand is an *indexed* value — a scalar base (about which [Facts]
    are known) plus compile-time per-lane offsets — can the result also
    be treated as indexed, with the transformed function applying the
    same operation to the bases?

    Formally, a rule is sound iff for every lane [i]:

      [op (base_a + offA.(i)) (base_b + offB.(i))
         = op (base_a, base_b) + offR.(i)]   (mod 2^w)

    whenever the operand facts hold.  [Verify] model-checks exactly this
    identity for every rule (the "offline phase" of the paper's
    two-phase validation); at compile time shape analysis only evaluates
    the cheap [apply] preconditions (the "online phase").

    Uniform values are indexed values with all-zero offsets, so the rules
    subsume uniform/uniform and uniform/strided combinations. *)

type arg = {
  offsets : int64 array;  (** per-lane compile-time offsets *)
  facts : Facts.t;  (** facts about the scalar base *)
}

type rule = {
  name : string;
  op : Pir.Instr.ibin;
  apply : w:int -> arg -> arg -> int64 array option;
      (** [Some offsets] when the preconditions hold; offsets are
          canonical at width [w] *)
}

let all_zero o = Array.for_all (fun x -> x = 0L) o
let all_in_pow2 w o k = Array.for_all (fun x -> Pir.Ints.ucompare w x (Pir.Ints.shl w 1L (Int64.of_int k)) < 0) o
let all_aligned o k = Array.for_all (fun x -> Facts.ctz64 x >= k) o

let map2 w f a b = Array.init (Array.length a) (fun i -> Pir.Ints.norm w (f a.(i) b.(i)))
let map_ w f a = Array.map (fun x -> Pir.Ints.norm w (f x)) a

let max_offset w o =
  Array.fold_left (fun acc x -> if Pir.Ints.ucompare w acc x >= 0 then acc else x) 0L o

let pow2_exponent w c =
  (* c = 2^k for some 0 <= k < w? *)
  let k = Facts.ctz64 c in
  if k < w && Pir.Ints.norm w c = Pir.Ints.shl w 1L (Int64.of_int k) then Some k
  else None

let low_mask_exponent w c =
  (* c = 2^k - 1? *)
  let c1 = Pir.Ints.add w c 1L in
  pow2_exponent w c1

let high_mask_exponent w c =
  (* c = ~(2^k - 1) at width w, i.e. -2^k: the paper's "uniform negative
     power of two" *)
  let notc = Pir.Ints.lognot w c in
  low_mask_exponent w notc |> Option.map (fun k -> k)

let const_of (b : arg) = if all_zero b.offsets then b.facts.Facts.const else None

let rules : rule list =
  [
    {
      name = "add.indexed";
      op = Pir.Instr.Add;
      (* (ba + oa) + (bb + ob) = (ba + bb) + (oa + ob) : unconditional *)
      apply = (fun ~w a b -> Some (map2 w Int64.add a.offsets b.offsets));
    };
    {
      name = "sub.indexed";
      op = Pir.Instr.Sub;
      apply = (fun ~w a b -> Some (map2 w Int64.sub a.offsets b.offsets));
    };
    {
      name = "mul.const";
      op = Pir.Instr.Mul;
      (* (ba + oa) * cb = ba*cb + oa*cb when cb is a uniform constant *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c -> Some (map_ w (fun o -> Int64.mul o c) a.offsets)
          | None -> None);
    };
    {
      name = "mul.const.lhs";
      op = Pir.Instr.Mul;
      apply =
        (fun ~w a b ->
          match const_of a with
          | Some c -> Some (map_ w (fun o -> Int64.mul o c) b.offsets)
          | None -> None);
    };
    {
      name = "mul.both_const_bases";
      op = Pir.Instr.Mul;
      (* the paper's example: indexed x indexed is interpretable only when
         both bases are compile-time constants *)
      apply =
        (fun ~w a b ->
          match (a.facts.Facts.const, b.facts.Facts.const) with
          | Some ca, Some cb ->
              Some
                (map2 w
                   (fun oa ob ->
                     Int64.add
                       (Int64.add (Int64.mul oa cb) (Int64.mul ob ca))
                       (Int64.mul oa ob))
                   a.offsets b.offsets)
          | _ -> None);
    };
    {
      name = "shl.const";
      op = Pir.Instr.Shl;
      (* (ba + oa) << c = (ba << c) + (oa << c) : c uniform const < w *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c when Int64.unsigned_compare c (Int64.of_int w) < 0 ->
              Some (map_ w (fun o -> Pir.Ints.shl w o c) a.offsets)
          | _ -> None);
    };
    {
      name = "and.high_mask";
      op = Pir.Instr.And;
      (* (ba + oa) & ~(2^k - 1) = (ba & ~(2^k -1)) + 0  when ba is a
         multiple of 2^k and 0 <= oa < 2^k — the paper's logical-AND
         example (§4.2.2) *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c -> (
              match high_mask_exponent w c with
              | Some k
                when Facts.align_at_least a.facts k && all_in_pow2 w a.offsets k ->
                  Some (Array.map (fun _ -> 0L) a.offsets)
              | _ -> None)
          | None -> None);
    };
    {
      name = "and.low_mask";
      op = Pir.Instr.And;
      (* (ba + oa) & (2^k - 1) = (ba & (2^k - 1)) + oa  when ba is a
         multiple of 2^k and 0 <= oa < 2^k (the base term is zero) *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c -> (
              match low_mask_exponent w c with
              | Some k
                when Facts.align_at_least a.facts k && all_in_pow2 w a.offsets k ->
                  Some a.offsets
              | _ -> None)
          | None -> None);
    };
    {
      name = "or.disjoint";
      op = Pir.Instr.Or;
      (* (ba + oa) | c = (ba | c) + oa  when c < 2^k, ba multiple of 2^k,
         and every oa is a multiple of 2^k: the OR cannot carry *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c ->
              let k = (* smallest k with c < 2^k *)
                let rec go k = if Pir.Ints.ucompare w c (Pir.Ints.shl w 1L (Int64.of_int k)) < 0 || k >= w then k else go (k + 1) in
                go 0
              in
              if Facts.align_at_least a.facts k && all_aligned a.offsets k && k < w
              then Some a.offsets
              else None
          | None -> None);
    };
    {
      name = "xor.disjoint";
      op = Pir.Instr.Xor;
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c ->
              let k =
                let rec go k = if Pir.Ints.ucompare w c (Pir.Ints.shl w 1L (Int64.of_int k)) < 0 || k >= w then k else go (k + 1) in
                go 0
              in
              if Facts.align_at_least a.facts k && all_aligned a.offsets k && k < w
              then Some a.offsets
              else None
          | None -> None);
    };
    {
      name = "lshr.aligned";
      op = Pir.Instr.LShr;
      (* (ba + oa) >> k = (ba >> k) + (oa >> k) when ba and all oa are
         multiples of 2^k and ba + oa cannot wrap (caught by the offline
         model check: 0xF0 + 0x10 wraps to 0 at 8 bits) *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some s when Int64.unsigned_compare s (Int64.of_int w) < 0 ->
              let k = Int64.to_int s in
              let max_off = max_offset w a.offsets in
              if
                Facts.align_at_least a.facts k
                && all_aligned a.offsets k
                && Facts.max_plus_fits a.facts max_off w
              then Some (map_ w (fun o -> Pir.Ints.lshr w o s) a.offsets)
              else None
          | _ -> None);
    };
    {
      name = "udiv.pow2";
      op = Pir.Instr.UDiv;
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c -> (
              match pow2_exponent w c with
              | Some k
                when Facts.align_at_least a.facts k
                     && all_aligned a.offsets k
                     && Facts.max_plus_fits a.facts (max_offset w a.offsets) w ->
                  Some (map_ w (fun o -> Pir.Ints.lshr w o (Int64.of_int k)) a.offsets)
              | _ -> None)
          | None -> None);
    };
    {
      name = "urem.pow2";
      op = Pir.Instr.URem;
      (* (ba + oa) % 2^k = (ba % 2^k) + oa when ba is a multiple of 2^k
         and 0 <= oa < 2^k *)
      apply =
        (fun ~w a b ->
          match const_of b with
          | Some c -> (
              match pow2_exponent w c with
              | Some k
                when Facts.align_at_least a.facts k && all_in_pow2 w a.offsets k ->
                  Some a.offsets
              | _ -> None)
          | None -> None);
    };
    {
      name = "umin.same_offsets";
      op = Pir.Instr.UMin;
      (* umin(ba + o, bb + o) = umin(ba, bb) + o when offsets are equal
         and neither addition wraps *)
      apply =
        (fun ~w a b ->
          let max_off =
            Array.fold_left
              (fun acc o -> if Pir.Ints.ucompare w acc o >= 0 then acc else o)
              0L a.offsets
          in
          if
            a.offsets = b.offsets
            && Facts.max_plus_fits a.facts max_off w
            && Facts.max_plus_fits b.facts max_off w
          then Some a.offsets
          else None);
    };
    {
      name = "umax.same_offsets";
      op = Pir.Instr.UMax;
      apply =
        (fun ~w a b ->
          let max_off =
            Array.fold_left
              (fun acc o -> if Pir.Ints.ucompare w acc o >= 0 then acc else o)
              0L a.offsets
          in
          if
            a.offsets = b.offsets
            && Facts.max_plus_fits a.facts max_off w
            && Facts.max_plus_fits b.facts max_off w
          then Some a.offsets
          else None);
    };
  ]

(* the rules of each opcode, in [rules] order; built once *)
let by_op : (Pir.Instr.ibin * rule list) list =
  List.sort_uniq compare (List.map (fun r -> r.op) rules)
  |> List.map (fun op -> (op, List.filter (fun r -> r.op = op) rules))

(** First rule that fires for [op a b] at width [w]. *)
let try_apply ~w op a b =
  match List.assoc_opt op by_op with
  | None -> None
  | Some rs -> List.find_map (fun r -> Option.map (fun o -> (r.name, o)) (r.apply ~w a b)) rs
