(** Dominance-based SSA validity: every use must be dominated by its
    definition, and a phi's incoming value must dominate the end of its
    predecessor.  This is the only home of that rule; [Pir.Verifier]
    performs the local checks and reachability. *)

type def_site = Param | At of string * int  (* block, instruction index *)

let def_sites (f : Pir.Func.t) =
  let h = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace h v Param) f.params;
  List.iter
    (fun (b : Pir.Func.block) ->
      List.iteri
        (fun idx (i : Pir.Instr.instr) -> Hashtbl.replace h i.id (At (b.bname, idx)))
        b.instrs)
    f.blocks;
  h

let verify_ssa (f : Pir.Func.t) : (unit, string list) result =
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let defs = def_sites f in
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let dominates_use v ~use_block ~use_idx =
    match Hashtbl.find_opt defs v with
    | None -> false
    | Some Param -> true
    | Some (At (db, di)) ->
        if db = use_block then di < use_idx
        else Dom.dominates dom db use_block && db <> use_block
  in
  let dominates_block_end v block =
    match Hashtbl.find_opt defs v with
    | None -> false
    | Some Param -> true
    | Some (At (db, _)) -> Dom.dominates dom db block
  in
  List.iter
    (fun (b : Pir.Func.block) ->
      if Cfg.reachable cfg b.bname then begin
        List.iteri
          (fun idx (i : Pir.Instr.instr) ->
            match i.op with
            | Pir.Instr.Phi incoming ->
                List.iter
                  (fun (l, v) ->
                    match v with
                    | Pir.Instr.Var v when not (dominates_block_end v l) ->
                        err
                          "%s/%s: phi %%%d incoming %%%d does not dominate the \
                           end of pred %s"
                          f.fname b.bname i.id v l
                    | _ -> ())
                  incoming
            | op ->
                List.iter
                  (fun v ->
                    if not (dominates_use v ~use_block:b.bname ~use_idx:idx) then
                      err "%s/%s: use of %%%d in %%%d not dominated by def"
                        f.fname b.bname v i.id)
                  (Pir.Instr.uses_of_op op))
          b.instrs;
        List.iter
          (fun (o : Pir.Instr.operand) ->
            match o with
            | Pir.Instr.Var v
              when not
                     (dominates_use v ~use_block:b.bname
                        ~use_idx:(List.length b.instrs)) ->
                err "%s/%s: terminator use of %%%d not dominated" f.fname b.bname v
            | _ -> ())
          (Pir.Instr.operands_of_term b.term)
      end)
    f.blocks;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

(** Full check: local verifier + SSA dominance.  Raises on failure. *)
let check_func (f : Pir.Func.t) =
  Pir.Verifier.check_func f;
  match verify_ssa f with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Fmt.str "SSA check failed for %s:@.%a@.%a" f.fname
           Fmt.(list ~sep:(any "@.") string)
           es Pir.Printer.pp_func f)

let check_module (m : Pir.Func.modul) =
  Pobs.Trace.with_span ~cat:"pass" "check" (fun () ->
      List.iter check_func m.funcs)
