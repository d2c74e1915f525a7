(** Control-flow graph utilities over PIR functions: predecessor maps,
    reverse postorder, and reachability. *)

type t = {
  func : Pir.Func.t;
  blocks : (string, Pir.Func.block) Hashtbl.t;
  succs : (string, string list) Hashtbl.t;
  preds : (string, string list) Hashtbl.t;
  rpo : string list;  (** reverse postorder over reachable blocks *)
  reached : (string, unit) Hashtbl.t;  (** the blocks in [rpo] *)
}

let block t name = Hashtbl.find t.blocks name
let succs t name = Option.value ~default:[] (Hashtbl.find_opt t.succs name)
let preds t name = Option.value ~default:[] (Hashtbl.find_opt t.preds name)
let entry t = (Pir.Func.entry t.func).bname

let build (f : Pir.Func.t) : t =
  let blocks = Hashtbl.create 16 in
  List.iter (fun (b : Pir.Func.block) -> Hashtbl.replace blocks b.bname b) f.blocks;
  let succs = Hashtbl.create 16 in
  let preds = Hashtbl.create 16 in
  List.iter
    (fun (b : Pir.Func.block) ->
      let ss = Pir.Func.successors b in
      Hashtbl.replace succs b.bname ss;
      List.iter
        (fun s ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt preds s) in
          Hashtbl.replace preds s (cur @ [ b.bname ]))
        ss)
    f.blocks;
  (* postorder DFS from entry *)
  let visited = Hashtbl.create 16 in
  let po = ref [] in
  let rec dfs name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      List.iter dfs (Option.value ~default:[] (Hashtbl.find_opt succs name));
      po := name :: !po
    end
  in
  (match f.blocks with [] -> () | b :: _ -> dfs b.bname);
  { func = f; blocks; succs; preds; rpo = !po; reached = visited }

let reachable t name = Hashtbl.mem t.reached name

(** Back edges [(src, dst)] where [dst] occurs no later than [src] in RPO
    and [dst] dominates [src] is checked by callers via [Dom]. *)
let edges t =
  List.concat_map (fun n -> List.map (fun s -> (n, s)) (succs t n)) t.rpo
