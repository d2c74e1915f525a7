(** Execution-engine selector: the tree-walking interpreter or the
    register VM behind one interface.

    Both engines consume the same [Cost.schedule_func] output and
    charge it in the same order, so for any program they produce
    bit-identical results, cycle totals and statistics; the VM is just
    faster.  The interpreter remains the differential oracle.  Both
    engines attribute per-block cycles/instructions and maintain the
    same call tree when created with [~profile:true]; [profile]
    captures the typed [Profile.t] either one produced, and the rows
    must agree across engines bit for bit (the fuzz oracle and
    [test/suite_vm.ml] enforce this). *)

type kind = Interp | Vm

let kind_of_string = function
  | "interp" -> Some Interp
  | "vm" -> Some Vm
  | _ -> None

let kind_to_string = function Interp -> "interp" | Vm -> "vm"

let all_kinds = [ Interp; Vm ]

type t = I of Interp.t | V of Vm.t

(** [profile] enables per-block cycle attribution (both engines). *)
let create ?(kind = Vm) ?mem ?fuel ?profile modul =
  match kind with
  | Interp -> I (Interp.create ?mem ?fuel ?profile modul)
  | Vm -> V (Vm.create ?mem ?fuel ?profile modul)

let kind = function I _ -> Interp | V _ -> Vm

let run t name args =
  match t with
  | I it -> Interp.run it name args
  | V vm -> Vm.run vm name args

let stats = function I it -> Interp.stats it | V vm -> Vm.stats vm

let mem = function I it -> Interp.mem it | V vm -> Vm.mem vm

(** Capture the typed profile of everything executed so far.  Only
    meaningful when the engine was created with [~profile:true];
    otherwise the profile is empty. *)
let profile = function
  | I it -> Interp.capture it
  | V vm -> Vm.capture vm
