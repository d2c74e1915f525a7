(** Convenience layer for constructing PIR functions.

    A builder owns an open block; every emitter appends to it and
    returns the operand naming the new value.  Result types are inferred
    from the operands where the operation determines them, and must be
    supplied explicitly otherwise (loads, casts, calls).

    Emission is constant-time: the builder holds the open block's new
    instructions and the blocks it adds.  A block is complete once the
    builder leaves it ([position], [current], [take]); the function is
    complete after [finish]. *)

type t

val create : ?entry:string -> Func.t -> t
(** A builder that appends blocks to [func], starting with a block named
    [entry] (default ["entry"]: the entry block of an empty function),
    which it enters. *)

val detached : Func.t -> t
(** A builder whose open block belongs to no function: emitters still
    number and type their values in [func], and [take] collects what they
    emitted. *)

val finish : t -> unit
(** Complete the open block and append the added blocks to the function,
    in the order they were added. *)

val add_block : t -> string -> Func.block
(** A fresh (empty, [Unreachable]-terminated) block, appended at
    [finish]. *)

val fresh_block : t -> string -> Func.block
(** [add_block] under a uniquely numbered name. *)

val position : t -> Func.block -> unit
(** Complete the open block and open [b]: emitters append after its
    instructions. *)

val current : t -> Func.block
(** The open block, completed. *)

val take : t -> Instr.instr list
(** The open block's instructions, in order; the block is left empty. *)

val add_incoming : t -> Func.block -> int -> (string * Instr.operand) list -> unit
(** Append incomings to phi [id] of [blk]: a loop header's phi, emitted
    before its latch existed. *)

val ty_of : t -> Instr.operand -> Types.t

val append : t -> Instr.instr -> unit
(** Append an instruction whose value is already numbered and typed. *)

val ins : t -> Types.t -> Instr.op -> Instr.operand
(** Append an instruction with result type [ty]; returns its value. *)

val ins_unit : t -> Instr.op -> unit
(** Append a side-effect-only instruction (result [Void]). *)

(** {1 Terminators of the open block} *)

val set_term : t -> Instr.terminator -> unit
val br : t -> string -> unit
val condbr : t -> Instr.operand -> string -> string -> unit
val ret : t -> Instr.operand option -> unit
val ret_void : t -> unit

(** {1 Typed helpers} *)

val ibin : t -> Instr.ibin -> Instr.operand -> Instr.operand -> Instr.operand
val fbin : t -> Instr.fbin -> Instr.operand -> Instr.operand -> Instr.operand
val iun : t -> Instr.iun -> Instr.operand -> Instr.operand
val fun_ : t -> Instr.fun_ -> Instr.operand -> Instr.operand
val add : t -> Instr.operand -> Instr.operand -> Instr.operand
val sub : t -> Instr.operand -> Instr.operand -> Instr.operand
val mul : t -> Instr.operand -> Instr.operand -> Instr.operand
val and_ : t -> Instr.operand -> Instr.operand -> Instr.operand
val or_ : t -> Instr.operand -> Instr.operand -> Instr.operand
val xor : t -> Instr.operand -> Instr.operand -> Instr.operand
val shl : t -> Instr.operand -> Instr.operand -> Instr.operand
val lshr : t -> Instr.operand -> Instr.operand -> Instr.operand
val ashr : t -> Instr.operand -> Instr.operand -> Instr.operand
val fadd : t -> Instr.operand -> Instr.operand -> Instr.operand
val fsub : t -> Instr.operand -> Instr.operand -> Instr.operand
val fmul : t -> Instr.operand -> Instr.operand -> Instr.operand
val fdiv : t -> Instr.operand -> Instr.operand -> Instr.operand
val not_ : t -> Instr.operand -> Instr.operand
val icmp : t -> Instr.ipred -> Instr.operand -> Instr.operand -> Instr.operand
val fcmp : t -> Instr.fpred -> Instr.operand -> Instr.operand -> Instr.operand
val select : t -> Instr.operand -> Instr.operand -> Instr.operand -> Instr.operand
val cast : t -> Instr.cast_kind -> Instr.operand -> Types.t -> Instr.operand
val alloca : t -> Types.scalar -> int -> Instr.operand
val load : t -> Instr.operand -> Instr.operand
val store : t -> Instr.operand -> Instr.operand -> unit
val gep : t -> Instr.operand -> Instr.operand -> Instr.operand
val call : t -> Types.t -> string -> Instr.operand list -> Instr.operand
val call_unit : t -> string -> Instr.operand list -> unit
val phi : t -> Types.t -> (string * Instr.operand) list -> Instr.operand

(** {1 Vector helpers} *)

val splat : t -> Instr.operand -> int -> Instr.operand
val vload : t -> ?mask:Instr.operand -> Instr.operand -> int -> Instr.operand
val vstore : t -> ?mask:Instr.operand -> Instr.operand -> Instr.operand -> unit

val gather :
  t -> ?mask:Instr.operand -> Instr.operand -> Instr.operand -> Instr.operand

val scatter :
  t -> ?mask:Instr.operand -> Instr.operand -> Instr.operand -> Instr.operand -> unit

val shuffle : t -> Instr.operand -> Instr.operand -> int array -> Instr.operand
val shuffle_dyn : t -> Instr.operand -> Instr.operand -> Instr.operand
val extract : t -> Instr.operand -> Instr.operand -> Instr.operand
val insert : t -> Instr.operand -> Instr.operand -> Instr.operand -> Instr.operand
val reduce : t -> Instr.reduce_kind -> Instr.operand -> Instr.operand
val first_lane : t -> Instr.operand -> Instr.operand
val psadbw : t -> Instr.operand -> Instr.operand -> Instr.operand
