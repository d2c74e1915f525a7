(** Monotonic nanosecond clock.  The stub is unboxed and [noalloc], so
    reading the clock never allocates: the host probe and the per-op
    allocation counts stay exact. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_ns ())
let ms ns = float_of_int ns /. 1e6
let s ns = float_of_int ns /. 1e9
