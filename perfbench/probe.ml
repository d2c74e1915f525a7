(** Host-speed probe.

    This VM's host runs in phases of different speed that last from
    about a second to minutes: the same kernel run can take 35 ms in one
    phase and 57 ms in the next.  The probe is a fixed piece of work that
    uses no repository code, so its time tracks only the host, and
    [Meter] reports each timing at reference host speed by dividing it
    by (probe time / reference probe time) ^ elasticity.

    The probe is an unpredictable 8-way dispatch loop: interpreter-like
    code, as in the VM, the passes and the prover.  A pointer chase over
    a preallocated permutation and a shift/xor ALU chain were measured
    as well and left out: over 1-second windows of VM and compile work
    they tracked the host worse (spec.json, "host_noise").

    The probe must not allocate: an allocating probe would pay GC
    slices whose cost grows with the heap of the program around it. *)

let iters = 300_000

(* results land here so the loop is not dead code *)
let sink = ref 0

(** One probe; returns its duration in nanoseconds. *)
let run () =
  let t0 = Clock.now () in
  let s = ref 12345 and acc = ref 0 in
  for _ = 1 to iters do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    match (!s lsr 13) land 7 with
    | 0 -> acc := !acc + 1
    | 1 -> acc := !acc - 3
    | 2 -> acc := !acc lxor !s
    | 3 -> acc := !acc * 3
    | 4 -> acc := !acc lsr 1
    | 5 -> acc := !acc + !s
    | 6 -> acc := !acc land 0xFFFF
    | _ -> acc := !acc lor 5
  done;
  sink := !sink + !acc;
  Clock.now () - t0
