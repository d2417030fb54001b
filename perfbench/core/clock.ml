(* The one clock every benchmark timing reads: CLOCK_MONOTONIC through
   bechamel's stub, in integer nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns *. 1e-9
