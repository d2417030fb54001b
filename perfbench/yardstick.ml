(* The host-speed yardstick.  A shared virtual machine runs other
   tenants' work, which slows this benchmark's code by up to ~2x for
   stretches from a fraction of a second to minutes, so absolute times
   of the same code spread more from run to run than a regression bound
   can allow.  Every timing is therefore also measured against the
   system libm on the same inputs, interleaved with the timed work: the
   paper's "repurposed double" comparator (Baselines.Double_libm:
   convert to double, call glibc's double function, round back).  Its
   code never changes with the library, and the host's slowdowns
   stretch it and the library alike, so a time in yardstick calls stays
   put where the nanoseconds move. *)

open Pbcore

type t = int -> int

let make (f : Inputs.fn) : t = Baselines.Double_libm.eval f.fmt f.name

(** [time ys srcs dst] evaluates yardstick [ys.(k)] over [srcs.(k)],
    writing to [dst] (at least as long as each), and returns (calls,
    ns). *)
let time (ys : t array) (srcs : int array array) (dst : int array) =
  let t0 = Clock.now_ns () in
  Array.iteri
    (fun k src ->
      let y = ys.(k) in
      for i = 0 to Array.length src - 1 do
        dst.(i) <- y src.(i)
      done)
    srcs;
  let t1 = Clock.now_ns () in
  (Array.fold_left (fun a s -> a + Array.length s) 0 srcs, t1 - t0)
