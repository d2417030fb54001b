(* Seeded input generation: splitmix64, the generator Serve.Workload
   uses, so a seed names one exact input array. *)

type t = int64 ref

let make seed : t = ref (Int64.of_int seed)

let next64 (st : t) =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** 62 uniform non-negative bits. *)
let bits (st : t) = Int64.to_int (Int64.shift_right_logical (next64 st) 2)

(** Uniform in [0, n). *)
let below st n = bits st mod n

(** [pattern_in st ~lo ~hi ~sign] draws a pattern whose magnitude bits
    are uniform in [lo, hi); [sign] is the format's sign bit, set on
    half the draws, or 0 for one-signed domains. *)
let pattern_in st ~lo ~hi ~sign =
  let m = lo + below st (hi - lo) in
  if sign <> 0 && bits st land 1 = 1 then m lor sign else m

(** [fill n f] is the array [f 0 ... f (n-1)], evaluated in order (so a
    generator threaded through [f] is consumed deterministically). *)
let fill n f =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a
