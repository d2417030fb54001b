(* Nearest-rank percentiles with the tail-sample rule: a percentile is
   reported only when at least [min_beyond] samples lie strictly above
   its rank, so a p99 never rests on one or two outliers. *)

let min_beyond = 10

(** [rank ~n q] is the 1-based nearest rank of quantile [q] among [n]
    sorted samples: ceil(q * n), clamped to [1, n]. *)
let rank ~n q =
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  if r < 1 then 1 else if r > n then n else r

(** Samples ranked above the [q] percentile. *)
let beyond ~n q = n - rank ~n q

(** Smallest sample count whose [q] percentile has [min_beyond] samples
    beyond it. *)
let min_samples q =
  let n = ref 1 in
  while beyond ~n:!n q < min_beyond do
    incr n
  done;
  !n

type t = { q : float; value : float; samples : int; beyond : int }

(** [of_sorted sorted q] is the [q] percentile of an ascending array, or
    an error naming the shortfall when too few samples lie beyond it. *)
let of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then Error (Printf.sprintf "p%g: no samples" (q *. 100.0))
  else
    let b = beyond ~n q in
    if b < min_beyond then
      Error
        (Printf.sprintf "p%g: %d samples leave %d beyond it (need %d, i.e. >= %d samples)"
           (q *. 100.0) n b min_beyond (min_samples q))
    else Ok { q; value = sorted.(rank ~n q - 1); samples = n; beyond = b }

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n land 1 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
