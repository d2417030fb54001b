(* Time windows of a serving run.  A closed loop records its rounds in
   fixed-length windows.  Each window also holds the time the host-speed
   yardstick (see perfbench/yardstick.ml) took on the same inputs in the
   same window, so every sample can be read in yardstick units: a
   slowdown of the host that lasts longer than a round stretches both. *)

type t = {
  first : int;  (* index of the window's first latency sample *)
  last : int;  (* one past its last sample *)
  calls : int;
  ns : int;  (* timed nanoseconds *)
  ref_calls : int;  (* yardstick calls in the window *)
  ref_ns : int;  (* their timed nanoseconds *)
}

(** Yardstick nanoseconds per call in the window. *)
let ref_per_call w = float_of_int w.ref_ns /. float_of_int w.ref_calls

(** Timed nanoseconds per call, in yardstick calls. *)
let cost w = float_of_int w.ns /. float_of_int w.calls /. ref_per_call w

(** [median f ws] is the median of [f w] over the windows where it is
    defined, or [None] when it is defined nowhere. *)
let median f ws =
  match List.filter_map f ws with
  | [] -> None
  | vs -> Some (Quantile.median (Array.of_list vs))

(** [unit_medians ~units value ws]: the loop cycles through [units]
    distinct rounds, so latency sample [k] is of round [k mod units].
    Returns, for every round that has samples, the median of
    [value w k] over its samples [k] (in their windows [w]).  A burst of
    contention then moves a repetition, not a round; what is left is the
    spread of cost between rounds. *)
let unit_medians ~units (value : t -> int -> float) ws =
  let reps = Array.make units [] in
  List.iter
    (fun w ->
      for k = w.first to w.last - 1 do
        reps.(k mod units) <- value w k :: reps.(k mod units)
      done)
    ws;
  Array.to_list reps
  |> List.filter_map (function [] -> None | l -> Some (Quantile.median (Array.of_list l)))
  |> Array.of_list
