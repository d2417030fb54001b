(* One benchmark run: the failure ledger, the spans, the collected
   metrics and the final report line. *)

open Pbcore

type t = {
  workload : string;
  seed : int;
  traced : bool;
  tr : Trace.t;  (* spans; recorded only in the traced run *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (* outputs that differ from the reference *)
  mutable errors : string list;  (* exceptions, generation errors, quarantines *)
  mutable metrics : (string * float * string) list;  (* reversed *)
}

let create ~workload ~seed ~traced =
  { workload; seed; traced; tr = Trace.create (); attempted = 0;
    failed = 0; wrong = 0; errors = []; metrics = [] }

(** Human-readable report lines go to stdout, each prefixed "# ". *)
let note fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

let metric c name unit v = c.metrics <- (name, v, unit) :: c.metrics

(** [error c ~ops msg] records an unexpected failure covering [ops]
    operations (an exception, a generation [Error], a quarantine). *)
let error c ~ops msg =
  c.failed <- c.failed + ops;
  c.errors <- msg :: c.errors;
  note "ERROR %s" msg

(** [checked c ~ops ~wrong] accounts [ops] outputs compared with the
    reference, [wrong] of which differed. *)
let checked c ~ops ~wrong =
  c.attempted <- c.attempted + ops;
  c.failed <- c.failed + wrong;
  c.wrong <- c.wrong + wrong

(** [span c ?parent name f] is {!Trace.span} when tracing, [f root]
    otherwise — the untraced run records nothing. *)
let span c ?parent name f =
  if c.traced then Trace.span c.tr ?parent name f else f Trace.root

let wrong_per_million c =
  if c.attempted = 0 then 0.0 else 1e6 *. float_of_int c.wrong /. float_of_int c.attempted

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(** Print the final line: {correct, attempted, failed, metrics}, or exit
    1 when a metric has no value.  [correct] is false when the run hit
    an unexpected failure (exception, generation error, quarantined
    chunk, a percentile without enough samples); outputs that differ
    from the oracle are counted in [failed] and [wrong_per_million]
    either way. *)
let finish c =
  note "attempted %d, failed %d (%d wrong outputs, %d errors), wrong_per_million %.3f"
    c.attempted c.failed c.wrong (List.length c.errors) (wrong_per_million c);
  (* A figure that could not be measured fails the run: no result line. *)
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then begin
        note "ERROR metric %s was not measured" n;
        exit 1
      end)
    c.metrics;
  let ms =
    List.rev_map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      c.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (c.errors = [] && c.attempted > 0)
    (Stdlib.max 1 c.attempted) c.failed (String.concat ", " ms)

(* A growable float buffer for latency samples.  It lives outside the
   OCaml heap (a Bigarray), so the number of samples a run collects —
   which grows with the library's speed — does not move the heap
   figure. *)
module Fbuf = struct
  module A = Bigarray.Array1

  type t = { mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t; mutable n : int }

  let create () = { a = A.create Bigarray.float64 Bigarray.c_layout 4096; n = 0 }

  let push b v =
    if b.n = A.dim b.a then begin
      let a = A.create Bigarray.float64 Bigarray.c_layout (2 * b.n) in
      A.blit b.a (A.sub a 0 b.n);
      b.a <- a
    end;
    A.unsafe_set b.a b.n v;
    b.n <- b.n + 1

  let get b k = A.get b.a k

  (** Samples [first, last) as a plain array. *)
  let sub b ~first ~last = Array.init (last - first) (fun i -> A.get b.a (first + i))
end

(** Median and tail percentile of per-call latency samples in [unit],
    noted with their sample counts; a tail with too few samples is a
    run error. *)
let latency c ~unit samples =
  let s = Quantile.sorted_copy samples in
  let get q =
    match Quantile.of_sorted s q with
    | Ok p ->
        note "p%g %.3f %s over %d micro-block samples (%d beyond)" (q *. 100.0) p.value unit
          p.samples p.beyond;
        p.value
    | Error e ->
        error c ~ops:0 e;
        Float.nan
  in
  let p50 = get 0.50 in
  let p99 = get 0.99 in
  (p50, p99)
