(* Per-layer probes of the traced run: each times one public entry point
   over inputs drawn from the workload's own functions, in micro-blocks
   wrapped by spans. *)

open Pbcore
module G = Rlibm.Generator
module K = Serve.Kernel

(* Every k-th element of [a], at most [cap] of them. *)
let thin cap a =
  let n = Array.length a in
  if n <= cap then a else Array.init cap (fun i -> a.(i * (n / cap)))

let time_block c ~parent name f =
  let t0 = Clock.now_ns () in
  Ctx.span c ~parent name (fun _ -> f ());
  Clock.now_ns () - t0

type gen_replay = { calls : int; sampled : int; oracle_ns : int; interval_ns : int; deduce_ns : int }

(** Replay generation's per-input stage — oracle, rounding interval
    (Alg. 1), reduced interval (Alg. 2) — over up to [cap] non-special
    inputs of the function's own enumeration.  [calls] counts the
    oracle calls the whole enumeration costs generation. *)
let gen_replay c ~parent ~cap (f : Inputs.fn) (g : G.generated) =
  let spec = g.spec in
  let module T = (val spec.repr : Fp.Representation.S) in
  let enum = Funcs.Libm.enumeration f.target Funcs.Libm.Full in
  let live = List.filter (fun p -> spec.special p = None) (Array.to_list enum) |> Array.of_list in
  let pats = thin cap live in
  let ys = Array.make (Array.length pats) 0 in
  let ivs = Array.make (Array.length pats) (Rlibm.Rounding.closed 0.0 0.0) in
  let oracle_ns =
    time_block c ~parent ("oracle.gen:" ^ f.label) (fun () ->
        Array.iteri
          (fun i p ->
            ys.(i) <-
              Oracle.Elementary.correctly_rounded ~round:(T.round_rational ~mode:spec.mode) spec.oracle
                (T.to_rational p))
          pats)
  in
  let interval_ns =
    time_block c ~parent ("rounding.interval:" ^ f.label) (fun () ->
        Array.iteri (fun i y -> ivs.(i) <- Rlibm.Rounding.interval spec.repr ~mode:spec.mode y) ys)
  in
  let deduce_ns =
    time_block c ~parent ("reduced.deduce:" ^ f.label) (fun () ->
        Array.iteri (fun i p -> ignore (Rlibm.Reduced.deduce spec ~pattern:p ~interval:ivs.(i))) pats)
  in
  { calls = Array.length live; sampled = Array.length pats; oracle_ns; interval_ns; deduce_ns }

(** Time the Ziv oracle alone over up to [cap] of the sweep's
    non-special inputs: the per-call cost certification escalates to. *)
let certify_oracle c ~parent ~cap (f : Inputs.fn) (g : G.generated) (inputs : int array) =
  let spec = g.spec in
  let module T = (val spec.repr : Fp.Representation.S) in
  let pats =
    thin cap (Array.of_list (List.filter (fun p -> spec.special p = None) (Array.to_list inputs)))
  in
  let ns =
    time_block c ~parent ("oracle.certify:" ^ f.label) (fun () ->
        Array.iter
          (fun p ->
            ignore
              (Oracle.Elementary.correctly_rounded ~round:(T.round_rational ~mode:spec.mode)
                 spec.oracle (T.to_rational p)))
          pats)
  in
  (Array.length pats, ns)

(** [round_bits] over the compensated doubles the plan's fast path
    produces for [inputs], under the plan's own mode.  Returns (calls,
    ns). *)
let round_bits c ~parent (f : Inputs.fn) (p : K.plan) (inputs : int array) =
  let s = K.scratch () in
  let his = ref [] and los = ref [] in
  Array.iter
    (fun pat ->
      let aux = K.stage1 p s pat in
      if aux >= 0 then begin
        Array.iteri (fun k pc -> K.eval_piece pc s (k + 1)) p.pieces;
        ignore (K.compose p s aux);
        let yb = Int64.bits_of_float s.(3) in
        his := Int64.to_int (Int64.shift_right_logical yb 32) :: !his;
        los := Int64.to_int (Int64.logand yb 0xFFFF_FFFFL) :: !los
      end)
    inputs;
  let hi = Array.of_list !his and lo = Array.of_list !los in
  let sink = ref 0 in
  let ns =
    time_block c ~parent ("kernel.round_bits:" ^ f.label) (fun () ->
        for i = 0 to Array.length hi - 1 do
          sink := !sink lxor K.round_bits p p.mode hi.(i) lo.(i)
        done)
  in
  ignore (Sys.opaque_identity !sink);
  (Array.length hi, ns)

(** The plan's scalar fallback over the format's edge pool, repeated to
    [n] calls.  Returns (calls, ns). *)
let fallback_edges c ~parent (f : Inputs.fn) (p : K.plan) ~n =
  let pool = Inputs.edge_pool f.fmt in
  let pats = Array.init n (fun i -> pool.(i mod Array.length pool)) in
  let sink = ref 0 in
  let ns =
    time_block c ~parent ("kernel.fallback.edges:" ^ f.label) (fun () ->
        Array.iter (fun pat -> sink := !sink lxor p.fallback pat) pats)
  in
  ignore (Sys.opaque_identity !sink);
  (n, ns)

(** The compiled scalar closure over [inputs].  Returns (calls, ns). *)
let scalar c ~parent (f : Inputs.fn) (g : G.generated) (inputs : int array) =
  let fn = G.compile g in
  let sink = ref 0 in
  let ns =
    time_block c ~parent ("generator.scalar:" ^ f.label) (fun () ->
        Array.iter (fun pat -> sink := !sink lxor fn pat) inputs)
  in
  ignore (Sys.opaque_identity !sink);
  (Array.length inputs, ns)
