(* The oracle's fast phase against Ziv's loop alone, with zero tolerance.

   For every input: the fast phase's enclosure must contain the
   function's value (a 240-bit evaluation), and the two-phase oracle must
   return what Ziv's loop alone returns in all five standard rounding
   modes — through [round] and through the double-level [round_double]
   the hot callers pass.  Ziv's loop alone is reached by wrapping the
   function, which hides it from the fast phase.  It runs once per input
   with a rounding function that returns all five modes' results at
   once: monotone in each component, so it settles exactly when every
   mode has.

   Default (`dune runtest`): every 64th bfloat16/float16 pattern, 4,096
   odd-stride float32 inputs per function, exact cases, the float32
   inputs nearest a rounding boundary among a seeded sample (the inputs
   `bin/hardcases` hunts), the 2/pi bits against Funcs.Tables, and the
   check that every target's [of_double] is a valid [round_double].

   RLIBM_EXHAUSTIVE=1 (`dune build @exhaustive`): every bfloat16/float16
   pattern and the 65,536-input stride-65537 float32 set, for all 13
   functions. *)

module E = Oracle.Elementary
module F = Oracle.Bigfloat
module Q = Rational
module R = Fp.Representation
module M = Fp.Rounding_mode
open Test_util

let exhaustive =
  match Sys.getenv_opt "RLIBM_EXHAUSTIVE" with Some ("1" | "true") -> true | _ -> false

let ziv_only (f : E.fn) : E.fn = fun ~prec x -> f ~prec x

(* The 240-bit value of f x lies inside the enclosure (when there is one). *)
let enclosed (f : E.fn) x =
  match E.fast_enclosure f x with
  | None -> true
  | Some (lo, hi) ->
      let inside a b = Q.compare lo a <= 0 && Q.compare b hi <= 0 in
      (match f ~prec:240 x with
      | E.Exact q -> inside q q
      | E.Approx y ->
          let q = F.to_rational y in
          let m = Q.abs (Q.mul_pow2 q (12 - 240)) in
          inside (Q.sub q m) (Q.add q m))

let outcome g = match g () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Does the two-phase oracle agree with Ziv's loop alone on f x? *)
let agrees (module T : R.S) (f : E.fn) x =
  let all q = List.map (fun mode -> T.round_rational ~mode q) M.standard in
  let want = outcome (fun () -> E.correctly_rounded ~round:all (ziv_only f) x) in
  enclosed f x
  && outcome (fun () -> E.correctly_rounded ~round:all f x) = want
  && outcome (fun () ->
         List.map
           (fun mode ->
             E.correctly_rounded ~round_double:(T.of_double ~mode) ~round:(T.round_rational ~mode) f x)
           M.standard)
     = want

(* Patterns where [agrees] fails, in order. *)
let disagreements (module T : R.S) f pats =
  Parallel.map_chunks ~n:(Array.length pats) (fun ~lo ~hi ->
      List.filter
        (fun p -> not (agrees (module T) f (T.to_rational p)))
        (List.init (hi - lo) (fun k -> pats.(lo + k))))
  |> Array.to_list |> List.concat

let check_none what bad =
  Alcotest.(check (list string)) what []
    (List.map (Printf.sprintf "%#x") (List.filteri (fun i _ -> i < 10) bad))

(* The non-special inputs among [pats]: the ones the oracle is asked. *)
let non_special (t : Funcs.Specs.target) name pats =
  let spec = Funcs.Specs.by_name name t in
  Array.of_list (List.filter (fun p -> spec.Rlibm.Spec.special p = None) (Array.to_list pats))

let functions = Funcs.Specs.float_functions

let sweep_case (t : Funcs.Specs.target) pats name =
  Alcotest.test_case name `Slow (fun () ->
      let module T = (val t.repr) in
      let f = (Funcs.Specs.by_name name t).Rlibm.Spec.oracle in
      check_none
        (Printf.sprintf "%s %s: disagreements" t.tname name)
        (disagreements (module T) f (non_special t name (pats ()))))

let sixteen_bit t =
  let pats () =
    if exhaustive then Rlibm.Enumerate.exhaustive16 else Array.init 1024 (fun i -> i * 64)
  in
  (t.Funcs.Specs.tname, List.map (sweep_case t pats) functions)

let float32_stride () =
  let n, stride = if exhaustive then (65536, 65537) else (4096, (1 lsl 20) lor 1) in
  Array.init n (fun i -> i * stride)

(* ------------------------------------------------------------------ *)
(* Exact cases and near-boundary inputs.                               *)
(* ------------------------------------------------------------------ *)

let exact_inputs =
  let ints lo hi = List.init (hi - lo + 1) (fun i -> float_of_int (lo + i)) in
  let halves = List.map (fun k -> k /. 2.0) (ints (-64) 64) in
  [
    ("ln", [ 1.0 ]);
    ("log2", List.map (fun k -> Float.ldexp 1.0 (int_of_float k)) (ints (-149) 127));
    ("log10", List.map (fun k -> Float.pow 10.0 k) (ints 0 10));
    ("exp", [ 0.0 ]);
    ("exp2", ints (-149) 127);
    ("exp10", ints (-45) 38);
    ("sinh", [ 0.0 ]);
    ("cosh", [ 0.0 ]);
    ("sinpi", halves);
    ("cospi", halves);
    ("sin", [ 0.0 ]);
    ("cos", [ 0.0 ]);
    ("tan", [ 0.0 ]);
  ]

let test_exact_cases () =
  let module T = Fp.Fp32 in
  List.iter
    (fun (name, xs) ->
      let f = E.by_name name in
      List.iter
        (fun x ->
          if not (agrees (module T) f (Q.of_float x)) then
            Alcotest.failf "%s(%h): fast phase and Ziv disagree" name x)
        xs)
    exact_inputs

(* Where in its rounding cell the value lands: 0 on a float32 value, 1/2
   on a midpoint, from the middle of the fast enclosure. *)
let cell_position (f : E.fn) x =
  match E.fast_enclosure f x with
  | None -> None
  | Some (lo, hi) ->
      let v = Q.to_float (Q.mul_pow2 (Q.add lo hi) (-1)) in
      let module T = Fp.Fp32 in
      let p = T.of_double ~mode:M.Zero v in
      let a = T.to_double p and b = T.to_double (if v < 0.0 then T.next_down p else T.next_up p) in
      if Float.is_finite b && b <> a then Some ((v -. a) /. (b -. a)) else None

(* The float32 inputs whose value lies nearest a midpoint (RNE/RNA
   boundaries) and nearest a float32 value (directed boundaries), among
   a seeded sample of non-special inputs. *)
let near_boundary name =
  let st = rand (Hashtbl.hash name) in
  let t = Funcs.Specs.float32 in
  let f = E.by_name name in
  let random32 _ = (Random.State.bits st lor (Random.State.bits st lsl 30)) land 0xFFFFFFFF in
  let pats = non_special t name (Array.init 20_000 random32) in
  let scored score =
    Array.to_list pats
    |> List.filter_map (fun p ->
           Option.map (fun c -> (score c, p)) (cell_position f (Fp.Fp32.to_rational p)))
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 32)
    |> List.map snd
  in
  scored (fun c -> Float.abs (c -. 0.5)) @ scored (fun c -> Float.min c (1.0 -. c))

let test_near_boundary () =
  List.iter
    (fun name ->
      let f = E.by_name name in
      let bad = disagreements (module Fp.Fp32) f (Array.of_list (near_boundary name)) in
      check_none (name ^ " near-boundary: disagreements") bad)
    functions

(* Random doubles over each fast core's whole domain, per function. *)
let random_inputs st =
  let uniform a b = a +. Random.State.float st (b -. a) in
  let logspace lo hi = Float.ldexp (uniform 1.0 2.0) (lo + Random.State.int st (hi - lo)) in
  let signed x = if Random.State.bool st then x else -.x in
  let either a b () = if Random.State.bool st then a () else b () in
  let component = either (fun () -> uniform 0.0 0x1p-7) (fun () -> signed (logspace (-899) (-7))) in
  let near_zero () = signed (logspace (-899) 0) in
  [
    ("ln_1p", E.ln_1p, component);
    ("log2_1p", E.log2_1p, component);
    ("log10_1p", E.log10_1p, component);
  ]
  @ List.map
      (fun (name, gen) -> (name, E.by_name name, gen))
      [
        ("ln", fun () -> logspace (-899) 999);
        ("log2", fun () -> logspace (-899) 999);
        ("log10", either (fun () -> uniform 0.5 2.0) (fun () -> logspace (-899) 999));
        ("exp", either (fun () -> uniform (-660.) 660.) near_zero);
        ("exp2", fun () -> uniform (-950.) 950.);
        ("exp10", fun () -> uniform (-285.) 285.);
        ("sinh", either (fun () -> uniform (-660.) 660.) near_zero);
        ("cosh", fun () -> uniform (-660.) 660.);
        ("sinpi", fun () -> signed (logspace (-899) 51));
        ("cospi", fun () -> signed (logspace (-899) 51));
        ("sin", fun () -> signed (logspace (-899) 999));
        ("cos", fun () -> signed (logspace (-899) 999));
        ("tan", fun () -> signed (logspace (-899) 999));
      ]

(* Every stated bound has room: the observed error of the enclosure's
   midpoint stays below 2^-8 of the enclosure's half-width, on random
   doubles across each core's whole domain (not only float32 values),
   tiny arguments, and the double closest to a multiple of pi/2. *)
let test_error_margin () =
  let worst_reduction = Float.ldexp 6381956970095103.0 797 in
  List.iter
    (fun (name, f, gen) ->
      let xs = worst_reduction :: List.init 2000 (fun _ -> gen ()) in
      List.iter
        (fun x ->
          let qx = Q.of_float x in
          match E.fast_enclosure f qx with
          | None -> ()
          | Some (lo, hi) ->
              let y =
                match f ~prec:240 qx with E.Exact q -> q | E.Approx y -> F.to_rational y
              in
              let mid = Q.mul_pow2 (Q.add lo hi) (-1) and half = Q.mul_pow2 (Q.sub hi lo) (-1) in
              if Q.compare (Q.abs (Q.sub mid y)) (Q.mul_pow2 half (-8)) > 0 then
                Alcotest.failf "%s(%h): error above 2^-8 of the stated bound" name x)
        xs)
    (random_inputs (rand 7))

(* Rounding to double — what the generator asks of the component
   oracles — agrees with Ziv's loop alone, for every function with a
   fast phase. *)
let test_to_double () =
  List.iter
    (fun (name, f, gen) ->
      List.iter
        (fun x ->
          let x = Q.of_float x in
          let want = outcome (fun () -> E.correctly_rounded ~round:Q.to_float (ziv_only f) x) in
          if not (enclosed f x && outcome (fun () -> E.to_double f x) = want) then
            Alcotest.failf "%s(%s): to_double disagrees with Ziv" name (Q.to_string x))
        (List.init 300 (fun _ -> gen ())))
    (random_inputs (rand 8))

(* ------------------------------------------------------------------ *)
(* Rounders and tables.                                                *)
(* ------------------------------------------------------------------ *)

(* [of_double ~mode] equals [round_rational ~mode] of the exact double on
   every finite nonzero double — the contract a [round_double] must
   meet.  Random doubles over the whole exponent range (subnormal
   doubles included), and the target's own values, midpoints and their
   double neighbors. *)
let test_round_double_valid () =
  let st = rand 12 in
  let targets : (module R.S) list =
    [
      (module Fp.Fp32);
      (module Fp.Bfloat16);
      (module Fp.Float16);
      (module Funcs.Specs.Float34);
      (module Funcs.Specs.Bfloat18);
      (module Funcs.Specs.Float18);
      (module Posit.Posit32);
      (module Posit.Posit16);
    ]
  in
  List.iter
    (fun (module T : R.S) ->
      let finite_value () =
        let rec go () =
          let p = Random.State.bits st land ((1 lsl T.bits) - 1) in
          if T.classify p = R.Finite && T.to_double p <> 0.0 then T.to_double p else go ()
        in
        go ()
      in
      let doubles =
        List.concat
          (List.init 500 (fun _ ->
               let v = finite_value () in
               let w = finite_value () in
               let mid = (v /. 2.0) +. (w /. 2.0) in
               let raw =
                 Int64.float_of_bits
                   (Int64.logor
                      (Int64.of_int (Random.State.bits st))
                      (Int64.shift_left (Int64.of_int (Random.State.bits st)) 30))
               in
               let mid1 =
                 let p = T.of_double ~mode:M.Zero v in
                 (v +. T.to_double (T.next_up p)) /. 2.0
               in
               [ v; Float.pred v; Float.succ v; mid; mid1; Float.pred mid1; Float.succ mid1; raw ]))
        |> List.filter (fun d -> Float.is_finite d && d <> 0.0)
      in
      List.iter
        (fun mode ->
          List.iter
            (fun d ->
              let got = T.of_double ~mode d and want = T.round_rational ~mode (Q.of_float d) in
              if got <> want then
                Alcotest.failf "%s %s: of_double %h = %#x, round_rational = %#x" T.name
                  (M.to_string mode) d got want)
            doubles)
        M.all)
    targets

(* The oracle's 2/pi bits agree with the serving tables' 480-bit table
   (both derive from the Machin pi, at different precisions and by
   different code). *)
let test_two_over_pi () =
  let chunks = Parallel.Once.get Funcs.Tables.two_over_pi in
  let table =
    Array.fold_left (fun acc c -> Bigint.add (Bigint.shift_left acc 30) (Bigint.of_int c)) Bigint.zero chunks
  in
  Alcotest.check bigint "2/pi, 480 bits" table (E.two_over_pi_bits (30 * Array.length chunks))

(* Fast-phase traffic is counted: a float32 exp sweep settles nearly
   everything in the fast phase, a wrapper nothing. *)
let test_phase_counters () =
  let before = E.phase_counts () in
  let xs = List.init 1000 (fun i -> Q.of_float (Int32.float_of_bits (Int32.of_int (0x3f800000 + (i * 997))))) in
  List.iter (fun x -> ignore (E.correctly_rounded ~round:Fp.Fp32.round_rational E.exp x)) xs;
  ignore (E.correctly_rounded ~round:Fp.Fp32.round_rational (ziv_only E.exp) (List.hd xs));
  let d = E.phase_diff (E.phase_counts ()) before in
  Alcotest.(check int) "calls" 1000 (d.fast + d.escalated);
  Alcotest.(check bool) "fast >= 99%" true (d.fast >= 990);
  Alcotest.(check int) "Ziv-only" 1 d.ziv_only;
  Alcotest.(check int) "Ziv runs" (d.escalated + 1) (Array.fold_left ( + ) 0 d.ziv_steps)

let () =
  if exhaustive then print_endline "RLIBM_EXHAUSTIVE=1: every 16-bit input, 65,536 float32 inputs";
  Alcotest.run "oracle-phases"
    [
      ( "checks",
        [
          Alcotest.test_case "round_double = round . of_float" `Quick test_round_double_valid;
          Alcotest.test_case "2/pi bits vs Funcs.Tables" `Quick test_two_over_pi;
          Alcotest.test_case "exact cases, five modes" `Quick test_exact_cases;
          Alcotest.test_case "phase counters" `Quick test_phase_counters;
          Alcotest.test_case "error far below the stated bounds" `Quick test_error_margin;
          Alcotest.test_case "round to double" `Quick test_to_double;
          Alcotest.test_case "float32 near-boundary inputs" `Slow test_near_boundary;
        ] );
      sixteen_bit Funcs.Specs.bfloat16;
      sixteen_bit Funcs.Specs.float16;
      ("float32", List.map (sweep_case Funcs.Specs.float32 float32_stride) functions);
    ]
