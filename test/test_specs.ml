(* Machine checks promised by lib/funcs/specs.ml's header:

   1. every named tiny-input snap threshold ([sinh_snap] and friends) is
      brute-forced against the Ziv oracle around its boundary, per
      target — float16's bounds really do differ from float32's, and the
      posit thresholds lean on the tapered-precision argument;
   2. the 16-bit trig special regions are swept exhaustively, both
      signs, with expectations stated independently of the
      implementation.  Signed zeros are compared by *pattern*, not by
      value — the seed's sinpi bug (+0 for negative integers) is
      invisible to value-level equality;
   3. the Payne–Hanek reduction is differentially tested against
      Oracle.Elementary on adversarial inputs: the output compensation
      applied to correctly rounded component values of the reduced
      residual must land within a few double ulps of the correctly
      rounded sin/cos/tan of x itself. *)

module Specs = Funcs.Specs
module R = Funcs.Reductions
module E = Oracle.Elementary
module Q = Rational
module Repr = Fp.Representation
open Test_util

let st = rand 0x57EC

(* CR pattern of [oracle] at the exact double [x], in [t]'s format. *)
let cr_pattern (t : Specs.target) oracle x =
  let module T = (val t.repr) in
  E.correctly_rounded ~round:(T.round_rational ~mode:t.mode) oracle (Q.of_float x)

(* ------------------------------------------------------------------ *)
(* 1. Snap thresholds vs the oracle.                                   *)
(* ------------------------------------------------------------------ *)

(* The snap analyses assume round-to-nearest (the to-odd targets reject
   these functions in Specs.by_name), so the RNE targets are the ones
   with a contract to check. *)
let rne_targets =
  [ Specs.float32; Specs.bfloat16; Specs.float16; Specs.posit32; Specs.posit16 ]

(* Every named threshold, with the special-case builder it guards and
   the oracle that arbitrates. *)
let snapped : (string * (Specs.target -> int -> int option) * (Specs.target -> float) * E.fn) list
    =
  [
    ("sinh", Specs.sinh_special, Specs.sinh_snap, E.sinh);
    ("cosh", Specs.cosh_special, Specs.cosh_snap, E.cosh);
    ("tanh", Specs.tanh_special, Specs.tanh_snap, E.tanh);
    ("cos", Specs.cos_special, Specs.cos_snap, E.cos);
    ("cospi", Specs.cospi_special, Specs.cospi_snap, E.cospi);
    ("expm1", Specs.expm1_special, Specs.expm1_snap, E.expm1);
    ("log1p", Specs.log1p_special, Specs.log1p_snap, E.log1p);
    ("sin", Specs.sin_special, Specs.trig_snap, E.sin);
    ("tan", Specs.tan_special, Specs.trig_snap, E.tan);
    ("sinpi", Specs.sinpi_special, (fun (t : Specs.target) -> t.trig_tiny), E.sinpi);
  ]

(* Around one threshold on one target: walk the patterns straddling the
   boundary (both signs) plus strided samples of the binades just below
   it.  Inside the radius the special must fire and agree with the
   oracle's correctly rounded pattern; wherever it fires it must agree
   (a special that overreaches its sound region is the same bug). *)
let check_snap (t : Specs.target) (name, special, snap, oracle) =
  let module T = (val t.repr) in
  let special = special t in
  let s = snap t in
  let check pat =
    if pat > 0 then
      match T.classify pat with
      | Repr.Finite ->
          let x = T.to_double pat in
          if x <> 0.0 then (
            match special pat with
            | Some got ->
                let want = cr_pattern t oracle x in
                if got <> want then
                  Alcotest.failf "%s %s: special(%h) = %#x but the oracle rounds to %#x" t.tname
                    name x got want
            | None ->
                if Float.abs x <= s then
                  Alcotest.failf "%s %s: special silent at %h inside snap radius %h" t.tname name
                    x s)
      | _ -> ()
  in
  let check_both pat =
    check pat;
    match T.classify pat with
    | Repr.Finite -> check (T.of_double (-.T.to_double pat))
    | _ -> ()
  in
  (* The boundary pattern, a run below it, and a few just above. *)
  let bpat = T.of_double s in
  for i = -4 to 48 do
    let p = bpat - i in
    if p > 0 then check_both p
  done;
  (* Strided coverage of the three binades below the boundary. *)
  for _ = 1 to 16 do
    let x = Float.ldexp (s *. (0.5 +. Random.State.float st 0.5)) (-Random.State.int st 3) in
    check_both (T.of_double x)
  done

let test_snap_thresholds (t : Specs.target) () = List.iter (check_snap t) snapped

(* ------------------------------------------------------------------ *)
(* 2. Exhaustive 16-bit trig specials, both signs.                     *)
(* ------------------------------------------------------------------ *)

(* IEEE 16-bit targets: every pattern, with the sign bit read straight
   off the pattern (bit 15) so the signed-zero expectation is stated
   independently of the representation module. *)
let ieee16_trig_specials (t : Specs.target) () =
  let module T = (val t.repr) in
  let sinpi_s = Specs.sinpi_special t
  and cospi_s = Specs.cospi_special t
  and sin_s = Specs.sin_special t
  and cos_s = Specs.cos_special t
  and tan_s = Specs.tan_special t in
  let all = [ ("sinpi", sinpi_s); ("cospi", cospi_s); ("sin", sin_s); ("cos", cos_s); ("tan", tan_s) ] in
  let one = T.of_double 1.0 in
  let trig_snap = Specs.trig_snap t and cos_snap = Specs.cos_snap t in
  for pat = 0 to 65535 do
    match T.classify pat with
    | Repr.Nan | Repr.Inf _ ->
        (* NaN propagates; the trig family has no limit at infinity. *)
        List.iter
          (fun (n, s) ->
            if s pat <> Some t.nan then
              Alcotest.failf "%s %s: pattern %#x must map to NaN" t.tname n pat)
          all
    | Repr.Finite ->
        let x = T.to_double pat in
        let a = Float.abs x in
        let sign = pat land 0x8000 in
        if a >= t.trig_int then (
          (* sinpi is odd: the exact zero carries x's sign bit.  Pattern
             equality — value equality can't see a +0/-0 swap. *)
          (match sinpi_s pat with
          | Some z when z = sign -> ()
          | Some z -> Alcotest.failf "%s sinpi(%h): got %#x, want signed zero %#x" t.tname x z sign
          | None -> Alcotest.failf "%s sinpi(%h): special must fire at integers" t.tname x);
          (* Every 16-bit value at or past trig_int is an even integer
             (the ulp there is at least 2), so cospi is exactly 1. *)
          match cospi_s pat with
          | Some o when o = one -> ()
          | Some o -> Alcotest.failf "%s cospi(%h): got %#x, want 1" t.tname x o
          | None -> Alcotest.failf "%s cospi(%h): special must fire at integers" t.tname x);
        if a <= t.trig_tiny then (
          match sinpi_s pat with
          | Some z ->
              if z land 0x8000 <> sign then
                Alcotest.failf "%s sinpi(%h): sign lost in tiny region (got %#x)" t.tname x z;
              if x = 0.0 && z <> pat then
                Alcotest.failf "%s sinpi(%c0): signed zero must pass through, got %#x" t.tname
                  (if sign = 0 then '+' else '-')
                  z
          | None -> Alcotest.failf "%s sinpi(%h): tiny special must fire" t.tname x);
        if a <= trig_snap then (
          (match sin_s pat with
          | Some z when z = pat -> ()
          | _ -> Alcotest.failf "%s sin(%h): tiny snap must pass the pattern through" t.tname x);
          match tan_s pat with
          | Some z when z = pat -> ()
          | _ -> Alcotest.failf "%s tan(%h): tiny snap must pass the pattern through" t.tname x);
        if a <= cos_snap then
          match cos_s pat with
          | Some o when o = one -> ()
          | _ -> Alcotest.failf "%s cos(%h): tiny snap must produce exactly 1" t.tname x
  done

(* posit16: a single unsigned zero and no infinities, but the integer
   region exists (maxpos = 2^28 > trig_int) and must collapse cleanly. *)
let posit16_trig_specials () =
  let t = Specs.posit16 in
  let module T = (val t.repr) in
  let sinpi_s = Specs.sinpi_special t and cospi_s = Specs.cospi_special t in
  let one = T.of_double 1.0 in
  let seen = ref 0 in
  for pat = 0 to 65535 do
    match T.classify pat with
    | Repr.Nan | Repr.Inf _ ->
        if sinpi_s pat <> Some t.nan || cospi_s pat <> Some t.nan then
          Alcotest.failf "posit16 sinpi/cospi: NaR must map to NaR"
    | Repr.Finite ->
        let x = T.to_double pat in
        if x <> 0.0 && Float.abs x >= t.trig_int then (
          incr seen;
          (match sinpi_s pat with
          | Some 0 -> () (* posits collapse both signs onto their one zero *)
          | Some z -> Alcotest.failf "posit16 sinpi(%h): got %#x, want the single zero" x z
          | None -> Alcotest.failf "posit16 sinpi(%h): special must fire at integers" x);
          match cospi_s pat with
          | Some o when o = one -> ()
          | _ -> Alcotest.failf "posit16 cospi(%h): want exactly 1" x)
  done;
  Alcotest.(check bool) "posit16 reaches the integer region" true (!seen > 0)

(* ------------------------------------------------------------------ *)
(* 3. Payne–Hanek reduction vs the oracle.                             *)
(* ------------------------------------------------------------------ *)

let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Adversarial float32 inputs: the nearest float32 to k*(pi/2) for a
   spread of k (maximal cancellation in the level-1 reduction), whole
   binades up to and including the largest finite float32, and random
   full-range patterns. *)
let adversarial_inputs () =
  let acc = ref [] in
  let add x = if Float.is_finite x && x > 0.0 then acc := x :: !acc in
  List.iter
    (fun k -> add (f32 (float_of_int k *. Float.pi /. 2.0)))
    [ 1; 2; 3; 5; 7; 11; 101; 1000; 75000; 1000003; 123456789 ];
  List.iter
    (fun e ->
      add (Float.ldexp 1.0 e);
      add (f32 (Float.ldexp 0x1.fffffep0 e)))
    [ 24; 31; 45; 60; 77; 90; 101; 120; 127 ];
  add 0x1.fffffep127;
  for _ = 1 to 40 do
    add (f32 (Float.ldexp (1.0 +. Random.State.float st 1.0) (Random.State.int st 120)))
  done;
  !acc

(* Feed the *correctly rounded* component values at the reduced residual
   through each compensation and compare against the oracle at x.  The
   residual r carries ~60+ significant bits relative to itself, and the
   component doubles each at most half an ulp of error, so a healthy
   reduction lands within a few double ulps; a quadrant, sign, or table
   bug misses by orders of magnitude. *)
let test_payne_hanek () =
  let budget = 16L in
  let check1 x =
    let red = R.trig_reduce x in
    let n = (red.key lsr 4) land 0xFF in
    if n > 128 then Alcotest.failf "trig_reduce %h: table index %d out of range" x n;
    if Float.abs red.r > 0.0030680 then
      Alcotest.failf "trig_reduce %h: residual %h above pi/1024" x red.r;
    let v = [| E.to_double E.sin (Q.of_float red.r); E.to_double E.cos (Q.of_float red.r) |] in
    List.iter
      (fun (name, comp, oracle) ->
        let got = comp red v in
        let want = E.to_double oracle (Q.of_float x) in
        if ulps got want > budget then
          Alcotest.failf "%s(%h): compensated %h vs oracle %h (%Ld ulps)" name x got want
            (ulps got want))
      [
        ("sin", R.sin_compensate, E.sin);
        ("cos", R.cos_compensate, E.cos);
        ("tan", R.tan_compensate, E.tan);
      ]
  in
  List.iter
    (fun x ->
      check1 x;
      check1 (-.x))
    (adversarial_inputs ())

(* ------------------------------------------------------------------ *)
(* 4. sinpi at integers below trig_int: a zero with the input's sign.  *)
(* ------------------------------------------------------------------ *)

(* Integers below [trig_int] are not special cases: they run the
   reduction and the output compensation, in the scalar library and in
   the serving kernel, and both must return +0 for a positive and -0 for
   a negative integer (IEEE 754 sinPi(+-n) = +-0).  Patterns, not
   values: a +0/-0 swap is invisible to value equality. *)
let sinpi_integer_zeros ?quality (t : Specs.target) pats () =
  let module T = (val t.repr) in
  let g = Funcs.Libm.get ?quality t "sinpi" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let s = Serve.Kernel.scratch () in
  let sign_bit = 1 lsl (T.bits - 1) in
  let seen = ref 0 in
  Array.iter
    (fun pat ->
      let x = T.to_double pat in
      if T.classify pat = Repr.Finite && x <> 0.0 && Float.is_integer x && Float.abs x < t.trig_int
      then begin
        incr seen;
        let want = if x < 0.0 then sign_bit else 0 in
        let lib = Rlibm.Generator.eval_pattern g pat and ker = Serve.Kernel.eval p s pat in
        if lib <> want || ker <> want then
          Alcotest.failf "%s sinpi(%h): library %#x, kernel %#x, want %#x" t.tname x lib ker want
      end)
    pats;
  Alcotest.(check bool) "integers below trig_int reached" true (!seen > 0)

(* Every float32 integer 1..1000, then a stride through [1, 2^23), both
   signs. *)
let float32_integers =
  let module T = Fp.Fp32 in
  let ns = List.init 1000 (fun i -> i + 1) @ List.init 8400 (fun k -> 1001 + (k * 997)) in
  Array.of_list (List.concat_map (fun n -> [ T.of_double (float_of_int n); T.of_double (-.float_of_int n) ]) ns)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "specs"
    [
      ( "snap-thresholds",
        List.map
          (fun (t : Specs.target) ->
            Alcotest.test_case t.tname `Quick (test_snap_thresholds t))
          rne_targets );
      ( "trig-specials-16bit",
        [
          Alcotest.test_case "bfloat16" `Quick (ieee16_trig_specials Specs.bfloat16);
          Alcotest.test_case "float16" `Quick (ieee16_trig_specials Specs.float16);
          Alcotest.test_case "posit16" `Quick posit16_trig_specials;
        ] );
      ( "sinpi-integer-zeros",
        [
          Alcotest.test_case "float32 (strided)" `Quick
            (sinpi_integer_zeros ~quality:Funcs.Libm.Quick Specs.float32 float32_integers);
          Alcotest.test_case "bfloat16 (exhaustive)" `Quick
            (sinpi_integer_zeros Specs.bfloat16 (Array.init 65536 Fun.id));
          Alcotest.test_case "float16 (exhaustive)" `Quick
            (sinpi_integer_zeros Specs.float16 (Array.init 65536 Fun.id));
        ] );
      ( "payne-hanek",
        [ Alcotest.test_case "adversarial reduction differential" `Quick test_payne_hanek ] );
    ]
