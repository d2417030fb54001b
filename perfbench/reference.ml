(* The correctness reference: what each output pattern must be, derived
   from the Ziv oracle and IEEE 754's special values — never from the
   library under test (its special-case table included).

   - NaN inputs, and inputs outside the function's domain, must give a
     NaN; NaNs compare as a class.
   - Infinite inputs take IEEE 754 / C Annex F limits.
   - Finite inputs go to {!Oracle.Elementary.correctly_rounded} under
     the target's rounding mode.  exp/cosh arguments beyond +-1000
     overflow or underflow every format served here (all have
     |log(maxfinite)| < 1000), so they round 2^(+-2000) instead: rounding
     is monotone and no representable boundary lies between the two.
   - A zero result carries a sign: odd functions (sin, tan, sinpi) keep
     the input's sign (IEEE 754-2019 9.2.1: sinPi(-n) = -0 and
     sinPi(+n) = +0), the others give +0 (log2(1) = +0).  Patterns are
     compared bit for bit, so -0 and +0 differ. *)

module R = Fp.Representation

let nan_class = -1

let odd = function "sin" | "tan" | "sinpi" -> true | _ -> false

(** [expected (module T) ~mode name pat] is the pattern [name(pat)] must
    produce, or {!nan_class}. *)
let expected (module T : R.S) ~mode name pat =
  let sign_bit = 1 lsl (T.bits - 1) in
  let neg = pat land sign_bit <> 0 in
  let inf s = T.of_double (if s > 0 then Float.infinity else Float.neg_infinity) in
  let round q = T.round_rational ~mode q in
  match T.classify pat with
  | R.Nan -> nan_class
  | R.Inf s -> (
      match name with
      | "log2" -> if s > 0 then inf 1 else nan_class
      | "exp" -> if s > 0 then inf 1 else 0
      | "cosh" -> inf 1
      | _ -> nan_class)
  | R.Finite ->
      let x = T.to_rational pat in
      let big = Rational.of_int 1000 in
      let y =
        match name with
        | "log2" when Rational.sign x < 0 -> nan_class
        | "log2" when Rational.is_zero x -> inf (-1)
        | ("exp" | "cosh") when Rational.compare (Rational.abs x) big > 0 ->
            if name = "cosh" || Rational.sign x > 0 then round (Rational.of_pow2 2000)
            else round (Rational.of_pow2 (-2000))
        | _ -> Oracle.Elementary.correctly_rounded ~round (Oracle.Elementary.by_name name) x
      in
      if y <> nan_class && T.classify y = R.Finite && T.to_double y = 0.0 then
        if odd name && neg then sign_bit else 0
      else y

(** Does output [got] match the expected pattern [want]? *)
let matches (module T : R.S) ~want got =
  if want = nan_class then T.classify got = R.Nan else got = want

(** [table fmt ~mode name pats] is the expected pattern of every input,
    computed across the worker domains (the oracle is domain-safe).  An
    oracle exception is fatal: an input the reference cannot settle is
    an input the benchmark cannot check. *)
let table fmt ~mode name (pats : int array) =
  let chunks =
    Parallel.map_chunks ~n:(Array.length pats) (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k -> expected fmt ~mode name pats.(lo + k)))
  in
  Array.concat (Array.to_list chunks)
