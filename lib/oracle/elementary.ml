(* Correctly-rounded oracle built on Bigfloat.

   All approximating paths compute at a working precision [wp = prec + 40]
   and keep series truncation below [2^(-wp-8)] relative, so the total
   relative error stays far below the [2^(12-prec)] margin that Ziv's
   loop assumes.  Inputs with rational function values return [Exact]:
   those are the only points where interval refinement cannot terminate.
   A double-double fast phase (near the end of the file) settles most
   calls before the loop runs. *)

module B = Bigint
module Q = Rational
module F = Bigfloat

type result = Exact of Q.t | Approx of F.t
type fn = prec:int -> Q.t -> result

(* ------------------------------------------------------------------ *)
(* Constants via integer fixed point at scale 2^w.                     *)
(* ------------------------------------------------------------------ *)

(* atan(1/n) * 2^w, by the alternating Taylor series in 1/n.  Each term
   is floored, so the absolute error is below the term count, which is
   tiny against the 2^w scale. *)
let atan_inv_scaled ~w n =
  let n2 = B.of_int (n * n) in
  let term = ref (B.div (B.shift_left B.one w) (B.of_int n)) in
  let sum = ref B.zero in
  let k = ref 0 in
  while not (B.is_zero !term) do
    let contrib = B.div !term (B.of_int ((2 * !k) + 1)) in
    sum := if !k land 1 = 0 then B.add !sum contrib else B.sub !sum contrib;
    term := B.div !term n2;
    incr k
  done;
  !sum

(* atanh(1/n) * 2^w: same series without the alternation. *)
let atanh_inv_scaled ~w n =
  let n2 = B.of_int (n * n) in
  let term = ref (B.div (B.shift_left B.one w) (B.of_int n)) in
  let sum = ref B.zero in
  let k = ref 0 in
  while not (B.is_zero !term) do
    sum := B.add !sum (B.div !term (B.of_int ((2 * !k) + 1)));
    term := B.div !term n2;
    incr k
  done;
  !sum

let const_cache : (string * int, F.t) Hashtbl.t = Hashtbl.create 16

(* The generator's enumeration pass runs oracle calls from several
   domains at once (lib/parallel), so the cache is mutex-protected; the
   lock is held across [compute] so each constant is built exactly once.
   No [cached] body calls [cached], so the lock cannot re-enter. *)
let const_mu = Mutex.create ()

let cached name ~prec compute =
  (* Quantize precision so the cache stays small across Ziv retries. *)
  let w = ((prec + 24 + 63) / 64) * 64 in
  Mutex.protect const_mu (fun () ->
      match Hashtbl.find_opt const_cache (name, w) with
      | Some v -> v
      | None ->
          let v = F.round ~prec:(w - 16) (F.make (compute ~w) (-w)) in
          Hashtbl.add const_cache (name, w) v;
          v)

(* Machin: pi = 16*atan(1/5) - 4*atan(1/239). *)
let pi ~prec =
  cached "pi" ~prec (fun ~w ->
      B.sub (B.mul_int (atan_inv_scaled ~w 5) 16) (B.mul_int (atan_inv_scaled ~w 239) 4))

(* ln 2 = 2 * atanh(1/3). *)
let ln2 ~prec = cached "ln2" ~prec (fun ~w -> B.mul_int (atanh_inv_scaled ~w 3) 2)

(* ln 10 = 3 ln 2 + 2 atanh(1/9)   (since 10 = 8 * 5/4). *)
let ln10 ~prec =
  cached "ln10" ~prec (fun ~w ->
      B.add (B.mul_int (atanh_inv_scaled ~w 3) 6) (B.mul_int (atanh_inv_scaled ~w 9) 2))

(* ------------------------------------------------------------------ *)
(* Series at working precision.                                        *)
(* ------------------------------------------------------------------ *)

let wp_of prec = prec + 40

(* Dynamic stopping: terms have settled once they drop [wp]+8 bits below
   the running sum. *)
let negligible ~wp ~sum term =
  F.is_zero term || (not (F.is_zero sum) && F.ilog2 term < F.ilog2 sum - wp - 8)

(* exp(t) for |t| <= 0.4. *)
let exp_series ~wp t =
  let sum = ref F.one and term = ref F.one and k = ref 1 in
  let continue = ref true in
  while !continue do
    term := F.div_int ~prec:wp (F.mul ~prec:wp !term t) !k;
    sum := F.add ~prec:wp !sum !term;
    incr k;
    if negligible ~wp ~sum:!sum !term then continue := false
  done;
  !sum

(* sin(t) for t in (0, pi/2]. *)
let sin_series ~wp t =
  let u = F.mul ~prec:wp t t in
  let sum = ref t and term = ref t and k = ref 1 in
  let continue = ref true in
  while !continue do
    let d = 2 * !k * ((2 * !k) + 1) in
    term := F.neg (F.div_int ~prec:wp (F.mul ~prec:wp !term u) d);
    sum := F.add ~prec:wp !sum !term;
    incr k;
    if negligible ~wp ~sum:!sum !term then continue := false
  done;
  !sum

(* cos(t) for |t| <= pi/2: the alternating even series. *)
let cos_series ~wp t =
  let u = F.mul ~prec:wp t t in
  let sum = ref F.one and term = ref F.one and k = ref 1 in
  let continue = ref true in
  while !continue do
    let d = ((2 * !k) - 1) * 2 * !k in
    term := F.neg (F.div_int ~prec:wp (F.mul ~prec:wp !term u) d);
    sum := F.add ~prec:wp !sum !term;
    incr k;
    if negligible ~wp ~sum:!sum !term then continue := false
  done;
  !sum

(* atanh(z) for |z| <= 1/3. *)
let atanh_series ~wp z =
  let u = F.mul ~prec:wp z z in
  let pow = ref z and sum = ref z and k = ref 1 in
  let continue = ref true in
  while !continue do
    pow := F.mul ~prec:wp !pow u;
    let contrib = F.div_int ~prec:wp !pow ((2 * !k) + 1) in
    sum := F.add ~prec:wp !sum contrib;
    incr k;
    if negligible ~wp ~sum:!sum contrib then continue := false
  done;
  !sum

(* sinh(t) for |t| <= 1. *)
let sinh_series ~wp t =
  let u = F.mul ~prec:wp t t in
  let sum = ref t and term = ref t and k = ref 1 in
  let continue = ref true in
  while !continue do
    let d = 2 * !k * ((2 * !k) + 1) in
    term := F.div_int ~prec:wp (F.mul ~prec:wp !term u) d;
    sum := F.add ~prec:wp !sum !term;
    incr k;
    if negligible ~wp ~sum:!sum !term then continue := false
  done;
  !sum

(* cosh(t) for |t| <= 1. *)
let cosh_series ~wp t =
  let u = F.mul ~prec:wp t t in
  let sum = ref F.one and term = ref F.one and k = ref 1 in
  let continue = ref true in
  while !continue do
    let d = ((2 * !k) - 1) * 2 * !k in
    term := F.div_int ~prec:wp (F.mul ~prec:wp !term u) d;
    sum := F.add ~prec:wp !sum !term;
    incr k;
    if negligible ~wp ~sum:!sum !term then continue := false
  done;
  !sum

(* ------------------------------------------------------------------ *)
(* exp and friends.                                                    *)
(* ------------------------------------------------------------------ *)

let too_large_for_exp x = Q.compare (Q.abs x) (Q.of_int (1 lsl 30)) > 0

(* exp(x) as a Bigfloat; [x] must be moderate (callers special-case the
   saturated regions of their target types first). *)
let exp_approx ~wp x =
  if too_large_for_exp x then invalid_arg "Elementary.exp: argument too large";
  let k = int_of_float (Float.round (Q.to_float x *. 1.4426950408889634)) in
  let xw = F.of_rational ~prec:(wp + 20) x in
  let r = F.sub ~prec:(wp + 20) xw (F.mul_int ~prec:(wp + 20) (ln2 ~prec:(wp + 20)) k) in
  F.mul_pow2 (exp_series ~wp r) k

let exp ~prec x =
  if Q.is_zero x then Exact Q.one else Approx (exp_approx ~wp:(wp_of prec) x)

let exp2 ~prec x =
  if B.equal (Q.den x) B.one then begin
    (* Integer input: 2^n is exactly rational. *)
    let n = B.to_int_exn (Q.num x) in
    Exact (Q.of_pow2 n)
  end
  else begin
    let wp = wp_of prec in
    let k = B.to_int_exn (Q.round_nearest x) in
    let r = Q.sub x (Q.of_int k) in
    let t = F.mul ~prec:(wp + 10) (F.of_rational ~prec:(wp + 10) r) (ln2 ~prec:(wp + 10)) in
    Approx (F.mul_pow2 (exp_series ~wp t) k)
  end

let ten_pow k = if k >= 0 then Q.of_bigint (B.pow (B.of_int 10) k) else Q.inv (Q.of_bigint (B.pow (B.of_int 10) (-k)))

let exp10 ~prec x =
  if B.equal (Q.den x) B.one then Exact (ten_pow (B.to_int_exn (Q.num x)))
  else begin
    let wp = wp_of prec in
    let k = int_of_float (Float.round (Q.to_float x *. 3.321928094887362)) in
    (* t = x*ln10 - k*ln2 cancels ~log2(k) bits; the +30 slack covers it. *)
    let w' = wp + 30 in
    let t =
      F.sub ~prec:w'
        (F.mul ~prec:w' (F.of_rational ~prec:w' x) (ln10 ~prec:w'))
        (F.mul_int ~prec:w' (ln2 ~prec:w') k)
    in
    Approx (F.mul_pow2 (exp_series ~wp t) k)
  end

(* ------------------------------------------------------------------ *)
(* Logarithms.                                                         *)
(* ------------------------------------------------------------------ *)

(* ln x = 2*atanh((m-1)/(m+1)) + e*ln2 with m in [0.75, 1.5) so the two
   contributions never cancel catastrophically. *)
let ln_approx ~wp x =
  if Q.sign x <= 0 then invalid_arg "Elementary.ln: nonpositive argument";
  let e = Q.ilog2 x in
  let m = Q.mul_pow2 x (-e) in
  let m, e = if Q.compare m (Q.of_ints 3 2) >= 0 then (Q.mul_pow2 m (-1), e + 1) else (m, e) in
  let z = Q.div (Q.sub m Q.one) (Q.add m Q.one) in
  let a = atanh_series ~wp (F.of_rational ~prec:wp z) in
  F.add ~prec:wp (F.mul_pow2 a 1) (F.mul_int ~prec:wp (ln2 ~prec:wp) e)

let is_pow2 x = Q.sign x > 0 && B.is_pow2 (Q.num x)

let ln ~prec x = if Q.equal x Q.one then Exact Q.zero else Approx (ln_approx ~wp:(wp_of prec) x)

let log2 ~prec x =
  if Q.sign x <= 0 then invalid_arg "Elementary.log2: nonpositive argument";
  if is_pow2 x then Exact (Q.of_int (Q.ilog2 x))
  else begin
    let wp = wp_of prec in
    Approx (F.div ~prec:wp (ln_approx ~wp:(wp + 10) x) (ln2 ~prec:(wp + 10)))
  end

let is_pow10 x =
  if Q.sign x <= 0 then None
  else begin
    let k = int_of_float (Float.round (Float.log10 (Q.to_float x))) in
    if Q.equal x (ten_pow k) then Some k else None
  end

let log10 ~prec x =
  if Q.sign x <= 0 then invalid_arg "Elementary.log10: nonpositive argument";
  match is_pow10 x with
  | Some k -> Exact (Q.of_int k)
  | None ->
      let wp = wp_of prec in
      Approx (F.div ~prec:wp (ln_approx ~wp:(wp + 10) x) (ln10 ~prec:(wp + 10)))

(* ln(1+r) = 2*atanh(r/(2+r)): exact cancellation-free form for the
   reduced-domain component of the log family. *)
let ln_1p_approx ~wp r =
  let z = Q.div r (Q.add (Q.of_int 2) r) in
  F.mul_pow2 (atanh_series ~wp (F.of_rational ~prec:wp z)) 1

let ln_1p ~prec r = if Q.is_zero r then Exact Q.zero else Approx (ln_1p_approx ~wp:(wp_of prec) r)

let log2_1p ~prec r =
  if Q.is_zero r then Exact Q.zero
  else begin
    let wp = wp_of prec in
    Approx (F.div ~prec:wp (ln_1p_approx ~wp:(wp + 10) r) (ln2 ~prec:(wp + 10)))
  end

let log10_1p ~prec r =
  if Q.is_zero r then Exact Q.zero
  else begin
    let wp = wp_of prec in
    Approx (F.div ~prec:wp (ln_1p_approx ~wp:(wp + 10) r) (ln10 ~prec:(wp + 10)))
  end

(* ------------------------------------------------------------------ *)
(* sinpi / cospi.                                                      *)
(* ------------------------------------------------------------------ *)

(* sin(pi*q) for q in (0, 1/2); the reduction to this domain is exact
   rational arithmetic. *)
let sinpi_core ~wp q =
  let t = F.mul ~prec:wp (pi ~prec:wp) (F.of_rational ~prec:wp q) in
  sin_series ~wp t

(* Reduce x to (s, l') with sinpi(x) = s * sinpi(l'), l' in [0, 1/2]. *)
let sinpi_reduce x =
  let j = Q.sub x (Q.mul_pow2 (Q.of_bigint (Q.floor (Q.mul_pow2 x (-1)))) 1) in
  let k = Q.floor j in
  let l = Q.sub j (Q.of_bigint k) in
  let s = if B.is_even k then 1 else -1 in
  let l' = if Q.compare l Q.half > 0 then Q.sub Q.one l else l in
  (s, l')

let sinpi ~prec x =
  let s, l' = sinpi_reduce x in
  if Q.is_zero l' then Exact Q.zero
  else if Q.equal l' Q.half then Exact (Q.of_int s)
  else begin
    let v = sinpi_core ~wp:(wp_of prec) l' in
    Approx (if s < 0 then F.neg v else v)
  end

let cospi ~prec x =
  (* cospi(x) = sinpi(1/2 - x) after exact folding. *)
  let j = Q.sub x (Q.mul_pow2 (Q.of_bigint (Q.floor (Q.mul_pow2 x (-1)))) 1) in
  let j' = if Q.compare j Q.one >= 0 then Q.sub (Q.of_int 2) j else j in
  let u = Q.sub Q.half j' in
  let s, mag = if Q.sign u >= 0 then (1, u) else (-1, Q.neg u) in
  if Q.is_zero mag then Exact Q.zero
  else if Q.equal mag Q.half then Exact (Q.of_int s)
  else begin
    let v = sinpi_core ~wp:(wp_of prec) mag in
    Approx (if s < 0 then F.neg v else v)
  end

(* ------------------------------------------------------------------ *)
(* sin / cos / tan (radians, full range).                              *)
(* ------------------------------------------------------------------ *)

(* Reduce x to (q, r) with x = k*(pi/2) + r, |r| <= pi/4 + eps and
   q = k mod 4.  Huge arguments cancel against k*(pi/2) almost
   completely — the classic Payne–Hanek concern — so the working
   precision grows with ilog2 |x|: after losing those bits to
   cancellation, [r] still carries [wp] good bits plus slack.  The
   oracle is off the fast path, so plain extended-precision arithmetic
   (rather than a fixed-point 2/pi table) is the right tool here; the
   runtime table in [Funcs.Tables] is validated against this. *)
let trig_reduce ~wp x =
  let mag = if Q.is_zero x then 0 else max 0 (Q.ilog2 x) in
  (* |r| for a double input is bounded below by the worst-case closeness
     of a 53-bit float to a multiple of pi/2 (> 2^-70); mag + 80 bits of
     slack keep the reduced value's relative error below 2^-wp-8. *)
  let w = wp + mag + 80 in
  let halfpi = F.mul_pow2 (pi ~prec:w) (-1) in
  let xf = F.of_rational ~prec:w x in
  let k = Q.round_nearest (F.to_rational (F.div ~prec:w xf halfpi)) in
  let r = F.sub ~prec:w xf (F.mul ~prec:w halfpi (F.of_bigint k)) in
  let q = (B.to_int_exn (B.rem k (B.of_int 4)) + 4) land 3 in
  (q, r)

(* sin(r)/cos(r) for |r| <= pi/4 + eps, computed on |r| with the sign
   restored (the series are used only on non-negative arguments
   elsewhere in this file; keep that invariant). *)
let sin_small ~wp r =
  if F.is_zero r then F.zero
  else begin
    let v = sin_series ~wp (F.abs r) in
    if F.sign r < 0 then F.neg v else v
  end

let cos_small ~wp r = cos_series ~wp (F.abs r)

let sin ~prec x =
  if Q.is_zero x then Exact Q.zero
  else begin
    let wp = wp_of prec in
    let q, r = trig_reduce ~wp x in
    Approx
      (match q with
      | 0 -> sin_small ~wp r
      | 1 -> cos_small ~wp r
      | 2 -> F.neg (sin_small ~wp r)
      | _ -> F.neg (cos_small ~wp r))
  end

let cos ~prec x =
  if Q.is_zero x then Exact Q.one
  else begin
    let wp = wp_of prec in
    let q, r = trig_reduce ~wp x in
    Approx
      (match q with
      | 0 -> cos_small ~wp r
      | 1 -> F.neg (sin_small ~wp r)
      | 2 -> F.neg (cos_small ~wp r)
      | _ -> sin_small ~wp r)
  end

(* tan x = sin x / cos x on the shared reduction: q even gives
   sin(r)/cos(r), q odd gives -cos(r)/sin(r).  The denominator never
   vanishes: cos(r) >= cos(pi/4) - eps, and sin(r) = 0 only at r = 0,
   which requires x to be an exact multiple of pi/2 — impossible for
   rational x other than 0 (already handled as Exact). *)
let tan ~prec x =
  if Q.is_zero x then Exact Q.zero
  else begin
    let wp = wp_of prec in
    let q, r = trig_reduce ~wp:(wp + 10) x in
    let s = sin_small ~wp:(wp + 10) r and c = cos_small ~wp:(wp + 10) r in
    Approx (if q land 1 = 0 then F.div ~prec:wp s c else F.neg (F.div ~prec:wp c s))
  end

(* ------------------------------------------------------------------ *)
(* sinh / cosh.                                                        *)
(* ------------------------------------------------------------------ *)

let sinh ~prec x =
  if Q.is_zero x then Exact Q.zero
  else begin
    let wp = wp_of prec in
    let a = Q.abs x in
    let v =
      if Q.compare a Q.one < 0 then sinh_series ~wp (F.of_rational ~prec:wp a)
      else begin
        let e = exp_approx ~wp:(wp + 10) a in
        F.mul_pow2 (F.sub ~prec:wp e (F.div ~prec:(wp + 10) F.one e)) (-1)
      end
    in
    Approx (if Q.sign x < 0 then F.neg v else v)
  end

let cosh ~prec x =
  if Q.is_zero x then Exact Q.one
  else begin
    let wp = wp_of prec in
    let a = Q.abs x in
    let v =
      if Q.compare a Q.one < 0 then cosh_series ~wp (F.of_rational ~prec:wp a)
      else begin
        let e = exp_approx ~wp:(wp + 10) a in
        F.mul_pow2 (F.add ~prec:wp e (F.div ~prec:(wp + 10) F.one e)) (-1)
      end
    in
    Approx v
  end

(* ------------------------------------------------------------------ *)
(* Extension functions (the paper's §7 direction: more elementary      *)
(* functions on the same machinery).                                   *)
(* ------------------------------------------------------------------ *)

(* expm1(x) = e^x - 1: the direct series for |x| < 1 avoids the
   cancellation that exp(x) - 1 would suffer near zero. *)
let expm1 ~prec x =
  if Q.is_zero x then Exact Q.zero
  else begin
    let wp = wp_of prec in
    if Q.compare (Q.abs x) Q.one < 0 then begin
      let t = F.of_rational ~prec:wp x in
      let sum = ref t and term = ref t and k = ref 2 in
      let continue = ref true in
      while !continue do
        term := F.div_int ~prec:wp (F.mul ~prec:wp !term t) !k;
        sum := F.add ~prec:wp !sum !term;
        incr k;
        if negligible ~wp ~sum:!sum !term then continue := false
      done;
      Approx !sum
    end
    else Approx (F.sub ~prec:wp (exp_approx ~wp:(wp + 10) x) F.one)
  end

(* tanh(x) = (E - 1/E)/(E + 1/E) with E = e^|x|; for |x| < 1 the ratio
   sinh/cosh of the series avoids cancellation (both series are
   benign). *)
let tanh ~prec x =
  if Q.is_zero x then Exact Q.zero
  else begin
    let wp = wp_of prec in
    let a = Q.abs x in
    let v =
      if Q.compare a Q.one < 0 then begin
        let fa = F.of_rational ~prec:(wp + 10) a in
        F.div ~prec:wp (sinh_series ~wp:(wp + 10) fa) (cosh_series ~wp:(wp + 10) fa)
      end
      else begin
        let e = exp_approx ~wp:(wp + 10) a in
        let inv = F.div ~prec:(wp + 10) F.one e in
        F.div ~prec:wp (F.sub ~prec:(wp + 10) e inv) (F.add ~prec:(wp + 10) e inv)
      end
    in
    Approx (if Q.sign x < 0 then F.neg v else v)
  end

(* log1p under its libm name: the cancellation-free atanh form near
   zero, the full logarithm elsewhere (the atanh series in r/(2+r)
   stops converging as the argument grows). *)
let log1p ~prec r =
  if Q.is_zero r then Exact Q.zero
  else if Q.compare (Q.abs r) (Q.of_ints 1 4) <= 0 then ln_1p ~prec r
  else begin
    let x = Q.add Q.one r in
    if Q.sign x <= 0 then invalid_arg "Elementary.log1p: argument <= -1";
    ln ~prec x
  end

(* ------------------------------------------------------------------ *)
(* Fast first phase.                                                   *)
(*                                                                     *)
(* Ziv's strategy as CR-LIBM and CORE-MATH use it: evaluate f at a     *)
(* double input in double-double arithmetic ({!Dd}) under a relative   *)
(* error bound stated per core below, and round the two ends of the    *)
(* enclosure.  Only when they round apart, or the input lies outside   *)
(* the core's domain, does the Bigfloat loop run.  Each stated bound   *)
(* is at least 2^9 times the sum of the error terms its comment        *)
(* lists, so slack in the analysis cannot turn into a wrong answer.    *)
(* ------------------------------------------------------------------ *)

module D = Dd

(* What a fast core knows about f(x): a value with a relative error
   bound, or that f(x) is exactly zero (a case its exact reduction
   recognizes, whose sign of zero is the caller's [round]'s to give). *)
type approx = Near of D.t * float | Zero

let dd_of_rational q =
  let hi = Q.to_float q in
  { D.hi; lo = Q.to_float (Q.sub q (Q.of_float hi)) }

(* Table entries come from the Bigfloat functions above at 160 bits, so
   each double-double entry is within 2^-105 of its value. *)
let table_prec = 160
let dd_of_big v = dd_of_rational (F.to_rational v)
let dd_of_result = function Exact q -> dd_of_rational q | Approx v -> dd_of_big v

(* 2/pi for the Payne–Hanek reduction: 16 bits per word, most
   significant first, after [ph_pad] zero bits, so word k holds bits
   16k - ph_pad + 1 .. 16k - ph_pad + 16 of the binary expansion
   0.1010001011111001... of 2/pi.  [ph_words] words reach bit 1376, past
   the deepest bit any input in the fast domain reads (~1200: exponent
   970 plus eight 28-bit limbs). *)
let ph_pad = 64
let ph_words = 90
let ph_bits = (16 * ph_words) - ph_pad

let two_over_pi_words () =
  let w = ph_bits + 64 in
  (* Relative error below 2^(1-w): at most the last of the [ph_bits]
     bits can be off, far below every bit the reduction reads. *)
  let inv = F.div ~prec:w (F.of_int 2) (pi ~prec:w) in
  let t = Q.floor (Q.mul_pow2 (F.to_rational inv) ph_bits) in
  Array.init ph_words (fun k ->
      B.to_int_exn (B.rem (B.shift_right t (16 * (ph_words - 1 - k))) (B.of_int 0x10000)))

type tables = {
  ln2 : D.t;
  ln2_64 : D.t;  (* ln 2 / 64 *)
  inv_ln2 : D.t;
  inv_ln10 : D.t;
  log10_2 : D.t;
  ln10 : D.t;
  pi_dd : D.t;
  two_over_pi : D.t;
  ln_c : D.t array;  (* ln (i/64), i in [48, 96] *)
  exp2_j : D.t array;  (* 2^(j/64), j in [0, 63] *)
  sinpi_n : D.t array;  (* sinpi (n/64), n in [0, 32] *)
  cospi_n : D.t array;
  exp_c : D.t array;  (* 1/k!, k in [0, 10] *)
  sinh_c : D.t array;  (* 1/(2k+1)!, k in [0, 12]: sinh x / x in x^2 *)
  sin_c : D.t array;  (* (-1)^k/(2k+1)!, k in [0, 6]: sin t / t in t^2 *)
  cos_c : D.t array;  (* (-1)^k/(2k)!, k in [0, 6] *)
  atanh_c : D.t array;  (* 1/(2k+1), k in [0, 6]: atanh z / z in z^2 *)
  pio2_words : int array;
}

let rec fact k = if k <= 1 then B.one else B.mul_int (fact (k - 1)) k
let inv_fact k = dd_of_rational (Q.make B.one (fact k))
let alternate c = Array.mapi (fun k v -> if k land 1 = 0 then v else D.neg v) c

let build_tables () =
  let prec = table_prec in
  let quo a b = dd_of_big (F.div ~prec a b) in
  let at f q = dd_of_result (f ~prec q) in
  {
    ln2 = dd_of_big (ln2 ~prec);
    ln2_64 = D.ldexp (dd_of_big (ln2 ~prec)) (-6);
    inv_ln2 = quo F.one (ln2 ~prec);
    inv_ln10 = quo F.one (ln10 ~prec);
    log10_2 = quo (ln2 ~prec) (ln10 ~prec);
    ln10 = dd_of_big (ln10 ~prec);
    pi_dd = dd_of_big (pi ~prec);
    two_over_pi = quo (F.of_int 2) (pi ~prec);
    ln_c = Array.init 49 (fun k -> at ln (Q.of_ints (k + 48) 64));
    exp2_j = Array.init 64 (fun j -> at exp2 (Q.of_ints j 64));
    sinpi_n = Array.init 33 (fun n -> at sinpi (Q.of_ints n 64));
    cospi_n = Array.init 33 (fun n -> at cospi (Q.of_ints n 64));
    exp_c = Array.init 11 inv_fact;
    sinh_c = Array.init 13 (fun k -> inv_fact ((2 * k) + 1));
    sin_c = alternate (Array.init 7 (fun k -> inv_fact ((2 * k) + 1)));
    cos_c = alternate (Array.init 7 (fun k -> inv_fact (2 * k)));
    atanh_c = Array.init 7 (fun k -> dd_of_rational (Q.of_ints 1 ((2 * k) + 1)));
    pio2_words = two_over_pi_words ();
  }

(* Built once per process, under a mutex, on the first fast-phase call:
   the oracle runs on several domains at once. *)
let fast_tables : tables option Atomic.t = Atomic.make None
let fast_mu = Mutex.create ()

let tables () =
  match Atomic.get fast_tables with
  | Some t -> t
  | None ->
      Mutex.protect fast_mu (fun () ->
          match Atomic.get fast_tables with
          | Some t -> t
          | None ->
              let t = build_tables () in
              Atomic.set fast_tables (Some t);
              t)

let two_over_pi_bits n =
  if n < 0 || n > ph_bits then invalid_arg "Elementary.two_over_pi_bits";
  let all =
    Array.fold_left (fun acc w -> B.add (B.shift_left acc 16) (B.of_int w)) B.zero (tables ()).pio2_words
  in
  B.shift_right all (ph_bits - n)

(* ---- log core -------------------------------------------------------

   x = 2^e m with m in [0.75, 1.5); c = i/64 nearest m (i in [48, 96]);
   ln m = ln c + 2 atanh z with z = (m - c)/(m + c), |z| <= 2^-7.5.
   m - c is exact (Sterbenz) and m + c an exact TwoSum.  Error terms,
   relative: table 2^-105; z (one division) 2^-101; the atanh series
   stops after z^12/13, leaving z^14/15 < 2^-108; 14 Horner operations
   of at most 2^-101 each, on sums of condition number 1 + 2^-14.
   ln c + 2 atanh z cancels by at most a factor 3 (|ln c| >= 2|2 atanh z|
   whenever c <> 1), and e*C + (ln m)*C' by at most a factor 4
   (|log2 m| <= 0.585 against |e| >= 1).  Total below 2^-94; stated
   bound 2^-80. *)
let log_bound = 0x1p-80

let ln_mant t m =
  let i = Float.to_int (Float.round (m *. 64.0)) in
  let c = float_of_int i /. 64.0 in
  let z = D.div (D.of_float (m -. c)) (D.two_sum m c) in
  let a = D.mul z (D.horner t.atanh_c (D.mul z z)) in
  D.add t.ln_c.(i - 48) (D.ldexp a 1)

let split_log x =
  let fr, ex = Float.frexp x in
  if fr < 0.75 then (2.0 *. fr, ex - 1) else (fr, ex)

let fast_ln t x =
  if x <= 0.0 then None
  else if x = 1.0 then Some Zero
  else begin
    let m, e = split_log x in
    Some (Near (D.add (D.mul_float t.ln2 (float_of_int e)) (ln_mant t m), log_bound))
  end

let fast_log2 t x =
  if x <= 0.0 then None
  else if x = 1.0 then Some Zero
  else begin
    let m, e = split_log x in
    Some (Near (D.add_float (D.mul (ln_mant t m) t.inv_ln2) (float_of_int e), log_bound))
  end

let fast_log10 t x =
  if x <= 0.0 then None
  else if x = 1.0 then Some Zero
  else begin
    let m, e = split_log x in
    Some
      (Near (D.add (D.mul_float t.log10_2 (float_of_int e)) (D.mul (ln_mant t m) t.inv_ln10), log_bound))
  end

(* The generator's log components: ln(1 + r) = 2 atanh(r/(2 + r)) for
   |r| <= 2^-6 (the log family reduces to r in [0, 2^-7)), so |z| <=
   2^-7.  2 + r is an exact TwoSum; the error terms are the log core's
   without its table and cancellation, below 2^-97; stated bound 2^-80. *)
let ln_1p_dd t r =
  let z = D.div (D.of_float r) (D.two_sum 2.0 r) in
  D.ldexp (D.mul z (D.horner t.atanh_c (D.mul z z))) 1

let log_1p_core scale t r =
  if Float.abs r > 0x1p-6 then None
  else if r = 0.0 then Some Zero
  else Some (Near (scale t (ln_1p_dd t r), log_bound))

let fast_ln_1p = log_1p_core (fun _ v -> v)
let fast_log2_1p = log_1p_core (fun t v -> D.mul v t.inv_ln2)
let fast_log10_1p = log_1p_core (fun t v -> D.mul v t.inv_ln10)

(* ---- exp core -------------------------------------------------------

   f(x) = 2^k 2^(j/64) exp(r) with |r| <= (ln 2/128)(1 + 2^-40).  The
   relative error of exp(r) is the absolute error of r.  Error terms: r
   from x - N ln2/64 with both terms below 660 in magnitude, two
   products and a subtraction, absolute 2^-93; Taylor stopped after
   r^10/10!, 2^-107; 22 Horner operations on sums of condition number
   1.02, 2^-96; table 2^-105; the final product 2^-101.  Total below
   2^-92; stated bound 2^-80.  The domains keep every result inside
   [2^-953, 2^953], where the low word stays normal. *)
let exp_bound = 0x1p-80

let exp_core t n r = D.ldexp (D.mul t.exp2_j.(n land 63) (D.horner t.exp_c r)) (n asr 6)
let inv_ln2_64 = 64.0 /. Float.log 2.0

let exp_of t x =
  let n = Float.to_int (Float.round (x *. inv_ln2_64)) in
  exp_core t n (D.sub (D.of_float x) (D.mul_float t.ln2_64 (float_of_int n)))

let fast_exp t x = if Float.abs x <= 660.0 then Some (Near (exp_of t x, exp_bound)) else None

let fast_exp2 t x =
  if Float.abs x <= 950.0 then begin
    let n = Float.to_int (Float.round (x *. 64.0)) in
    (* Exact: both terms are multiples of min(ulp x, 2^-6) and differ by
       at most 2^-7. *)
    let f = x -. (float_of_int n /. 64.0) in
    Some (Near (exp_core t n (D.mul_float t.ln2 f), exp_bound))
  end
  else None

let fast_exp10 t x =
  if Float.abs x <= 285.0 then begin
    let n = Float.to_int (Float.round (x *. (64.0 *. 3.321928094887362))) in
    let r = D.sub (D.mul_float t.ln10 x) (D.mul_float t.ln2_64 (float_of_int n)) in
    Some (Near (exp_core t n r, exp_bound))
  end
  else None

(* sinh and cosh from E = exp|x|: cosh = (E + 1/E)/2 adds positive terms;
   sinh = (E - 1/E)/2 for |x| >= 1/2 cancels by at most coth(1/2) < 2.2.
   Below 1/2, sinh x = x (1 + x^2/3! + ... + x^24/25!), truncation
   2^-107.  Each is within 2^-89 of its value; stated bound 2^-80. *)
let fast_sinh t x =
  let a = Float.abs x in
  if a > 660.0 then None
  else if a = 0.0 then Some Zero
  else begin
    let v =
      if a < 0.5 then D.mul_float (D.horner t.sinh_c (D.two_prod a a)) a
      else begin
        let e = exp_of t a in
        D.ldexp (D.sub e (D.div (D.of_float 1.0) e)) (-1)
      end
    in
    Some (Near ((if x < 0.0 then D.neg v else v), exp_bound))
  end

let fast_cosh t x =
  let a = Float.abs x in
  if a > 660.0 then None
  else begin
    let e = exp_of t a in
    Some (Near (D.ldexp (D.add e (D.div (D.of_float 1.0) e)) (-1), exp_bound))
  end

(* ---- sinpi/cospi core -----------------------------------------------

   For l = lh + ll in [0, 1/2]: l = n/64 + rho with |rho| <= 2^-7,
   theta = pi rho, and the angle sums
     sinpi l = S_n cos theta + C_n sin theta,
     cospi l = C_n cos theta - S_n sin theta.
   Error terms: theta 2^-102; each Taylor series (to theta^13/13! and
   theta^12/12!) stops below 2^-111, and its 14 Horner operations add
   2^-97; tables 2^-105.  Neither sum cancels by more than a factor 3
   (the worst cases are n = 1 for sinpi and n = 31 for cospi; n = 32
   has C_n = 0 exactly).  Each result is within 2^-93 of its value;
   stated bound 2^-80. *)
let sincospi_bound = 0x1p-80

let sincospi t (l : D.t) =
  let n = Float.to_int (Float.round (l.hi *. 64.0)) in
  (* Exact, as in fast_exp2. *)
  let rho = D.add_float (D.of_float l.lo) (l.hi -. (float_of_int n /. 64.0)) in
  let th = D.mul t.pi_dd rho in
  let th2 = D.mul th th in
  let s = D.mul th (D.horner t.sin_c th2) and c = D.horner t.cos_c th2 in
  let sn = t.sinpi_n.(n) and cn = t.cospi_n.(n) in
  (D.add (D.mul sn c) (D.mul cn s), D.sub (D.mul cn c) (D.mul sn s))

(* z = 2i + k + l with k in {0, 1} and l in [0, 1), all exact for
   0 <= z < 2^52. *)
let mod2_split z =
  let j = z -. (2.0 *. Float.floor (z /. 2.0)) in
  if j >= 1.0 then (1, j -. 1.0) else (0, j)

let fast_sinpi t x =
  let z = Float.abs x in
  if z >= 0x1p52 then None
  else begin
    let k, l = mod2_split z in
    if l = 0.0 then Some Zero
    else begin
      let s, _ = sincospi t (D.of_float (if l > 0.5 then 1.0 -. l else l)) in
      Some (Near ((if x < 0.0 <> (k = 1) then D.neg s else s), sincospi_bound))
    end
  end

let fast_cospi t x =
  let z = Float.abs x in
  if z >= 0x1p52 then None
  else begin
    let k, l = mod2_split z in
    if l = 0.5 then Some Zero
    else begin
      let mirror = l > 0.5 in
      let _, c = sincospi t (D.of_float (if mirror then 1.0 -. l else l)) in
      Some (Near ((if (k = 1) <> mirror then D.neg c else c), sincospi_bound))
    end
  end

(* ---- sin/cos/tan core -----------------------------------------------

   Reduce a = |x| to a (2/pi) = q + f (mod 4) with f in [-1/2, 1/2];
   then sin a and cos a are +-sinpi(|f|/2) or +-cospi(|f|/2) by quadrant.

   For a <= 1/2, q = 0 and f = a (2/pi) in double-double (2^-102).

   Otherwise a fixed-point Payne–Hanek reduction: a = m 2^e with m a
   53-bit integer; bits of 2/pi whose product weight 2^(e-i) is 4 or more
   contribute multiples of 4 and are skipped.  Eight 28-bit limbs of 2/pi
   from bit e - 1 on, against m split as mh 2^28 + ml, give column sums
   below 2^57 in native ints.  The dropped products leave an absolute
   error below 2^-165 on f; converting f's 194 bits to double-double
   adds a relative 2^-101.  The sinpi/cospi core adds its 2^-80, tan's
   quotient 2^-101, and an absolute error d on f is a relative error of
   at most 2d/|f| on every result.  Stated bound: 2^-79 + 2^-150/|f|,
   computed at run time from the actual f. *)
let ph_limbs = 7

(* The 28-bit window of 2/pi whose most significant bit is bit [i]. *)
let limb w i =
  let p = i + ph_pad - 1 in
  let a = p lsr 4 and o = p land 15 in
  let w48 = (w.(a) lsl 32) lor (w.(a + 1) lsl 16) lor w.(a + 2) in
  (w48 lsr (20 - o)) land 0xFFFFFFF

let payne_hanek t a =
  let fr, ex = Float.frexp a in
  let m = Float.to_int (Float.ldexp fr 53) in
  let e = ex - 53 in
  let mh = m lsr 28 and ml = m land 0xFFFFFFF in
  let w = t.pio2_words in
  (* col.(c) has weight 2^(-26 - 28c); mh * limb_0 lands at weight 4
     and is dropped. *)
  let col = Array.make ph_limbs 0 in
  let prev = ref (limb w (e - 1)) in
  for c = 0 to ph_limbs - 1 do
    let next = limb w (e - 1 + (28 * (c + 1))) in
    col.(c) <- (ml * !prev) + (mh * next);
    prev := next
  done;
  for c = ph_limbs - 1 downto 1 do
    col.(c - 1) <- col.(c - 1) + (col.(c) lsr 28);
    col.(c) <- col.(c) land 0xFFFFFFF
  done;
  let q = (col.(0) lsr 26) land 3 in
  col.(0) <- col.(0) land 0x3FFFFFF;
  (* A fraction of 1/2 or more becomes its complement, negated, against
     the next quadrant. *)
  let q, neg =
    if col.(0) land 0x2000000 = 0 then (q, false)
    else begin
      col.(0) <- col.(0) lxor 0x3FFFFFF;
      for c = 1 to ph_limbs - 1 do
        col.(c) <- col.(c) lxor 0xFFFFFFF
      done;
      let c = ref (ph_limbs - 1) in
      col.(!c) <- col.(!c) + 1;
      while !c > 0 && col.(!c) > 0xFFFFFFF do
        col.(!c) <- col.(!c) land 0xFFFFFFF;
        decr c;
        col.(!c) <- col.(!c) + 1
      done;
      ((q + 1) land 3, true)
    end
  in
  let f = ref D.zero in
  for c = ph_limbs - 1 downto 0 do
    f := D.add_float !f (Float.ldexp (float_of_int col.(c)) (-26 - (28 * c)))
  done;
  (q, if neg then D.neg !f else !f)

(* (sin |x|, cos |x|, relative bound), or None when f vanished. *)
let trig t x =
  let a = Float.abs x in
  let q, f, bound =
    if a <= 0.5 then (0, D.mul_float t.two_over_pi a, 0x1p-79)
    else begin
      let q, f = payne_hanek t a in
      (q, f, 0x1p-79 +. (0x1p-150 /. Float.abs f.hi))
    end
  in
  if f.hi = 0.0 then None
  else begin
    let s, c = sincospi t (D.ldexp (D.abs f) (-1)) in
    let s = if f.hi < 0.0 then D.neg s else s in
    Some
      (match q with
      | 0 -> (s, c, bound)
      | 1 -> (c, D.neg s, bound)
      | 2 -> (D.neg s, D.neg c, bound)
      | _ -> (D.neg c, s, bound))
  end

let odd x v = if x < 0.0 then D.neg v else v

let fast_sin t x = Option.map (fun (s, _, b) -> Near (odd x s, b)) (trig t x)
let fast_cos t x = Option.map (fun (_, c, b) -> Near (c, b)) (trig t x)
let fast_tan t x = Option.map (fun (s, c, b) -> Near (odd x (D.div s c), b)) (trig t x)

(* The functions with a fast phase, matched by physical identity: any
   other [fn] — a wrapper around one of these included — runs Ziv's loop
   directly.  tanh, expm1 and log1p have none. *)
let fast_cores : (fn * (tables -> float -> approx option)) list =
  [
    (ln, fast_ln);
    (log2, fast_log2);
    (log10, fast_log10);
    (ln_1p, fast_ln_1p);
    (log2_1p, fast_log2_1p);
    (log10_1p, fast_log10_1p);
    (exp, fast_exp);
    (exp2, fast_exp2);
    (exp10, fast_exp10);
    (sinh, fast_sinh);
    (cosh, fast_cosh);
    (sinpi, fast_sinpi);
    (cospi, fast_cospi);
    (sin, fast_sin);
    (cos, fast_cos);
    (tan, fast_tan);
  ]

(* The double equal to [x], when [x] is zero or a double of magnitude
   in [2^-900, 2^1000]: the range every core's analysis assumes (TwoProd
   and the low words stay clear of underflow). *)
let double_of_q x =
  let n = Q.num x and d = Q.den x in
  if B.is_zero n then Some 0.0
  else if not (B.is_pow2 d) then None
  else begin
    let tz = if B.equal d B.one then B.trailing_zeros n else 0 in
    if B.bit_length n - tz > 53 then None
    else begin
      let v = Float.ldexp (B.to_float n) (1 - B.bit_length d) in
      let a = Float.abs v in
      if a >= 0x1p-900 && a <= 0x1p1000 then Some v else None
    end
  end

(* What the fast phase knows about f x: [Near (v, err)] with
   |f(x) - v| <= err (the bound turns absolute here), or [Zero].  A
   [Near] value must lie well inside the normal range; one that does not
   goes to Ziv's loop. *)
let enclose core x =
  match double_of_q x with
  | None -> None
  | Some xd -> (
      match core (tables ()) xd with
      | Some Zero -> Some Zero
      | Some (Near ((v : D.t), rel))
        when Float.abs v.hi >= 0x1p-960 && Float.abs v.hi <= 0x1p1020 && rel < 0.25 ->
          (* |v| <= |v.hi| (1 + 2^-52), so 2 rel |v.hi| covers rel |v|;
             rel < 1/4 keeps zero, and a sign change, out of it. *)
          Some (Near (v, 2.0 *. rel *. Float.abs v.hi))
      | _ -> None)

let fast_enclosure (f : fn) x =
  match List.assq_opt f fast_cores with
  | None -> None
  | Some core ->
      Option.map
        (function
          | Zero -> (Q.zero, Q.zero)
          | Near ((v : D.t), err) ->
              let q = Q.add (Q.of_float v.hi) (Q.of_float v.lo) and e = Q.of_float err in
              (Q.sub q e, Q.add q e))
        (enclose core x)

(* ---- phase counters ------------------------------------------------ *)

let max_steps = 12

type dcounts = {
  mutable n_fast : int;
  mutable n_escalated : int;
  mutable n_direct : int;
  steps : int array;  (* Ziv runs by the number of precisions tried *)
}

let fresh_counts () =
  { n_fast = 0; n_escalated = 0; n_direct = 0; steps = Array.make max_steps 0 }

(* Records of the live domains, and the sum over the domains that have
   exited, all under [registry_mu]. *)
let registry : dcounts list ref = ref []
let retired = fresh_counts ()
let registry_mu = Mutex.create ()

(* One record per domain, registered when the domain first calls the
   oracle and folded into [retired] when it exits (worker pools spawn
   domains per pass, so the list must not grow with them): the hot path
   bumps plain fields of its own domain's record and touches no shared
   state. *)
let counts_key =
  Domain.DLS.new_key (fun () ->
      let c = fresh_counts () in
      Mutex.protect registry_mu (fun () -> registry := c :: !registry);
      Domain.at_exit (fun () ->
          Mutex.protect registry_mu (fun () ->
              registry := List.filter (fun d -> d != c) !registry;
              retired.n_fast <- retired.n_fast + c.n_fast;
              retired.n_escalated <- retired.n_escalated + c.n_escalated;
              retired.n_direct <- retired.n_direct + c.n_direct;
              Array.iteri (fun i v -> retired.steps.(i) <- retired.steps.(i) + v) c.steps));
      c)

type phase_counts = { fast : int; escalated : int; ziv_only : int; ziv_steps : int array }

let phase_counts () =
  Mutex.protect registry_mu (fun () ->
      List.fold_left
        (fun acc c ->
          {
            fast = acc.fast + c.n_fast;
            escalated = acc.escalated + c.n_escalated;
            ziv_only = acc.ziv_only + c.n_direct;
            ziv_steps = Array.mapi (fun i v -> v + c.steps.(i)) acc.ziv_steps;
          })
        {
          fast = retired.n_fast;
          escalated = retired.n_escalated;
          ziv_only = retired.n_direct;
          ziv_steps = Array.copy retired.steps;
        }
        !registry)

let phase_diff a b =
  {
    fast = a.fast - b.fast;
    escalated = a.escalated - b.escalated;
    ziv_only = a.ziv_only - b.ziv_only;
    ziv_steps = Array.mapi (fun i v -> v - b.ziv_steps.(i)) a.ziv_steps;
  }

let pp_phase_counts fmt p =
  let tried = p.fast + p.escalated in
  Format.fprintf fmt "oracle %d fast / %d escalated (%.3f%% fast), %d Ziv-only" p.fast p.escalated
    (if tried = 0 then 100.0 else 100.0 *. float_of_int p.fast /. float_of_int tried)
    p.ziv_only;
  Array.iteri (fun i n -> if n > 0 then Format.fprintf fmt ", %d at %d bits" n (80 lsl i)) p.ziv_steps

(* ------------------------------------------------------------------ *)
(* Ziv's strategy.                                                     *)
(* ------------------------------------------------------------------ *)

let ziv ~init_prec ~round (f : fn) x =
  let settled step y =
    let c = Domain.DLS.get counts_key in
    let i = Stdlib.min step (max_steps - 1) in
    c.steps.(i) <- c.steps.(i) + 1;
    y
  in
  let rec go prec step =
    if prec > 1 lsl 16 then failwith "Elementary.correctly_rounded: Ziv loop did not converge";
    match f ~prec x with
    | Exact q -> settled step (round q)
    | Approx y ->
        let qy = F.to_rational y in
        let margin = Rational.abs (Q.mul_pow2 qy (12 - prec)) in
        let lo = Q.sub qy margin and hi = Q.add qy margin in
        let rlo = round lo and rhi = round hi in
        if rlo = rhi then settled step rlo else go (prec * 2) (step + 1)
  in
  go init_prec 0

(* The fast phase's verdict.  On an enclosure [v - err, v + err]: first
   the two doubles just outside it, through [round_double] (no rational
   arithmetic at all) or else [round] of their exact values; then, when
   those round apart, the double-double ends themselves, as rationals,
   which settles most round-to-double callers too.  An exact zero rounds
   as Ziv's loop rounds its [Exact] zero. *)
let settle ?round_double ~round = function
  | Zero -> Some (round Q.zero)
  | Near ((v : D.t), err) ->
      let rd = match round_double with Some rd -> rd | None -> fun d -> round (Q.of_float d) in
      let ra = rd (Float.pred (v.hi +. (v.lo -. err))) in
      if ra = rd (Float.succ (v.hi +. (v.lo +. err))) then Some ra
      else begin
        let h = Q.of_float v.hi in
        let ra = round (Q.add h (Q.of_float (Float.pred (v.lo -. err)))) in
        if ra = round (Q.add h (Q.of_float (Float.succ (v.lo +. err)))) then Some ra else None
      end

let correctly_rounded ?(init_prec = 80) ?round_double ~round (f : fn) x =
  let c = Domain.DLS.get counts_key in
  match List.assq_opt f fast_cores with
  | None ->
      c.n_direct <- c.n_direct + 1;
      ziv ~init_prec ~round f x
  | Some core -> (
      match Option.bind (enclose core x) (settle ?round_double ~round) with
      | Some y ->
          c.n_fast <- c.n_fast + 1;
          y
      | None ->
          c.n_escalated <- c.n_escalated + 1;
          ziv ~init_prec ~round f x)

let to_double f x = correctly_rounded ~round:Q.to_float f x

let by_name = function
  | "exp" -> exp
  | "exp2" -> exp2
  | "exp10" -> exp10
  | "ln" -> ln
  | "log2" -> log2
  | "log10" -> log10
  | "sinh" -> sinh
  | "cosh" -> cosh
  | "sinpi" -> sinpi
  | "cospi" -> cospi
  | "sin" -> sin
  | "cos" -> cos
  | "tan" -> tan
  | "tanh" -> tanh
  | "expm1" -> expm1
  | "log1p" -> log1p
  | name -> invalid_arg ("Elementary.by_name: unknown function " ^ name)
