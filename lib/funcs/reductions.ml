(* Range reductions RR_H and output compensations OC_H, in double.

   Each family packs whatever OC needs (table index, scale, signs) into
   the integer [key] of [Spec.reduction].  All OCs are monotone in the
   component values: table entries are non-negative by construction
   (§3.2 requires it; §5's cospi redesign achieves it for cospi). *)

module S = Rlibm.Spec

(* ------------------------------------------------------------------ *)
(* Log family: x = 2^e * m, m in [1,2); F = 1 + j/128 from m's top 7   *)
(* mantissa bits; r = (m - F)/F in [0, 2^-7); then                     *)
(*   log(x) = e*log(2) + log(F) + log1p(r).                            *)
(* ------------------------------------------------------------------ *)

(* Decompose a positive finite double.  Exact except for the final
   division by F. *)
let log_reduce x =
  let m, ex = Float.frexp x in
  (* m in [0.5, 1); rescale to [1, 2). *)
  let m = 2.0 *. m and e = ex - 1 in
  let j = Int64.to_int (Int64.logand (Int64.shift_right_logical (Fp.Fp64.bits m) 45) 0x7FL) in
  let f = m -. (1.0 +. (float_of_int j /. 128.0)) in
  let r = f /. (1.0 +. (float_of_int j /. 128.0)) in
  { S.r; key = j lor ((e + 2048) lsl 8) }

let log_key key = (key land 0xFF, (key lsr 8) - 2048)

(* OC for ln: v = ln(1+r) |-> e*ln2 + lnF[j] + v.  Monotone increasing. *)
let ln_compensate rr (v : float array) =
  let j, e = log_key rr.S.key in
  (float_of_int e *. Parallel.Once.get Tables.ln2_d) +. (Parallel.Once.get Tables.ln_f).(j) +. v.(0)

let log2_compensate rr (v : float array) =
  let j, e = log_key rr.S.key in
  float_of_int e +. (Parallel.Once.get Tables.log2_f).(j) +. v.(0)

let log10_compensate rr (v : float array) =
  let j, e = log_key rr.S.key in
  (float_of_int e *. Parallel.Once.get Tables.log10_2_d) +. (Parallel.Once.get Tables.log10_f).(j) +. v.(0)

(* Analytic hull of the log families' reduced input: r = f/F with
   0 <= f < 2^-7; the smallest nonzero f is one ulp of the (<= 28-bit
   significand) input value near an F grid point, so r >= ~2^-31 for
   every 32-bit target (log1p widens the significand to ~49 bits only
   for inputs whose r stays >= 2^-31 anyway).  Keeping the hull's low
   end close to the true minimum matters: the sub-domain index clamps
   r = 0 to the low end, and a hull that reaches far below the real
   reduced inputs manufactures phantom sub-domains whose only content is
   that degenerate constraint. *)
let log_dom_pos = (Float.ldexp 1.0 (-33), Float.ldexp 1.0 (-7))

(* ------------------------------------------------------------------ *)
(* Exp family: k = round(x * 64/log_b(2)); q = k/64, j = k mod 64;     *)
(*   b^x = 2^q * 2^(j/64) * b^r,   r = x - k*log_b(2)/64.              *)
(* The reduction constant is split Cody-Waite style so k*hi is exact.  *)
(* ------------------------------------------------------------------ *)

let exp_key key = (key land 0xFF, (key lsr 8) - 2048)

(* Generic exp-family reduction; [inv_c] = 64/log_b(2) as a double,
   [cw] the split constant log_b(2)/64. *)
let exp_reduce ~inv_c ~(cw : Tables.cody_waite) x =
  let k = Float.to_int (Float.round (x *. inv_c)) in
  let fk = float_of_int k in
  let r = x -. (fk *. cw.hi) -. (fk *. cw.lo) in
  let q = k asr 6 and j = k land 63 in
  { S.r; key = j lor ((q + 2048) lsl 8) }

(* exp2 needs no Cody-Waite: r = x - k/64 is exact in double. *)
let exp2_reduce x =
  let k = Float.to_int (Float.round (x *. 64.0)) in
  let r = x -. (float_of_int k /. 64.0) in
  let q = k asr 6 and j = k land 63 in
  { S.r; key = j lor ((q + 2048) lsl 8) }

(* OC: v = b^r |-> 2^q * (T2[j] * v).  T2 > 0, so monotone increasing. *)
let exp_compensate rr (v : float array) =
  let j, q = exp_key rr.S.key in
  Tables.pow2 q *. ((Parallel.Once.get Tables.exp2_j).(j) *. v.(0))

(* r spans [-log_b(2)/128, +log_b(2)/128]; down to one target ulp. *)
let exp_dom ~half_width =
  ( Some (-.half_width, -.Float.ldexp 1.0 (-36)),
    Some (Float.ldexp 1.0 (-36), half_width) )

(* ------------------------------------------------------------------ *)
(* sinpi (§2): |x| = 2I + J; J = K + L; L' = L or 1-L; L' = N/512 + R. *)
(*   sinpi(x) = S * (spn[N]*cospi(R) + cpn[N]*sinpi(R)),               *)
(*   S = sign(x) * (-1)^K.                                             *)
(* Components are ordered [sinpi_r; cospi_r] for this family.  The key *)
(* holds N, S (bit 9) and sign(x) (bit 10).                            *)
(* ------------------------------------------------------------------ *)

(* Exact fractional decomposition of z >= 0 (z < 2^52): z mod 2 and its
   integer/fraction split, all exact in double. *)
let mod2_split z =
  let j = z -. (2.0 *. Float.of_int (Float.to_int (z /. 2.0))) in
  let j = if j < 0.0 then j +. 2.0 else j in
  let k = if j >= 1.0 then 1 else 0 in
  let l = j -. float_of_int k in
  (k, l)

let sinpi_reduce x =
  let sign0 = if x < 0.0 || (x = 0.0 && 1.0 /. x < 0.0) then -1 else 1 in
  let z = Float.abs x in
  let k, l = mod2_split z in
  (* Mirror around 1/2: sinpi(l) = sinpi(1-l); 1-l is exact (Sterbenz). *)
  let l' = if l > 0.5 then 1.0 -. l else l in
  let n = Stdlib.min (Float.to_int (l' *. 512.0)) 255 in
  let r = l' -. (float_of_int n /. 512.0) in
  let s = sign0 * if k = 1 then -1 else 1 in
  { S.r; key = n lor ((if s < 0 then 1 else 0) lsl 9) lor ((if sign0 < 0 then 1 else 0) lsl 10) }

(* S * t computed as sign(x) * (K' cpn v0 + 0 + K' spn v1), K' = (-1)^K:
   multiplying by +-1 is exact and adding +0 changes no nonzero value,
   so every nonzero result is bit-identical to S * t, while a zero (an
   integer x) becomes +0 before sign(x) signs it, as IEEE 754 requires
   (sinPi(+-n) = +-0).  The +0 rides on the v0 term, off the v1 path. *)
let sinpi_compensate rr (v : float array) =
  let n = rr.S.key land 0x1FF in
  let s = if rr.S.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
  let sx = if rr.S.key land (1 lsl 10) <> 0 then -1.0 else 1.0 in
  let k = s *. sx in
  let spn = (Parallel.Once.get Tables.sinpi_n).(n) and cpn = (Parallel.Once.get Tables.cospi_n).(n) in
  sx *. (((k *. cpn *. v.(0)) +. 0.0) +. (k *. spn *. v.(1)))

(* ------------------------------------------------------------------ *)
(* cospi (§5): after folding to L' in [0, 1/2], write L' = N'/512 - R  *)
(* with R in [0, 1/512] so every table coefficient stays non-negative  *)
(* and OC is monotone (the §5 redesign):                               *)
(*   cospi(L') = cpn[N']*cospi(R) + spn[N']*sinpi(R)   (N' in [1,256]) *)
(*   cospi(L') = cospi(R), R = L'                      (N' = 0).       *)
(* ------------------------------------------------------------------ *)

let cospi_reduce x =
  let z = Float.abs x in
  let k, l = mod2_split z in
  let m, l' = if l > 0.5 then (1, 1.0 -. l) else (0, l) in
  let n = Stdlib.min (Float.to_int (l' *. 512.0)) 255 in
  let n', r =
    if n = 0 && l' < 1.0 /. 1024.0 then (0, l')
    else begin
      (* Round up to the next table point; N'/512 - L' is exact. *)
      let n' = Float.to_int (Float.ceil (l' *. 512.0)) in
      let n' = if float_of_int n' /. 512.0 = l' then n' + 1 else n' in
      let n' = Stdlib.min n' 256 in
      (n', (float_of_int n' /. 512.0) -. l')
    end
  in
  let s = (if k = 1 then -1 else 1) * if m = 1 then -1 else 1 in
  { S.r; key = n' lor ((if s < 0 then 1 else 0) lsl 9) }

let cospi_compensate rr (v : float array) =
  let n' = rr.S.key land 0x1FF in
  let s = if rr.S.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
  if n' = 0 then s *. v.(1)
  else begin
    let spn = (Parallel.Once.get Tables.sinpi_n).(n') and cpn = (Parallel.Once.get Tables.cospi_n).(n') in
    s *. ((cpn *. v.(1)) +. (spn *. v.(0)))
  end

(* Reduced domain for both sinpi and cospi components. *)
let sincospi_dom_pos = (Float.ldexp 1.0 (-32), 1.0 /. 512.0)

(* ------------------------------------------------------------------ *)
(* sinh/cosh: |x| = N/64 + R, R in [0, 1/64), exact;                   *)
(*   sinh(|x|) = sh[N]*cosh(R) + ch[N]*sinh(R)                         *)
(*   cosh(|x|) = ch[N]*cosh(R) + sh[N]*sinh(R)                         *)
(* Components are ordered [sinh_r; cosh_r].                            *)
(* ------------------------------------------------------------------ *)

let sinhcosh_reduce x =
  let z = Float.abs x in
  let n = Float.to_int (z *. 64.0) in
  let r = z -. (float_of_int n /. 64.0) in
  { S.r; key = n lor ((if x < 0.0 then 1 else 0) lsl 13) }

let sinh_compensate rr (v : float array) =
  let n = rr.S.key land 0x1FFF in
  let s = if rr.S.key land (1 lsl 13) <> 0 then -1.0 else 1.0 in
  let sh = (Parallel.Once.get Tables.sinh_n).(n) and ch = (Parallel.Once.get Tables.cosh_n).(n) in
  s *. ((sh *. v.(1)) +. (ch *. v.(0)))

let cosh_compensate rr (v : float array) =
  let n = rr.S.key land 0x1FFF in
  let sh = (Parallel.Once.get Tables.sinh_n).(n) and ch = (Parallel.Once.get Tables.cosh_n).(n) in
  (ch *. v.(1)) +. (sh *. v.(0))

let sinhcosh_dom_pos = (Float.ldexp 1.0 (-31), 1.0 /. 64.0)

(* ------------------------------------------------------------------ *)
(* Extension functions (paper §7: more elementary functions on the     *)
(* same machinery).                                                    *)
(* ------------------------------------------------------------------ *)

(* tanh: tanh(|x|) = (W - 1)/(W + 1) with W = e^(2|x|), computed with
   the exp-family reduction on t = 2|x| (exact doubling).  OC is
   monotone increasing in the component value: d/dW[(W-1)/(W+1)] > 0. *)
let tanh_reduce x =
  let t = 2.0 *. Float.abs x in
  let red = exp_reduce ~inv_c:92.332482616893656877 ~cw:(Parallel.Once.get Tables.ln2_over_64) t in
  { red with S.key = red.S.key lor ((if x < 0.0 then 1 else 0) lsl 22) }

let tanh_compensate rr (v : float array) =
  let j, q = exp_key (rr.S.key land 0x3FFFFF) in
  let s = if rr.S.key land (1 lsl 22) <> 0 then -1.0 else 1.0 in
  let w = Tables.pow2 q *. ((Parallel.Once.get Tables.exp2_j).(j) *. v.(0)) in
  s *. ((w -. 1.0) /. (w +. 1.0))

(* expm1: same reduction as exp; OC subtracts 1 (exact by Sterbenz when
   the scaled value lands in [1/2, 2], absorbed by Algorithm 2
   elsewhere).  Monotone increasing. *)
let expm1_compensate rr (v : float array) =
  let j, q = exp_key rr.S.key in
  (Tables.pow2 q *. ((Parallel.Once.get Tables.exp2_j).(j) *. v.(0))) -. 1.0

(* log1p: z = 1 + x is exact in double for every target value outside
   the |x| <= tiny special region, so the log-family reduction applies
   verbatim to z. *)
let log1p_reduce x = log_reduce (1.0 +. x)

(* ------------------------------------------------------------------ *)
(* sin/cos/tan: Payne–Hanek reduction by the nearest multiple of pi/2. *)
(*                                                                     *)
(* |x| = D * 2^e with D < 2^26 (every trig target has at most 26       *)
(* significand bits).  The product |x| * 2/pi is accumulated against   *)
(* the fixed-point chunk table [Tables.two_over_pi] into a 210-bit     *)
(* window — 2 quadrant bits above the binary point, 208 fraction bits  *)
(* below.  Chunks whose contribution is a multiple of 4 (weight >= 4)  *)
(* are skipped outright; chunks entirely below 2^-208 are truncated    *)
(* (error < 2^-208, against |frac| >= ~2^-31 for every float32 input   *)
(* — the worst-case closeness of a 24-bit significand to a multiple    *)
(* of pi/2).  The fraction is rounded to the nearest integer of        *)
(* quadrants, leaving f in [-1/2, 1/2]; its magnitude keeps >= 60      *)
(* significant bits, so r1 = |f| * (pi/2) carries a relative error     *)
(* ~2^-52.  That error need not be zero: Algorithm 2 anchors every     *)
(* constraint at the *computed* r, and the generator's final           *)
(* validation replays this exact code path, so the certificate is      *)
(* about the value actually served.                                    *)
(*                                                                     *)
(* A second level then folds r1 = |f| * (pi/2) in [0, pi/4] against    *)
(* the sinpi/cospi tables: r1 = N*(pi/512) + r, N in [0, 128], |r| <=  *)
(* pi/1024, with sinpi_n[N] = sin(N*pi/512) and cospi_n[N] =           *)
(* cos(N*pi/512) exactly the existing table entries.  The components   *)
(* the generator fits are sin/cos of the tiny signed residual r —      *)
(* near-linear over the whole hull, so the piecewise fit stays inside  *)
(* the rounding interval *between* sampled float32 inputs too (the     *)
(* same property that makes sinpi's table residue-free).               *)
(*                                                                     *)
(* key layout: bits 0-1 quadrant q (k mod 4 for |x| = k*pi/2 +         *)
(* sr*r1), bit 2 the sign sr, bit 3 sign of x, bits 4-11 the table     *)
(* index N.  The residual r is signed; both sign groups are fitted,    *)
(* like the exp family's.                                              *)
(* ------------------------------------------------------------------ *)

let ph_limbs = 7 (* 7 x 30 = 210-bit window *)
let ph_frac = (30 * ph_limbs) - 2 (* fraction bits below the binary point *)

let trig_reduce x =
  let tbl = Parallel.Once.get Tables.two_over_pi in
  let a = Float.abs x in
  let m, ex = Float.frexp a in
  let dig = Float.to_int (Float.ldexp m 26) in
  let e = ex - 26 in
  if Float.ldexp (float_of_int dig) e <> a then
    invalid_arg "Reductions.trig_reduce: more than 26 significand bits";
  let limbs = Array.make ph_limbs 0 in
  for i = 0 to Tables.ph_chunks - 1 do
    let pos = e - (30 * (i + 1)) in
    (* pos >= 2: the contribution is a multiple of 4; pos + 56 < -ph_frac:
       entirely below the window. *)
    if pos < 2 && pos > -(ph_frac + 57) then begin
      let p = dig * tbl.(i) in
      let s = pos + ph_frac in
      if s >= 0 then begin
        let j = s / 30 and b = s mod 30 in
        limbs.(j) <- limbs.(j) + ((p land ((1 lsl (30 - b)) - 1)) lsl b);
        if j + 1 < ph_limbs then
          limbs.(j + 1) <- limbs.(j + 1) + ((p lsr (30 - b)) land 0x3FFFFFFF);
        if j + 2 < ph_limbs then limbs.(j + 2) <- limbs.(j + 2) + (p lsr (60 - b))
      end
      else begin
        let p = p lsr (-s) in
        limbs.(0) <- limbs.(0) + (p land 0x3FFFFFFF);
        limbs.(1) <- limbs.(1) + (p lsr 30)
      end
    end
  done;
  (* Normalize the lazy carries (each limb held < 3 * 2^30). *)
  let carry = ref 0 in
  for j = 0 to ph_limbs - 1 do
    let t = limbs.(j) + !carry in
    limbs.(j) <- t land 0x3FFFFFFF;
    carry := t lsr 30
  done;
  (* Top limb: 2 quadrant bits over 28 fraction bits. *)
  let q0 = (limbs.(ph_limbs - 1) lsr 28) land 3 in
  limbs.(ph_limbs - 1) <- limbs.(ph_limbs - 1) land 0xFFFFFFF;
  let half = limbs.(ph_limbs - 1) lsr 27 <> 0 in
  (* Round to the nearest quadrant: f >= 1/2 bumps k and flips the
     fraction to 1 - f (the reduced argument turns negative). *)
  let q = if half then (q0 + 1) land 3 else q0 in
  if half then begin
    let c = ref 1 in
    for j = 0 to ph_limbs - 1 do
      let m = if j = ph_limbs - 1 then 0xFFFFFFF else 0x3FFFFFFF in
      let t = m - limbs.(j) + !c in
      limbs.(j) <- t land 0x3FFFFFFF;
      c := t lsr 30
    done
  end;
  (* Assemble the top ~90 fraction bits into a double and scale by pi/2
     (correctly rounded pi, exactly halved). *)
  let hi = ref (ph_limbs - 1) in
  while !hi > 0 && limbs.(!hi) = 0 do
    decr hi
  done;
  let r1 =
    if limbs.(!hi) = 0 then 0.0
    else begin
      let l2 = if !hi >= 2 then limbs.(!hi - 2) else 0
      and l1 = if !hi >= 1 then limbs.(!hi - 1) else 0 in
      let t =
        Float.ldexp (float_of_int limbs.(!hi)) 60
        +. Float.ldexp (float_of_int l1) 30
        +. float_of_int l2
      in
      let f = Float.ldexp t ((30 * (!hi - 2)) - ph_frac) in
      f *. Float.ldexp (Parallel.Once.get Tables.pi_d) (-1)
    end
  in
  (* Second level: r1 = N*(pi/512) + r, Cody-Waite so N*hi is exact. *)
  let n = Float.to_int (Float.round (r1 *. Parallel.Once.get Tables.inv_pi_512)) in
  let cw : Tables.cody_waite = Parallel.Once.get Tables.pi_over_512 in
  let fn = float_of_int n in
  let r = r1 -. (fn *. cw.hi) -. (fn *. cw.lo) in
  let key =
    q
    lor ((if half then 1 else 0) lsl 2)
    lor ((if x < 0.0 then 1 else 0) lsl 3)
    lor (n lsl 4)
  in
  { S.r; key }

(* OC for the trig family.  With |x| = k*pi/2 + sr*r1 (sr = +-1 from
   key bit 2, q = k mod 4), r1 = N*(pi/512) + r, and components
   [sin_r; cos_r] evaluated at the signed residual r, the angle-sum
   identities rebuild
     u = sin r1 = cpn[N]*v0 + spn[N]*v1
     w = cos r1 = cpn[N]*v1 - spn[N]*v0
   (both table entries non-negative for N in [0, 128]) and then
     sin |x| = { sr*u; w; -sr*u; -w }.(q)
     cos |x| = { w; -sr*u; -w; sr*u }.(q)
     tan |x| = { sr*u/w; -sr*w/u }.(q mod 2)
   with sin x = sign(x)*sin|x|, cos x = cos|x|, tan x = sign(x)*tan|x|.
   Each OC is linear (or a quotient of linears) in (v0, v1) with mixed
   coefficient signs, so none is jointly monotone along the diagonal:
   all three specs set [oc_corners], and the §3.2 deduction probes box
   corners.  Axis-wise monotonicity (what corner probing needs) holds
   because each OC is linear along every axis-parallel segment, and a
   quotient's denominator (w >= cos(pi/4) - widening, or u bounded away
   from 0 by the worst-case closeness of a target value to a multiple
   of pi/2) cannot reach zero inside a contained box: a sign flip
   across the pole would land a corner outside any finite rounding
   interval, so the widening search backs off first. *)

let trig_signs key =
  ( (if key land 4 <> 0 then -1.0 else 1.0) (* sign sr of the level-1 residual *),
    if key land 8 <> 0 then -1.0 else 1.0 (* sign of x *) )

(* (sin r1, cos r1) from the component values at the residual. *)
let trig_uw key (v : float array) =
  let n = (key lsr 4) land 0xFF in
  let spn = (Parallel.Once.get Tables.sinpi_n).(n)
  and cpn = (Parallel.Once.get Tables.cospi_n).(n) in
  ((cpn *. v.(0)) +. (spn *. v.(1)), (cpn *. v.(1)) -. (spn *. v.(0)))

let sin_compensate rr (v : float array) =
  let sr, sx = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  let core =
    match rr.S.key land 3 with 0 -> sr *. u | 1 -> w | 2 -> -.(sr *. u) | _ -> -.w
  in
  sx *. core

let cos_compensate rr (v : float array) =
  let sr, _ = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  match rr.S.key land 3 with 0 -> w | 1 -> -.(sr *. u) | 2 -> -.w | _ -> sr *. u

let tan_compensate rr (v : float array) =
  let sr, sx = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  let core = if rr.S.key land 1 = 0 then sr *. (u /. w) else -.(sr *. (w /. u)) in
  sx *. core

(* Residual domain: |r| <= pi/1024, both signs (the rounding of r1 to
   the N grid).  The low end is nominal — residuals below it (or equal
   to zero) clamp into the smallest-magnitude sub-domain, exactly like
   the exp family's. *)
let trig_dom =
  ( Some (-0.0030680, -.Float.ldexp 1.0 (-40)),
    Some (Float.ldexp 1.0 (-40), 0.0030680) )
