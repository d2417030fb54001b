(** Correctly-rounded oracle for elementary functions.

    This is the reproduction's substitute for MPFR (§4.1 of the paper):
    each function computes an arbitrary-precision approximation whose
    relative error is far below [2^(12-prec)], and {!correctly_rounded}
    runs Ziv's strategy in two phases — a double-double evaluation under
    a stated error bound first, then, only when its enclosure straddles
    a rounding boundary, recomputation at doubled precision until the
    enclosing interval rounds unambiguously in the caller's target
    representation.

    Every input is an exact rational (doubles convert exactly).  Inputs
    at which the mathematical result is itself rational — the only points
    where Ziv's loop could fail to terminate — are detected and returned
    as [Exact] (by Lindemann–Weierstrass these are finitely describable:
    [exp 0], [ln 1], [log2] of powers of two, [log10] of powers of ten,
    [exp2]/[exp10] at integers, [sinpi]/[cospi] at half-integers,
    [sinh 0], [cosh 0]). *)

(** Result of one approximation round. *)
type result =
  | Exact of Rational.t  (** the mathematical value, exactly *)
  | Approx of Bigfloat.t  (** relative error below [2^(12-prec)] *)

(** An elementary function ready for Ziv's loop. *)
type fn = prec:int -> Rational.t -> result

(** {1 Constants}

    Each has relative error at most [2^(-prec)]. *)

val pi : prec:int -> Bigfloat.t
val ln2 : prec:int -> Bigfloat.t
val ln10 : prec:int -> Bigfloat.t

(** {1 Elementary functions}

    Domains: [ln], [log2], [log10] require strictly positive input and
    raise [Invalid_argument] otherwise; the rest are total. *)

val exp : fn
val exp2 : fn
val exp10 : fn
val ln : fn
val log2 : fn
val log10 : fn
val sinh : fn
val cosh : fn
val sinpi : fn
val cospi : fn

(** Radian trig over the full range: the argument is reduced by the
    nearest multiple of [pi/2] at a working precision that grows with
    [ilog2 |x|], so huge inputs (the Payne–Hanek regime) keep their full
    relative accuracy.  [tan] is the quotient of the shared reduced
    [sin]/[cos] pair.  Exact only at [x = 0] (Lindemann–Weierstrass). *)

val sin : fn
val cos : fn
val tan : fn

(** {1 Reduced-domain companions}

    Oracles for the component functions that appear after range
    reduction (§3.2): [*_1p r] is the function at [1 + r]. *)

val ln_1p : fn
val log2_1p : fn
val log10_1p : fn

(** {1 Extension functions}

    The paper's §7 plans "approximations for all commonly used
    elementary functions"; these three extend the library on the same
    machinery. *)

val tanh : fn
val expm1 : fn

(** [log1p] is {!ln_1p} under its libm name. *)
val log1p : fn

(** {1 Correct rounding: a fast phase, then Ziv's strategy}

    [correctly_rounded ?init_prec ?round_double ~round f x] is [f x]
    rounded by [round], a monotone rounding function (e.g. a
    representation's round-to-nearest).  It runs in two phases.

    {b Fast phase.}  When [f] is one of the 13 public functions below or
    a log component ([ln_1p], [log2_1p], [log10_1p]) of this module
    (matched by physical identity; [tanh], [expm1] and [log1p] have no
    fast phase), and [x] is zero or a double of magnitude in
    [[2^-900, 2^1000]] inside the function's fast domain, [f x] is
    evaluated in double-double arithmetic ({!Dd}) under a stated relative
    error bound:

    - log core ([ln], [log2], [log10] for [x > 0]; [ln_1p],
      [log2_1p], [log10_1p] for [|x| <= 2^-6]): [2^-80];
    - exp core ([exp] for [|x| <= 660], [exp2] for [|x| <= 950],
      [exp10] for [|x| <= 285], [sinh] and [cosh] for [|x| <= 660]):
      [2^-80];
    - sinpi/cospi core ([|x| < 2^52], exact reduction): [2^-80];
    - sin/cos/tan (every double in range; 2/pi for the fixed-point
      Payne–Hanek reduction is derived from this module's [pi]):
      [2^-79 + 2^-150/|f|], where [f] in [[-1/2, 1/2]] is the reduced
      argument in quarter turns, computed at run time.

    Each bound is at least 2^9 times the error terms listed in the
    implementation.  If both ends of the resulting enclosure round to the
    same value, that value is the answer: first two doubles just outside
    it, through [round_double] when given and [round] of their exact
    values otherwise; then the double-double ends themselves through
    [round].  A zero that a core's exact reduction recognizes (sinpi at
    integers, cospi at half-integers, logs at 1, sinh at 0) is
    [round Rational.zero], as Ziv's loop rounds its [Exact] zero.

    {b Ziv's loop.}  Otherwise — the ends round apart, [f] has no fast
    phase, or [x] is outside the fast domain — [f] is evaluated at
    increasing precision until
    [[y*(1-2^(12-prec)), y*(1+2^(12-prec))]] rounds to a single value.
    Every [Exact] case, exception and result is the Ziv loop's: an
    exactly representable [f x] on a rounding boundary (directed-mode
    [log2 (2^k)], say) straddles and escalates.

    [round_double], when given, must equal [round] applied to
    [Rational.of_float] on every finite nonzero double; it is never
    applied to a zero.  A target's [of_double ~mode] is such a rounder.
    Wrapping [f] (e.g. [fun ~prec x -> f ~prec x]) skips the fast phase,
    which is how the tests compare the two phases. *)
val correctly_rounded :
  ?init_prec:int -> ?round_double:(float -> 'a) -> round:(Rational.t -> 'a) -> fn -> Rational.t -> 'a

(** [fast_enclosure f x] is the fast phase's enclosure [(lo, hi)] of
    [f x], exact rational ends, or [None] where the fast phase does not
    apply. *)
val fast_enclosure : fn -> Rational.t -> (Rational.t * Rational.t) option

(** [two_over_pi_bits n] is [floor (2/pi * 2^n)] from the fast phase's
    Payne–Hanek table, for [0 <= n <= 1376].
    @raise Invalid_argument outside that range. *)
val two_over_pi_bits : int -> Bigint.t

(** {1 Phase counters}

    Every call of {!correctly_rounded} is counted once, per domain
    (summed when read), so the fast path touches no shared state. *)

type phase_counts = {
  fast : int;  (** settled by the fast phase *)
  escalated : int;  (** fast phase tried, Ziv's loop ran *)
  ziv_only : int;  (** no fast phase for [f]: Ziv's loop ran directly *)
  ziv_steps : int array;
      (** Ziv runs by final precision: index [i] counts the runs that
          settled at their [(i+1)]th precision, [80 * 2^i] bits under the
          default [init_prec] *)
}

(** Counts since the process started, over every domain. *)
val phase_counts : unit -> phase_counts

(** [phase_diff after before] is the traffic between two readings. *)
val phase_diff : phase_counts -> phase_counts -> phase_counts

val pp_phase_counts : Format.formatter -> phase_counts -> unit

(** [to_double f x] is [f x] correctly rounded to double. *)
val to_double : fn -> Rational.t -> float

(** Look up an oracle by the names used throughout the repo:
    ["exp"], ["exp2"], ["exp10"], ["ln"], ["log2"], ["log10"],
    ["sinh"], ["cosh"], ["sinpi"], ["cospi"], ["sin"], ["cos"], ["tan"].
    @raise Invalid_argument on an unknown name. *)
val by_name : string -> fn
