(** Polynomial fitting by linear programming — the paper's
    `GetCoeffsUsingLP` (§3.4).

    Given reduced constraints [(r_i, [l_i, h_i])] and a term structure
    (the exponents present in the polynomial; the paper's "odd", "even"
    or full polynomials), find rational coefficients [c] with
    [l_i <= sum_j c_j * r_i^(t_j) <= h_i] for every sampled constraint.

    Two engineering layers sit between the caller and the simplex
    kernel, both sound with respect to final library correctness because
    every candidate polynomial is re-validated in double over the full
    constraint set by the counterexample loop (Algorithm 4):

    - {b variable scaling}: the reduced input is rescaled by a power of
      two so its powers stay near 1 — the paper's §3.2 observation that
      LP conditioning collapses when the domain mixes very large and
      very small magnitudes;
    - {b entry rounding}: scaled powers are rounded to 64 significant
      bits, keeping simplex pivots on small rationals.

    A constraint side marked open ([lo_open]/[hi_open], from a
    directed-mode or round-to-odd rounding interval) is a strict
    inequality.  The simplex kernel only speaks weak rows, so an open
    side is assembled as the weak row shifted inward by an exact
    rational epsilon of 2^-53 of the interval's width — small enough to
    keep essentially the whole feasible region, exact so the kernel's
    soundness is untouched, and strictly positive so any solution
    satisfies the true strict inequality. *)

type constr = { r : float; lo : float; hi : float; lo_open : bool; hi_open : bool }

(** A warm-start handle for a *family* of related fit calls — one
    sub-domain (or sub-domain lineage) of Algorithm 4.  The session
    keeps the LP active set alive between calls as an incremental
    {!Simplex.state} (previous basis repaired by dual simplex instead of
    re-solved) and caches the exact constraint rows per reduced input.
    Passing the same session for unrelated constraint sets is safe —
    vanished inputs are dropped and bounds are re-synced every call, and
    a term-structure or domain-scale change rebuilds the session — it
    just won't be warm. *)
type session

val new_session : unit -> session

(** Independent deep copy; used to seed a child sub-domain's session
    from its parent's after an Algorithm-3 split. *)
val clone_session : session -> session

(** [fit ~terms cons] returns coefficients (aligned with [terms], as
    exact rationals) of a polynomial satisfying every constraint in the
    LP's rounded view of [cons], or [None] when the LP proves the system
    infeasible / gives up.  [terms] must be strictly increasing
    exponents, e.g. [[|0;1;2;3|]] or [[|1;3;5|]].

    Without [?session] this is the cold path: a fresh active-set LP,
    solved from scratch — deterministic, and the differential reference.
    With [?session] the call is warm-started from the session's live
    basis.  Warm and cold agree on [Some]/[None] (both are exact) but
    may return different coefficient vectors.

    [?pin] fixes the first [Array.length pin] coefficients (aligned with
    [terms]) to exactly the given doubles — the progressive-polynomial
    refit: a certified degree-k prefix stays bit-identical while the LP
    fits only the remaining tail.  Pins are equality rows on the scaled
    variables, exact in both directions, so a [Some] result returns the
    pinned doubles unchanged.  A pin change rebuilds a session (the
    counterexample loop refits the same pin round after round, which is
    where warm reuse pays). *)
val fit :
  ?session:session -> ?pin:float array -> terms:int array -> constr array -> Rational.t array option

(** Evaluate a fitted polynomial (exact coefficients) at a double point,
    exactly. *)
val eval_exact : terms:int array -> Rational.t array -> float -> Rational.t

(** Bound on the active-set size before giving up (default 40).  The
    exact simplex's per-pivot work grows with the row count (its
    length-[m] vectors are Bigint numerators; only the [<= nv]-square
    structural block is inverted), and a fit needing that many active
    constraints rarely checks out against the full set anyway —
    splitting the domain is cheaper.  Raising the bound changes which
    fits succeed, and so the generated tables. *)
val max_active : int ref
