(** Exact rational feasibility solver — revised simplex over a
    structural-block factorization, with a warm-startable incremental
    interface.

    This is the LP kernel of the reproduction's SoPlex substitute: the
    paper's `GetCoeffsUsingLP` (§3.4) asks only for *a* feasible point of
    the system [l <= P(r_i) <= h_i], so the solver exposes feasibility of
    [A x <= b] over free variables.  Arithmetic is exact throughout
    (Bland's rule, so no cycling); an iteration cap turns pathological
    instances into a clean [Unknown].

    Two entry points share the basis machinery:

    - {!feasible} — a one-shot cold solve.  It replays the dense
      two-phase tableau (kept in the test tree as the differential
      reference) pivot for pivot: same column order, same Bland entering
      choice, same division-free ratio test and tie-breaks.  Its answers
      — including the returned point, not just the verdict — are
      bit-identical to the reference.
    - {!state} / {!solve} — an incremental system that keeps its basis
      across {!add_row} / {!set_rhs} edits and repairs it with a
      dual-simplex pass instead of re-solving from scratch.  Warm solves
      agree with cold solves on the Feasible/Infeasible verdict (both are
      exact), but may return a different feasible point.

    {2 Block factorization}

    Every basis of these systems holds at most [nv] structural columns
    ([nv] = the number of variables; [u_j] and [v_j = -u_j] of the cold
    split are never both basic, and the warm state has only [nv] free
    structurals).  Every other basic column is a signed unit vector: a
    slack or an artificial.  With R the rows no unit column covers and
    M = B[R, J] the k x k block (k <= nv) of the structural basic
    columns J on those rows, FTRAN solves [M z_J = v_R] and reads each
    covered row's entry off as [+-(v_i - B[i, J] z_J)]; BTRAN sets
    [y_i = +-lambda] on covered rows and solves
    [y_R M = lambda_J - sum_covered y_i B[i, J]].  [M^-1] is rebuilt from
    scratch at every pivot (at most [nv^3] integer operations, by
    fraction-free elimination): there is no eta file and no
    refactorization schedule.  The length-[m] vectors (basic values, the
    entering column, the duals) are Bigint numerators over one positive
    common denominator, so pricing and the ratio test are sign tests and
    cross-multiplications with no gcd; only a returned point is
    normalized.

    Why the replay holds: every FTRAN, BTRAN, pricing and ratio-test
    value is the exact tableau entry (up to a positive common factor),
    whatever factorization computed it, and the pivot rules only look at
    signs and exact comparisons of those values.  Every choice is
    therefore the dense tableau's choice, and the returned point is the
    same canonical rational vector. *)

type outcome =
  | Feasible of Rational.t array  (** a point satisfying every row *)
  | Infeasible  (** proven: no point exists (exact Farkas certificate) *)
  | Unknown  (** iteration cap hit; treat as "no polynomial found" *)

(** [feasible ~a ~b] decides [exists x. a x <= b] with [x] free.
    [a] is an [m x n] dense matrix (rows of equal length [n]).
    Revised simplex; answers replay the dense two-phase tableau exactly.
    @raise Invalid_argument on ragged or empty input. *)
val feasible : a:Rational.t array array -> b:Rational.t array -> outcome

(** Pivot cap for a single solve, cold or warm (default 20000). *)
val max_pivots : int ref

(** {1 Warm-started incremental interface}

    A {!state} holds rows [a_i x <= b_i] over [nv] free structural
    variables plus one slack per row, and keeps the current basis across
    edits.  {!solve} runs a dual-simplex repair from the current basis:
    rows appended by {!add_row} and right-hand sides moved by {!set_rhs}
    each leave the basis valid and usually a handful of pivots from
    optimal, which is what makes Algorithm 4's grow-and-refine loops
    cheap. *)

type state

(** [create ~nv] is an empty system over [nv] free variables. *)
val create : nv:int -> state

val nrows : state -> int

(** [add_row st a b] appends the constraint [a x <= b] and returns its
    row index.  The new row's slack enters the basis, so the previous
    basis stays valid (its block is rebuilt at the next solve).  O(m)
    bookkeeping; no solve.
    @raise Invalid_argument when [a] has length <> [nv]. *)
val add_row : state -> Rational.t array -> Rational.t -> int

(** [set_rhs st i b] replaces row [i]'s right-hand side.  Loosening and
    tightening are both fine; basic values are recomputed by the next
    {!solve}. *)
val set_rhs : state -> int -> Rational.t -> unit

(** [drop_rows st ~keep] deletes every row [i] with [keep i = false].
    Surviving rows are renumbered compactly in order.  Rows whose slack
    is tight (nonbasic) are first pivoted out of the basis, so the
    retained basis stays nonsingular — this is the sibling-reuse path
    after an Algorithm-3 split, where a child sub-domain keeps the
    parent basis minus the out-of-range rows. *)
val drop_rows : state -> keep:(int -> bool) -> unit

(** Deep copy (shares nothing mutable); the clone can diverge freely. *)
val copy : state -> state

(** [solve st] repairs primal feasibility from the current basis by
    dual simplex (Bland's least-index rule) and returns the verdict.
    [Feasible x] gives the structural point (slacks dropped); [Unknown]
    means the pivot cap was hit — the caller should fall back to a cold
    {!feasible} solve.  The state stays consistent in every case and
    later calls resume where the repair stopped. *)
val solve : state -> outcome

(** {1 Instrumentation}

    Process-wide counters (the LP runs in the generator's sequential
    phase; not domain-safe).  {!Rlibm.Stats} snapshots them around each
    generation run. *)

type counters = {
  mutable cold_solves : int;  (** {!feasible} calls *)
  mutable warm_solves : int;  (** {!solve} calls *)
  mutable primal_pivots : int;  (** phase-1 pivots in cold solves *)
  mutable dual_pivots : int;  (** repair pivots in warm solves *)
  mutable refactorizations : int;
      (** structural-block inversions: one per pricing round of a cold
          solve (each pivot plus the final round), and one per warm repair
          round or drop-surgery step that follows a basis or row change *)
  mutable warm_fallbacks : int;  (** warm [Unknown]s retried cold *)
  mutable solve_seconds : float;
      (** wall time inside {!feasible} and {!solve}, on the monotonic clock *)
}

val counters : counters

(** An independent copy of the current counter values. *)
val snapshot : unit -> counters

val reset_counters : unit -> unit
