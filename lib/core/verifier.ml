(* The RLIBM side of the oracle-free fast verifier (Sweep.Verify).

   Soundness of the certificate.  For every enumerated non-special
   pattern the generator derived a reduced rounding interval per
   component (Algorithm 2) and [Generator.generate] retained their
   per-reduced-input intersections in [g.intervals].  By construction,
   if each component value v_i lies in the intersected interval for the
   pattern's reduced input, then for *every enumerated pattern sharing
   that reduced input* the output compensation of (v_0..v_{k-1}) lands
   inside that pattern's own rounding interval — i.e. rounds correctly.
   So re-evaluating the compiled polynomial at sweep time and checking
   interval membership certifies the result with a few float compares,
   no Ziv loop.

   The certificate says nothing about patterns that were NOT enumerated:
   a sampled generation's intervals were never intersected against the
   skipped patterns' constraints.  Hence {!certifiable} demands an
   exhaustive enumeration (every pattern of the representation), and
   the [`Auto] policy silently degrades to oracle-only otherwise.
   A certificate miss (reduced input absent from the table, or a value
   on/outside a boundary whose openness the intersection tightened) is
   *not* a verdict — it escalates to the oracle per Sweep.Verify's
   contract. *)

module G = Generator

let in_constr (c : Reduced.constr) v =
  (if c.lo_open then c.lo < v else c.lo <= v)
  && if c.hi_open then v < c.hi else v <= c.hi

(* The certificate covers exactly the enumerated patterns, so it proves
   all inputs only if all inputs were enumerated. *)
let certifiable (g : G.generated) =
  let module T = (val g.spec.repr : Fp.Representation.S) in
  g.stats.n_inputs = 1 lsl T.bits

(** [classify g] is the run-time path plus the certificate: pattern ->
    (library result, certified).  Mirrors [Generator.compile]'s
    operation order exactly, so the returned result is bit-identical to
    the library's.

    With an active progressive tier ([g.prog] exhaustive and some
    component serving a prefix) it mirrors the *tiered* runtime instead:
    when every tiered component's certificate bucket hits, the prefix
    values are evaluated and membership-checked — verifying the tier the
    serving kernel actually selects.  A set certificate bit means every
    enumerated input of the bucket keeps its prefix value inside the
    merged interval, and in-interval component values compensate to the
    same rounded output in every sharing pattern, so tiered and full
    classification return identical results and verdicts — a certificate
    miss simply falls through to the full polynomial. *)
let classify (g : G.generated) =
  let module T = (val g.spec.repr : Fp.Representation.S) in
  let special = g.spec.special in
  let reduce = g.spec.reduce in
  let compensate = g.spec.compensate in
  let mode = g.spec.mode in
  let evals = Array.map Piecewise.compile g.pieces in
  let tables = g.intervals in
  let n = Array.length evals in
  let scratch = Domain.DLS.new_key (fun () -> Array.make (Stdlib.max n 1) 0.0) in
  (* All-or-nothing across pieces, same rule as Funcs.Kernels.tier_of:
     the tier activates only when every piece serves a strict prefix. *)
  let tier =
    match g.prog with
    | Some p
      when p.exhaustive && n > 0
           && Array.for_all
                (fun i -> p.serve_k.(i) < p.pieces.(i).Prog.nt)
                (Array.init n Fun.id) ->
        Some p
    | _ -> None
  in
  let prefix_evals =
    match tier with
    | None -> [||]
    | Some p ->
        Array.mapi
          (fun i pw ->
            if p.serve_k.(i) < p.pieces.(i).Prog.nt then
              Some (Piecewise.compile_prefix ~k:p.serve_k.(i) pw)
            else None)
          g.pieces
  in
  let cert_hit p i r =
    let pc = p.Prog.pieces.(i) in
    let k = p.Prog.serve_k.(i) in
    let certs, grp =
      if r < 0.0 then (pc.Prog.neg, g.pieces.(i).Piecewise.neg)
      else (pc.Prog.pos, g.pieces.(i).Piecewise.pos)
    in
    match grp with
    (* Absent sign group: both full and prefix evaluation yield 0.0, so
       the bucket test is vacuously a hit (matching the kernel). *)
    | None -> true
    | Some grp -> k - 1 < Array.length certs && Prog.hit certs.(k - 1) grp.scheme r
  in
  fun pat ->
    match special pat with
    | Some out -> (out, true)  (* special-case analysis is the ground truth *)
    | None ->
        let v = Domain.DLS.get scratch in
        let rr = reduce (T.to_double pat) in
        let key = Fp.Fp64.bits rr.r in
        let fast =
          match tier with
          | None -> false
          | Some p ->
              let ok = ref true in
              for i = 0 to n - 1 do
                if Option.is_some prefix_evals.(i) && not (cert_hit p i rr.r) then ok := false
              done;
              !ok
        in
        let certified = ref true in
        for i = 0 to n - 1 do
          let vi =
            if fast then
              match prefix_evals.(i) with Some e -> e rr.r | None -> evals.(i) rr.r
            else evals.(i) rr.r
          in
          v.(i) <- vi;
          if !certified then
            match Hashtbl.find_opt tables.(i) key with
            | Some c when in_constr c vi -> ()
            | Some _ | None -> certified := false
        done;
        (T.of_double ~mode (compensate rr v), !certified)

(** Ground truth for one pattern: special-case analysis, else the
    two-phase oracle (memoized through [cache] if given), rounding the
    fast phase's enclosure at double level through the target's
    [of_double]. *)
let truth ?cache (g : G.generated) =
  let module T = (val g.spec.repr : Fp.Representation.S) in
  let spec = g.spec in
  let round_double = T.of_double ~mode:spec.mode and round = T.round_rational ~mode:spec.mode in
  fun pat ->
    match spec.special pat with
    | Some y -> y
    | None ->
        Sweep.Oracle_cache.memo cache pat (fun pat ->
            Oracle.Elementary.correctly_rounded ~round_double ~round spec.oracle (T.to_rational pat))

type policy = [ `Auto | `Fast | `Oracle ]

let policy_of_string = function
  | "auto" -> Ok `Auto
  | "fast" -> Ok `Fast
  | "oracle" -> Ok `Oracle
  | s -> Error (Printf.sprintf "unknown verifier %S (want auto/fast/oracle)" s)

(** Build the sweep verifier for a generated function under [policy]:
    [`Fast] uses the certificate (escalating per [on_escalate]),
    [`Oracle] never certifies (every pattern goes to the oracle — the
    classic sweep, restated), and [`Auto] picks fast exactly when the
    generation is exhaustive, the only case the certificate is sound.
    @raise Invalid_argument on [`Fast] over a non-exhaustive generation. *)
let make ?counters ?on_escalate ?cache ~(policy : policy) (g : G.generated) =
  let fast =
    match policy with
    | `Fast ->
        if not (certifiable g) then
          invalid_arg
            (Printf.sprintf
               "Verifier.make: %s/%s was generated from %d of %d patterns; the fast certificate \
                is only sound over an exhaustive enumeration"
               g.stats.repr_name g.spec.name g.stats.n_inputs
               (let module T = (val g.spec.repr : Fp.Representation.S) in
                1 lsl T.bits));
        true
    | `Oracle -> false
    | `Auto -> certifiable g
  in
  let classify =
    if fast then classify g
    else begin
      let compiled = G.compile g in
      fun pat -> (compiled pat, false)
    end
  in
  Sweep.Verify.make ?counters ?on_escalate ~classify ~oracle:(truth ?cache g)
    ~equal:(G.patterns_value_equal g.spec.repr) ()
