(* LP: simplex kernel and the active-set polynomial fitter. *)

module Q = Rational
module S = Lp.Simplex
module P = Lp.Polyfit
open Test_util

let st = rand 6
let q = Q.of_int

let feasible_point a b = function
  | S.Feasible x ->
      Array.iteri
        (fun i row ->
          let v = ref Q.zero in
          Array.iteri (fun j c -> v := Q.add !v (Q.mul c x.(j))) row;
          if Q.compare !v b.(i) > 0 then Alcotest.failf "row %d violated" i)
        a;
      true
  | S.Infeasible | S.Unknown -> false

let test_simplex_1d () =
  let a = [| [| q 1 |]; [| q (-1) |] |] in
  let b = [| q 3; q (-1) |] in
  Alcotest.(check bool) "x in [1,3]" true (feasible_point a b (S.feasible ~a ~b));
  let b' = [| q 1; q (-2) |] in
  Alcotest.(check bool)
    "empty [2,1]"
    true
    (S.feasible ~a ~b:b' = S.Infeasible)

let test_simplex_equality_like () =
  (* x + y <= 1 and x + y >= 1 pin the sum. *)
  let a = [| [| q 1; q 1 |]; [| q (-1); q (-1) |]; [| q (-1); q 0 |] |] in
  let b = [| q 1; q (-1); q 5 |] in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.check rational "x+y=1" Q.one (Q.add x.(0) x.(1))
  | _ -> Alcotest.fail "should be feasible"

let test_simplex_negative_solution () =
  (* Force a negative free variable: x <= -5. *)
  let a = [| [| q 1 |] |] and b = [| q (-5) |] in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.(check bool) "x <= -5" true (Q.compare x.(0) (q (-5)) <= 0)
  | _ -> Alcotest.fail "feasible"

let test_simplex_degenerate () =
  (* Many redundant rows pinning the same point. *)
  let rows = 40 in
  let a = Array.init rows (fun i -> if i mod 2 = 0 then [| q 1 |] else [| q (-1) |]) in
  let b = Array.init rows (fun i -> if i mod 2 = 0 then q 7 else q (-7)) in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.check rational "pinned" (q 7) x.(0)
  | _ -> Alcotest.fail "feasible"

let prop_simplex_random_feasible =
  QCheck.Test.make ~name:"random systems built around a known point" ~count:120 QCheck.unit
    (fun () ->
      (* Draw a point, then constraints that the point satisfies. *)
      let nv = 1 + Random.State.int st 4 in
      let m = 1 + Random.State.int st 25 in
      let point = Array.init nv (fun _ -> Q.of_ints (Random.State.int st 41 - 20) (1 + Random.State.int st 7)) in
      let a =
        Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 11 - 5)))
      in
      let b =
        Array.init m (fun i ->
            let v = ref Q.zero in
            Array.iteri (fun j c -> v := Q.add !v (Q.mul c point.(j))) a.(i);
            Q.add !v (Q.of_ints (Random.State.int st 5) 3))
      in
      feasible_point a b (S.feasible ~a ~b))

let prop_simplex_farkas =
  QCheck.Test.make ~name:"contradictory band is infeasible" ~count:100 QCheck.unit (fun () ->
      (* a.x <= c and -a.x <= -(c + gap) with gap > 0 cannot both hold. *)
      let nv = 1 + Random.State.int st 3 in
      let coeff = Array.init nv (fun _ -> q (1 + Random.State.int st 5)) in
      let c = q (Random.State.int st 10) in
      let a = [| coeff; Array.map Q.neg coeff |] in
      let b = [| c; Q.sub (Q.neg c) Q.one |] in
      S.feasible ~a ~b = S.Infeasible)

(* ------------------------------------------------------------------ *)
(* Revised vs reference, and the warm-started state.                   *)
(* ------------------------------------------------------------------ *)

let random_system ?(nv_max = 4) ?(m_max = 25) () =
  let nv = 1 + Random.State.int st nv_max in
  let m = 1 + Random.State.int st m_max in
  let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 11 - 5))) in
  let b =
    Array.init m (fun _ -> Q.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4))
  in
  (a, b)

let same_outcome r1 r2 =
  match (r1, r2) with
  | S.Feasible x, S.Feasible y -> Array.for_all2 Q.equal x y
  | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
  | _ -> false

let same_verdict r1 r2 =
  match (r1, r2) with
  | S.Feasible _, S.Feasible _ | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
  | _ -> false

(* The revised kernel must replay the dense tableau *exactly*: same
   verdict and the same returned point (bit-identical tables depend on
   this). *)
let prop_revised_replays_reference =
  QCheck.Test.make ~name:"revised = dense reference (outcome and point)" ~count:300
    QCheck.unit (fun () ->
      let a, b = random_system () in
      same_outcome (S.feasible ~a ~b) (Ref_simplex.feasible ~a ~b))

(* Revised and dense reference agree on the outcome, the point and the
   number of pivots taken. *)
let replays a b =
  let p0 = S.counters.primal_pivots in
  let r = S.feasible ~a ~b in
  let revised_pivots = S.counters.primal_pivots - p0 in
  same_outcome r (Ref_simplex.feasible ~a ~b) && revised_pivots = !Ref_simplex.last_pivots

(* ------------------------------------------------------------------ *)
(* Structural-block edge cases.  The revised kernel inverts only the    *)
(* k x k block of structural basic columns (k <= nv), so the cases      *)
(* below drive k and the block's rows through their extremes; each is   *)
(* compared with the dense reference on outcome, point and pivot count, *)
(* with zero tolerance.                                                 *)
(* ------------------------------------------------------------------ *)

(* Structural columns (u_j or v_j) in each basis of the reference's last
   solve, oldest first. *)
let struct_trace nv =
  List.rev_map
    (fun basis -> Array.fold_left (fun k c -> if c < 2 * nv then k + 1 else k) 0 basis)
    !Ref_simplex.last_bases

(* Some u_j basic in one basis of the reference's last solve and v_j in
   a later one, or the other way round. *)
let uv_alternates nv =
  let seen = Array.make (2 * nv) false and alternated = ref false in
  List.iter
    (fun basis ->
      Array.iter
        (fun c ->
          if c < 2 * nv then begin
            if seen.((c + nv) mod (2 * nv)) then alternated := true;
            seen.(c) <- true
          end)
        basis)
    (List.rev !Ref_simplex.last_bases);
  !alternated

(* Draws systems until [want] of them satisfy [select] (judged on the
   reference's solve of the system) and checks that each replays.  Fails
   when [budget] draws yield fewer, so the case cannot go vacuous. *)
let replay_selected ~name ~want ~budget draw select =
  let found = ref 0 and tries = ref 0 in
  while !found < want && !tries < budget do
    incr tries;
    let a, b = draw () in
    ignore (Ref_simplex.feasible ~a ~b);
    if select () then begin
      incr found;
      if not (replays a b) then Alcotest.failf "%s: replay differs on draw %d" name !tries
    end
  done;
  if !found < want then Alcotest.failf "%s: %d of %d cases in %d draws" name !found want budget

(* [nv] variables; with [degenerate], two right-hand sides in three are
   zero: degenerate vertices, where structurals enter at level 0 and
   leave again. *)
let small_system ~degenerate nv () =
  let m = 2 + Random.State.int st 10 in
  let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 7 - 3))) in
  let b =
    Array.init m (fun _ ->
        if degenerate && Random.State.int st 3 > 0 then Q.zero
        else Q.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4))
  in
  (a, b)

(* k rises from 0 to nv and falls back within one solve.  It cannot
   return to 0 itself: the only primal-feasible basis without structural
   columns is the initial one, and Bland's rule never revisits a basis
   (the warm test below takes k back to 0 through drop_rows). *)
let test_block_full_and_back () =
  List.iter
    (fun nv ->
      let select () =
        let rec go = function
          | [] -> false
          | k :: rest -> if k = nv then List.exists (fun k' -> k' < nv) rest else go rest
        in
        go (struct_trace nv)
      in
      replay_selected ~name:(Printf.sprintf "k 0 -> %d -> lower" nv) ~want:8 ~budget:4000
        (small_system ~degenerate:true nv) select)
    [ 2; 3; 4; 5 ]

let test_block_uv_alternating () =
  List.iter
    (fun nv ->
      replay_selected ~name:(Printf.sprintf "u/v alternation, nv %d" nv) ~want:8 ~budget:4000
        (fun () -> small_system ~degenerate:(Random.State.bool st) nv ())
        (fun () -> uv_alternates nv))
    [ 2; 3; 4 ]

(* Rows with no structural entry: their slack (or artificial) covers
   them in every basis, so they never enter the block.  Mixed into
   systems around a known point, with right-hand sides 0, positive, and
   (in one case in four) negative, which makes the system infeasible. *)
let prop_block_zero_rows =
  QCheck.Test.make ~name:"rows with no structural entry" ~count:150 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 4 in
      let m = 2 + Random.State.int st 14 in
      let point = Array.init nv (fun _ -> Q.of_ints (Random.State.int st 41 - 20) (1 + Random.State.int st 7)) in
      let contradiction = Random.State.int st 4 = 0 in
      let rows =
        Array.init m (fun i ->
            if i mod 3 = 0 then
              let rhs =
                if contradiction && i = 0 then Q.of_ints (-1) 3
                else Q.of_ints (Random.State.int st 3) (1 + Random.State.int st 2)
              in
              (Array.make nv Q.zero, rhs)
            else begin
              let row = Array.init nv (fun _ -> q (Random.State.int st 11 - 5)) in
              let v = Array.fold_left Q.add Q.zero (Array.mapi (fun j c -> Q.mul c point.(j)) row) in
              (row, Q.add v (Q.of_ints (Random.State.int st 3) 2))
            end)
      in
      let a = Array.map fst rows and b = Array.map snd rows in
      replays a b
      && if contradiction then S.feasible ~a ~b = S.Infeasible else feasible_point a b (S.feasible ~a ~b))

(* Non-dyadic data: odd denominators, some of them large powers, so
   every column and right-hand side goes through the general (gcd) path
   of the common-denominator scaling. *)
let prop_block_non_dyadic =
  QCheck.Test.make ~name:"non-dyadic coefficients and bounds" ~count:150 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 4 in
      let m = 1 + Random.State.int st 20 in
      let odd () =
        match Random.State.int st 4 with
        | 0 -> Bigint.pow (Bigint.of_int 3) (1 + Random.State.int st 30)
        | _ -> Bigint.of_int ((2 * Random.State.int st 7) + 3)
      in
      let frac range = Q.make (Bigint.of_int (Random.State.int st ((2 * range) + 1) - range)) (odd ()) in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> frac 9)) in
      let b = Array.init m (fun _ -> frac 12) in
      replays a b)

(* Polyfit-shaped tube systems: 64 rows bounding a degree 3..6
   polynomial around log2 (the bench LP workload's shape, at every
   degree the shipped term sets use).  The warm state must reach the
   same verdict. *)
let test_block_polyfit_tubes () =
  List.iter
    (fun degree ->
      let a, b = lp_system ~degree 64 in
      if not (replays a b) then Alcotest.failf "degree %d: replay differs" degree;
      let stt = S.create ~nv:(degree + 1) in
      Array.iteri (fun i row -> ignore (S.add_row stt row b.(i))) a;
      if not (same_verdict (S.solve stt) (S.feasible ~a ~b)) then
        Alcotest.failf "degree %d: warm verdict differs" degree)
    [ 3; 4; 5; 6 ]

(* Klee-Minty-flavoured degenerate stack: many tight, redundant rows
   around one vertex — the classic cycling trap Bland's rule avoids. *)
let test_degenerate_cycling_guard () =
  let nv = 3 in
  let rows = ref [] in
  for i = 0 to nv - 1 do
    let r = Array.make nv Q.zero in
    r.(i) <- Q.one;
    rows := (Array.copy r, Q.zero) :: !rows;
    r.(i) <- Q.minus_one;
    rows := (r, Q.zero) :: !rows
  done;
  (* Redundant combinations of the tight rows, all through the origin. *)
  for k = 0 to 9 do
    let r = Array.init nv (fun j -> q (((k + j) mod 5) - 2)) in
    rows := (r, Q.zero) :: !rows
  done;
  let rows = Array.of_list !rows in
  let a = Array.map fst rows and b = Array.map snd rows in
  (match S.feasible ~a ~b with
  | S.Feasible x -> Array.iter (fun v -> Alcotest.check rational "origin" Q.zero v) x
  | _ -> Alcotest.fail "degenerate system is feasible (origin)");
  Alcotest.(check bool) "matches reference" true
    (same_outcome (S.feasible ~a ~b) (Ref_simplex.feasible ~a ~b))

(* Regression: the original dense kernel initialized the phase-1
   criterion row to the z-row (artificial entries 1) rather than z - c
   (0), overstating a departed artificial's reduced cost by 1; the
   artificial could wrongly re-enter, corrupting the "objective rhs =
   artificial sum" invariant, and this two-row system — y >= 3/4 and
   y <= -2/3 — came back Feasible.  Artificials are now barred from
   re-entering (in both kernels). *)
let test_artificial_reentry_soundness () =
  let a = [| [| q 0; q (-4); q 0 |]; [| q 0; q 1; q 0 |] |] in
  let b = [| q (-3); Q.of_ints (-2) 3 |] in
  Alcotest.(check bool) "reference sound" true (Ref_simplex.feasible ~a ~b = S.Infeasible);
  Alcotest.(check bool) "revised sound" true (S.feasible ~a ~b = S.Infeasible);
  let stt = S.create ~nv:3 in
  Array.iteri (fun i row -> ignore (S.add_row stt row b.(i))) a;
  Alcotest.(check bool) "warm sound" true (S.solve stt = S.Infeasible)

let test_infeasible_variants () =
  (* Plain contradiction. *)
  let a = [| [| q 2; q 3 |]; [| q (-2); q (-3) |] |] in
  let b = [| q 1; q (-2) |] in
  Alcotest.(check bool) "band" true (S.feasible ~a ~b = S.Infeasible);
  (* Infeasibility only visible through a combination of three rows. *)
  let a = [| [| q 1; q 1 |]; [| q 1; q (-1) |]; [| q (-1); q 0 |] |] in
  let b = [| q 0; q 0; q (-1) |] in
  Alcotest.(check bool) "triple" true (S.feasible ~a ~b = S.Infeasible)

let warm_of_system a b =
  let stt = S.create ~nv:(Array.length a.(0)) in
  Array.iteri (fun i row -> ignore (S.add_row stt row b.(i))) a;
  stt

let test_warm_basic () =
  let a = [| [| q 1 |]; [| q (-1) |] |] and b = [| q 3; q (-1) |] in
  let stt = warm_of_system a b in
  Alcotest.(check bool) "feasible" true (feasible_point a b (S.solve stt));
  (* Tighten to infeasible via set_rhs, then loosen back. *)
  S.set_rhs stt 0 (q 0);
  Alcotest.(check bool) "tightened" true (S.solve stt = S.Infeasible);
  S.set_rhs stt 0 (q 3);
  Alcotest.(check bool) "loosened" true (feasible_point a b (S.solve stt))

let test_warm_drop_rows () =
  let a = [| [| q 1; q 0 |]; [| q 0; q 1 |]; [| q (-1); q 0 |]; [| q (-1); q (-1) |] |] in
  let b = [| q 2; q 2; q (-1); q (-10) |] in
  let stt = warm_of_system a b in
  Alcotest.(check bool) "over-constrained infeasible" true (S.solve stt = S.Infeasible);
  (* Dropping the contradictory row restores feasibility. *)
  S.drop_rows stt ~keep:(fun i -> i <> 3);
  let a' = [| a.(0); a.(1); a.(2) |] and b' = [| b.(0); b.(1); b.(2) |] in
  Alcotest.(check bool) "after drop" true (feasible_point a' b' (S.solve stt));
  Alcotest.(check int) "row count" 3 (S.nrows stt)

(* The differential suite the issue asks for: grow a random system row
   by row; after every edit the warm verdict must equal a cold solve of
   the same system.  Also exercises copy + drop_rows divergence. *)
let prop_warm_equals_cold_grown =
  QCheck.Test.make ~name:"warm solve = cold solve on grown systems" ~count:120 QCheck.unit
    (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let stt = S.create ~nv in
      let rows = ref [] in
      let steps = 3 + Random.State.int st 12 in
      let ok = ref true in
      for _ = 1 to steps do
        let row = Array.init nv (fun _ -> q (Random.State.int st 9 - 4)) in
        let rhs = Q.of_ints (Random.State.int st 15 - 7) (1 + Random.State.int st 3) in
        ignore (S.add_row stt row rhs);
        rows := (row, rhs) :: !rows;
        let sys = Array.of_list (List.rev !rows) in
        let a = Array.map fst sys and b = Array.map snd sys in
        let warm = S.solve stt and cold = S.feasible ~a ~b in
        (match warm with
        | S.Feasible x ->
            Array.iteri
              (fun i r ->
                let v = ref Q.zero in
                Array.iteri (fun j c -> v := Q.add !v (Q.mul c x.(j))) r;
                if Q.compare !v b.(i) > 0 then ok := false)
              a
        | _ -> ());
        if not (same_verdict warm cold) then ok := false
      done;
      !ok)

let prop_warm_drop_rows_random =
  QCheck.Test.make ~name:"drop_rows keeps warm = cold" ~count:80 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let m = 4 + Random.State.int st 12 in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 9 - 4))) in
      let b = Array.init m (fun _ -> Q.of_ints (Random.State.int st 15 - 7) (1 + Random.State.int st 3)) in
      let stt = warm_of_system a b in
      ignore (S.solve stt);
      (* Keep a random subset (the copy keeps solving the full system). *)
      let keep = Array.init m (fun _ -> Random.State.bool st) in
      if not (Array.exists Fun.id keep) then keep.(0) <- true;
      let clone = S.copy stt in
      S.drop_rows stt ~keep:(fun i -> keep.(i));
      let idx = ref [] in
      for i = m - 1 downto 0 do
        if keep.(i) then idx := i :: !idx
      done;
      let idx = Array.of_list !idx in
      let a' = Array.map (fun i -> a.(i)) idx and b' = Array.map (fun i -> b.(i)) idx in
      same_verdict (S.solve stt) (S.feasible ~a:a' ~b:b')
      && same_verdict (S.solve clone) (S.feasible ~a ~b))

(* The warm state's block shrinks to nothing and grows back: solve a
   system around a point whose coordinates are all nonzero (so every
   structural ends up basic), drop every row (k = 0, no rows), then
   re-add the rows in another order and solve again, and finally drop
   down to fewer rows than variables.  Each solve must agree with a cold
   solve of the same rows and return a point satisfying them. *)
let prop_warm_block_empties_and_regrows =
  QCheck.Test.make ~name:"block empties through drop_rows and regrows" ~count:80 QCheck.unit
    (fun () ->
      let nv = 1 + Random.State.int st 4 in
      let m = nv + 1 + Random.State.int st 10 in
      let point =
        Array.init nv (fun _ ->
            Q.of_ints ((if Random.State.bool st then 1 else -1) * (1 + Random.State.int st 9)) (1 + Random.State.int st 5))
      in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 9 - 4))) in
      let b =
        Array.map
          (fun row ->
            let v = Array.fold_left Q.add Q.zero (Array.mapi (fun j c -> Q.mul c point.(j)) row) in
            Q.add v (Q.of_ints (Random.State.int st 3 - 1) 4))
          a
      in
      let agrees stt a b =
        let warm = S.solve stt in
        same_verdict warm (S.feasible ~a ~b)
        && match warm with S.Feasible _ -> feasible_point a b warm | _ -> true
      in
      let stt = warm_of_system a b in
      let ok1 = agrees stt a b in
      S.drop_rows stt ~keep:(fun _ -> false);
      let ok2 = S.nrows stt = 0 && S.solve stt = S.Feasible (Array.make nv Q.zero) in
      let order = Array.init m (fun i -> m - 1 - i) in
      Array.iter (fun i -> ignore (S.add_row stt a.(i) b.(i))) order;
      let a' = Array.map (fun i -> a.(i)) order and b' = Array.map (fun i -> b.(i)) order in
      let ok3 = agrees stt a' b' in
      let kept = max 1 (nv - 1) in
      S.drop_rows stt ~keep:(fun i -> i < kept);
      let ok4 = agrees stt (Array.sub a' 0 kept) (Array.sub b' 0 kept) in
      ok1 && ok2 && ok3 && ok4)

(* ------------------------------------------------------------------ *)
(* Polyfit.                                                            *)
(* ------------------------------------------------------------------ *)

let cons_of_fn f ?(tol = 1e-9) pts = Array.of_list (List.map (fun r -> { P.r; lo = f r -. tol; hi = f r +. tol; lo_open = false; hi_open = false }) pts)

let validate terms coeffs cons =
  Array.iter
    (fun { P.r; lo; hi; _ } ->
      let v = Q.to_float (P.eval_exact ~terms coeffs r) in
      if not (v >= lo -. 1e-12 && v <= hi +. 1e-12) then Alcotest.failf "violated at %h" r)
    cons

let test_fit_cubic () =
  let f x = 1.0 +. (0.5 *. x) -. (0.25 *. x *. x *. x) in
  let pts = List.init 200 (fun i -> float_of_int i /. 200.0) in
  let cons = cons_of_fn f pts in
  match P.fit ~terms:[| 0; 1; 2; 3 |] cons with
  | Some c -> validate [| 0; 1; 2; 3 |] c cons
  | None -> Alcotest.fail "cubic fit failed"

let test_fit_odd_structure () =
  let f x = x -. (x *. x *. x /. 6.0) in
  let pts = List.init 150 (fun i -> float_of_int (i + 1) /. 300.0) in
  let cons = cons_of_fn ~tol:1e-7 f pts in
  match P.fit ~terms:[| 1; 3 |] cons with
  | Some c -> validate [| 1; 3 |] c cons
  | None -> Alcotest.fail "odd fit failed"

let test_fit_infeasible () =
  let cons =
    [| { P.r = 0.5; lo = 1.0; hi = 2.0; lo_open = false; hi_open = false }; { P.r = 0.5; lo = 3.0; hi = 4.0; lo_open = false; hi_open = false } |]
  in
  Alcotest.(check bool) "contradiction" true (P.fit ~terms:[| 0; 1 |] cons = None);
  (* Quadratic data cannot be matched by a line at 1e-9 tolerance. *)
  let parab = cons_of_fn (fun x -> x *. x) (List.init 9 (fun i -> float_of_int i /. 8.0)) in
  Alcotest.(check bool) "degree too low" true (P.fit ~terms:[| 0; 1 |] parab = None)

let test_fit_tiny_domain_scaling () =
  (* Scaling must handle r ~ 2^-40 without conditioning collapse. *)
  let f x = 1.0 +. x in
  let pts = List.init 60 (fun i -> Float.ldexp (1.0 +. (float_of_int i /. 64.0)) (-40)) in
  let cons = cons_of_fn ~tol:1e-20 f pts in
  match P.fit ~terms:[| 0; 1; 2 |] cons with
  | Some c -> validate [| 0; 1; 2 |] c cons
  | None -> Alcotest.fail "tiny-domain fit failed"

let test_eval_exact () =
  let c = [| Q.of_int 2; Q.of_ints 1 2 |] in
  Alcotest.check rational "2 + x/2 at 3" (Q.of_ints 7 2) (P.eval_exact ~terms:[| 0; 1 |] c 3.0);
  let codd = [| Q.one; Q.of_int 2 |] in
  Alcotest.check rational "x + 2x^3 at 2" (Q.of_int 18) (P.eval_exact ~terms:[| 1; 3 |] codd 2.0)

let prop_fit_random_poly =
  QCheck.Test.make ~name:"recovers random polynomials within tolerance" ~count:25 QCheck.unit
    (fun () ->
      let deg = 1 + Random.State.int st 3 in
      let coeffs = Array.init (deg + 1) (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let f x =
        let acc = ref 0.0 in
        Array.iteri (fun i c -> acc := !acc +. (c *. Float.pow x (float_of_int i))) coeffs;
        !acc
      in
      let pts = List.init 80 (fun i -> float_of_int i /. 80.0) in
      let cons = cons_of_fn ~tol:1e-6 f pts in
      let terms = Array.init (deg + 1) (fun i -> i) in
      match P.fit ~terms cons with
      | Some c ->
          Array.for_all
            (fun { P.r; lo; hi; _ } ->
              let v = Q.to_float (P.eval_exact ~terms c r) in
              v >= lo -. 1e-9 && v <= hi +. 1e-9)
            cons
      | None -> false)

(* Simplex is deterministic: same input, same answer (Bland's rule has
   no randomness; this pins it). *)
let prop_simplex_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:50 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let m = 1 + Random.State.int st 10 in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 9 - 4))) in
      let b = Array.init m (fun _ -> q (Random.State.int st 9 - 4)) in
      let same r1 r2 =
        match (r1, r2) with
        | S.Feasible x, S.Feasible y -> Array.for_all2 Q.equal x y
        | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
        | _ -> false
      in
      same (S.feasible ~a ~b) (S.feasible ~a ~b))

(* Polynomial fitting is scale-covariant: scaling all inputs by 2^k and
   fitting yields a polynomial making the same predictions at the scaled
   points. *)
let test_fit_scale_covariant () =
  let f x = 0.5 +. (2.0 *. x) in
  let pts = List.init 50 (fun i -> float_of_int (i + 1) /. 64.0) in
  let cons k =
    Array.of_list
      (List.map
         (fun r0 ->
           let r = Float.ldexp r0 k in
           { P.r; lo = f r0 -. 1e-9; hi = f r0 +. 1e-9; lo_open = false; hi_open = false })
         pts)
  in
  match (P.fit ~terms:[| 0; 1 |] (cons 0), P.fit ~terms:[| 0; 1 |] (cons (-20))) with
  | Some c0, Some c1 ->
      List.iter
        (fun r0 ->
          let v0 = Q.to_float (P.eval_exact ~terms:[| 0; 1 |] c0 r0) in
          let v1 = Q.to_float (P.eval_exact ~terms:[| 0; 1 |] c1 (Float.ldexp r0 (-20))) in
          if Float.abs (v0 -. v1) > 1e-8 then Alcotest.failf "scale mismatch at %h" r0)
        pts
  | _ -> Alcotest.fail "fits failed"

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "1d interval" `Quick test_simplex_1d;
          Alcotest.test_case "equality via band" `Quick test_simplex_equality_like;
          Alcotest.test_case "negative solution" `Quick test_simplex_negative_solution;
          Alcotest.test_case "degenerate rows" `Quick test_simplex_degenerate;
        ] );
      qsuite "simplex-properties"
        [ prop_simplex_random_feasible; prop_simplex_farkas; prop_simplex_deterministic ];
      ( "simplex-revised",
        [
          Alcotest.test_case "degenerate cycling guard" `Quick test_degenerate_cycling_guard;
          Alcotest.test_case "artificial re-entry soundness" `Quick test_artificial_reentry_soundness;
          Alcotest.test_case "infeasible variants" `Quick test_infeasible_variants;
          Alcotest.test_case "warm basic" `Quick test_warm_basic;
          Alcotest.test_case "warm drop rows" `Quick test_warm_drop_rows;
        ] );
      qsuite "simplex-replay" [ prop_revised_replays_reference ];
      ( "simplex-block",
        [
          Alcotest.test_case "k rises to nv and falls back" `Quick test_block_full_and_back;
          Alcotest.test_case "u/v alternating in the basis" `Quick test_block_uv_alternating;
          Alcotest.test_case "polyfit tubes, 64 rows, degree 3-6" `Quick test_block_polyfit_tubes;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_block_zero_rows; prop_block_non_dyadic ] );
      qsuite "simplex-warm"
        [ prop_warm_equals_cold_grown; prop_warm_drop_rows_random; prop_warm_block_empties_and_regrows ];
      ( "polyfit",
        [
          Alcotest.test_case "cubic" `Quick test_fit_cubic;
          Alcotest.test_case "odd structure" `Quick test_fit_odd_structure;
          Alcotest.test_case "infeasible" `Quick test_fit_infeasible;
          Alcotest.test_case "tiny-domain scaling" `Quick test_fit_tiny_domain_scaling;
          Alcotest.test_case "eval_exact" `Quick test_eval_exact;
          Alcotest.test_case "scale covariant" `Quick test_fit_scale_covariant;
        ] );
      qsuite "polyfit-properties" [ prop_fit_random_poly ];
    ]
