(* Revised simplex over exact rationals — the SoPlex-faithful kernel.

   The cold solve [feasible] decides feasibility of  A x <= b  (x free)
   by splitting x = u - v (u, v >= 0), adding slacks, flipping
   negative-rhs rows and giving them artificial variables; phase 1
   minimizes the artificial sum under Bland's rule.  It replays the
   dense two-phase tableau (the differential-test reference in
   test/util/ref_simplex.ml) pivot for pivot: reduced costs are priced
   against the static phase-1 row, only the right-hand side and the
   entering column are FTRANed, and because every priced quantity
   equals the corresponding dense tableau entry exactly, [feasible]
   makes the same choices and returns the identical point — the
   generated-table determinism contract.

   On top of the same factorization sits the warm-start [state]: rows
   A x <= b with free structural variables and one slack each, basis
   kept across [add_row]/[set_rhs]/[drop_rows] edits, primal
   feasibility repaired by a dual-simplex pass (Bland's least-index
   rule; all-zero objective, so any basis is trivially dual feasible).
   Algorithm 4's counterexample loop only ever appends rows and shrinks
   bounds, which costs a handful of dual pivots per round instead of a
   from-scratch phase 1.

   The factorization ([Block]) exploits the shape of these LPs: every
   basic column except at most nv structural ones is a signed unit
   vector (a slack or an artificial), and nv is the polynomial's term
   count.  Only the k x k block of the structural basic columns on the
   rows no unit column covers is inverted, from scratch at every pivot:
   at most nv^3 integer operations, no eta file.  The length-m vectors
   (basic values, the entering column, duals) are Bigint numerators
   over one positive common denominator, so the ratio test and the
   pricing are cross-multiplications and sign tests with no gcd; only a
   returned point is normalized.  Callers control cost through problem
   size (see {!Polyfit.max_active}), not through approximation. *)

module Q = Rational
module B = Bigint

type outcome = Feasible of Q.t array | Infeasible | Unknown

let max_pivots = ref 20000

type counters = {
  mutable cold_solves : int;
  mutable warm_solves : int;
  mutable primal_pivots : int;
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable warm_fallbacks : int;
  mutable solve_seconds : float;
}

let counters =
  { cold_solves = 0; warm_solves = 0; primal_pivots = 0; dual_pivots = 0;
    refactorizations = 0; warm_fallbacks = 0; solve_seconds = 0.0 }

let snapshot () = { counters with cold_solves = counters.cold_solves }

let reset_counters () =
  counters.cold_solves <- 0;
  counters.warm_solves <- 0;
  counters.primal_pivots <- 0;
  counters.dual_pivots <- 0;
  counters.refactorizations <- 0;
  counters.warm_fallbacks <- 0;
  counters.solve_seconds <- 0.0

(* [f ()], its monotonic-clock wall time added to [solve_seconds]. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  counters.solve_seconds <-
    counters.solve_seconds +. (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9);
  r

(* ------------------------------------------------------------------ *)
(* Integer vectors.                                                    *)
(* ------------------------------------------------------------------ *)

let lcm a b =
  if B.is_pow2 a && B.is_pow2 b then if B.compare a b >= 0 then a else b
  else B.div (B.mul a b) (B.gcd a b)

(* [v = c / d]: integer numerators over d > 0, the lcm of v's
   denominators (a shift when everything is dyadic). *)
let integerize v =
  let d = Array.fold_left (fun l q -> lcm l (Q.den q)) B.one v in
  let scale q =
    let qd = Q.den q in
    if B.is_pow2 d && B.is_pow2 qd then B.shift_left (Q.num q) (B.trailing_zeros d - B.trailing_zeros qd)
    else B.mul (Q.num q) (B.div d qd)
  in
  (Array.map scale v, d)

let unit_vec m i = Array.init m (fun r -> if r = i then B.one else B.zero)

(* sign (a b - c d) for a, c >= 0 and b, d > 0, decided on bit lengths
   alone when they are two apart. *)
let compare_products a b c d =
  if B.is_zero a || B.is_zero c then Stdlib.compare (B.sign a) (B.sign c)
  else begin
    let ea = B.bit_length a + B.bit_length b and ec = B.bit_length c + B.bit_length d in
    if ea >= ec + 2 then 1 else if ec >= ea + 2 then -1 else B.compare (B.mul a b) (B.mul c d)
  end

(* ------------------------------------------------------------------ *)
(* Structural-block factorization.                                     *)
(*                                                                     *)
(* Slot k of the basis holds basis column k; FTRAN (B z = v) returns a  *)
(* slot-indexed z, lining up with the dense tableau's row index k, and  *)
(* BTRAN (y B = lambda) takes a slot-indexed lambda and returns a       *)
(* row-indexed y.  With R the rows no unit column covers, J the         *)
(* structural slots (|R| = |J| = k for a nonsingular basis) and         *)
(* M = B[R, J]:                                                         *)
(*                                                                     *)
(*   FTRAN  M z_J = v_R, then z_u = +-(v_r - B[r, J] z_J) for the unit  *)
(*          slot u covering row r;                                      *)
(*   BTRAN  y_r = +-lambda_u on covered rows, then                      *)
(*          y_R M = lambda_J - sum over covered r of y_r B[r, J].       *)
(*                                                                     *)
(* Each structural column is stored as C / delta (integer C, delta >    *)
(* 0).  With D = diag(delta over J, 1 over the unit slots), B = Bt D^-1 *)
(* for the integer matrix Bt, and Mt = Bt[R, J] has inverse P / d.      *)
(* ------------------------------------------------------------------ *)

(* A basis column: a signed unit vector covering one row (slack or
   artificial), or a structural column C / delta. *)
type bcol = Unit of int * bool  (* row, negated *) | Dense of (B.t array * B.t)

module Block = struct
  type t = {
    m : int;
    urow : int array;  (* slot -> covered row, -1 for a structural slot *)
    uneg : bool array;  (* slot -> its unit column is -e_row *)
    rset : int array;  (* R, ascending *)
    jset : int array;  (* J, ascending *)
    jcol : B.t array array;  (* C of slot jset.(q) *)
    jden : B.t array;  (* delta of slot jset.(q) *)
    p : B.t array array;  (* Mt^-1 = p / d, where Mt.(i).(q) = jcol.(q).(rset.(i)) *)
    d : B.t;  (* > 0 *)
  }

  (* [Mt^-1 = p / d] by fraction-free Gauss-Jordan on [Mt | I]: every
     intermediate entry is a minor of [Mt | I], so each division by the
     previous pivot is exact and no gcd is taken.  The left block ends as
     d I, so the right block is d Mt^-1. *)
  let invert mt =
    let n = Array.length mt in
    let a =
      Array.init n (fun i -> Array.append mt.(i) (Array.init n (fun j -> if i = j then B.one else B.zero)))
    in
    let prev = ref B.one in
    for k = 0 to n - 1 do
      let p = ref k in
      while !p < n && B.is_zero a.(!p).(k) do
        incr p
      done;
      if !p = n then failwith "Simplex.Block: singular basis";
      let t = a.(k) in
      a.(k) <- a.(!p);
      a.(!p) <- t;
      let rk = a.(k) in
      let akk = rk.(k) in
      for i = 0 to n - 1 do
        if i <> k then begin
          let ri = a.(i) in
          let aik = ri.(k) in
          (* Left columns before k are settled (d I in the end); only the
             columns after k and the right block carry information. *)
          for j = k + 1 to (2 * n) - 1 do
            let x = ri.(j) and y = rk.(j) in
            if not (B.is_zero x && (B.is_zero aik || B.is_zero y)) then
              ri.(j) <- B.div (B.sub (B.mul akk x) (B.mul aik y)) !prev
          done;
          ri.(k) <- B.zero
        end
      done;
      prev := akk
    done;
    let neg = B.sign !prev < 0 in
    let p = Array.init n (fun q -> Array.init n (fun i -> let x = a.(q).(n + i) in if neg then B.neg x else x)) in
    (p, B.abs !prev)

  let make cols =
    counters.refactorizations <- counters.refactorizations + 1;
    let m = Array.length cols in
    let urow = Array.make m (-1) and uneg = Array.make m false in
    let covered = Array.make m false in
    let js = ref [] in
    for k = m - 1 downto 0 do
      match cols.(k) with
      | Unit (r, neg) ->
          urow.(k) <- r;
          uneg.(k) <- neg;
          covered.(r) <- true
      | Dense (c, den) -> js := (k, c, den) :: !js
    done;
    let rs = ref [] in
    for i = m - 1 downto 0 do
      if not covered.(i) then rs := i :: !rs
    done;
    let js = Array.of_list !js and rset = Array.of_list !rs in
    if Array.length rset <> Array.length js then failwith "Simplex.Block: singular basis";
    let jcol = Array.map (fun (_, c, _) -> c) js in
    let p, d = invert (Array.map (fun r -> Array.map (fun c -> c.(r)) jcol) rset) in
    { m; urow; uneg; rset; jset = Array.map (fun (k, _, _) -> k) js; jcol;
      jden = Array.map (fun (_, _, den) -> den) js; p; d }

  (* [ftran t v] is Z with B (Z / (d nu)) = v / nu, for any nu > 0. *)
  let ftran t v =
    let n = Array.length t.jset in
    let z = Array.make t.m B.zero in
    (* w = d Mt^-1 v_R, the structural solution before un-scaling. *)
    let w =
      Array.init n (fun q ->
          let acc = ref B.zero and pq = t.p.(q) in
          Array.iteri
            (fun i r ->
              let vr = v.(r) and c = pq.(i) in
              if not (B.is_zero vr || B.is_zero c) then acc := B.add !acc (B.mul c vr))
            t.rset;
          z.(t.jset.(q)) <- B.mul t.jden.(q) !acc;
          !acc)
    in
    Array.iteri
      (fun k r ->
        if r >= 0 then begin
          let acc = ref (B.mul v.(r) t.d) in
          for q = 0 to n - 1 do
            let c = t.jcol.(q).(r) and wq = w.(q) in
            if not (B.is_zero wq || B.is_zero c) then acc := B.sub !acc (B.mul c wq)
          done;
          z.(k) <- (if t.uneg.(k) then B.neg !acc else !acc)
        end)
      t.urow;
    z

  (* [btran t l] is Y with (Y / (d mu)) B = lambda, where l = mu lambda D
     (structural slots pre-multiplied by their column's delta). *)
  let btran t l =
    let n = Array.length t.jset in
    let y = Array.make t.m B.zero in
    Array.iteri (fun k r -> if r >= 0 then y.(r) <- (if t.uneg.(k) then B.neg l.(k) else l.(k))) t.urow;
    let rhs =
      Array.init n (fun q ->
          let c = t.jcol.(q) in
          let acc = ref l.(t.jset.(q)) in
          Array.iteri (fun i yi -> if not (B.is_zero yi || B.is_zero c.(i)) then acc := B.sub !acc (B.mul yi c.(i))) y;
          !acc)
    in
    Array.iteri (fun i yi -> if not (B.is_zero yi) then y.(i) <- B.mul yi t.d) y;
    Array.iteri
      (fun i r ->
        let acc = ref B.zero in
        for q = 0 to n - 1 do
          let rq = rhs.(q) and c = t.p.(q).(i) in
          if not (B.is_zero rq || B.is_zero c) then acc := B.add !acc (B.mul rq c)
        done;
        y.(r) <- !acc)
      t.rset;
    y
end

(* ------------------------------------------------------------------ *)
(* Cold solve: revised replay of the dense reference.                  *)
(* ------------------------------------------------------------------ *)

(* Reduced costs are priced against the *static* initial phase-1 row
   obj0 (the artificial rows of the initial tableau, summed).  The
   maintained dense objective row satisfies, at every pivot,

     obj(j) = obj0(j) - lambda^T B^-1 A_j

   where lambda_k = obj0(basis k), corrected to 0 for artificials that
   have been basic since initialization (their obj entry is frozen at 1
   while basic and only zeroed if they ever re-enter).  That identity is
   what lets the revised kernel price any column in O(m) — O(1) for the
   unit slack/artificial columns — without carrying the tableau.  The
   dense row's right-hand side is the phase-1 objective itself, the sum
   of the basic artificials' values. *)

let feasible ~a ~b =
  counters.cold_solves <- counters.cold_solves + 1;
  let m = Array.length a in
  if m = 0 then invalid_arg "Simplex.feasible: no rows";
  let nv = Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> nv then invalid_arg "Simplex.feasible: ragged matrix") a;
  if Array.length b <> m then invalid_arg "Simplex.feasible: bad rhs length";
  timed @@ fun () ->
  let flip = Array.map (fun bi -> Q.sign bi < 0) b in
  let art_row = List.filter (fun i -> flip.(i)) (List.init m Fun.id) |> Array.of_list in
  let n_art = Array.length art_row in
  if n_art = 0 then Feasible (Array.make nv Q.zero)
  else begin
    (* Columns: u_0..u_{nv-1}, v_0..v_{nv-1}, s_0..s_{m-1}, then one
       artificial per negative-rhs row, in row order.  Structural columns
       carry the row flips, as C / delta; v_j = -u_j. *)
    let ns = 2 * nv in
    let ucol =
      Array.init nv (fun j ->
          integerize (Array.init m (fun i -> if flip.(i) then Q.neg a.(i).(j) else a.(i).(j))))
    in
    let scol = Array.append ucol (Array.map (fun (c, den) -> (Array.map B.neg c, den)) ucol) in
    let rhs, rhs_den = integerize (Array.map Q.abs b) in
    let basis =
      let k = ref 0 in
      Array.init m (fun i ->
          if flip.(i) then begin
            incr k;
            ns + m + !k - 1
          end
          else ns + i)
    in
    let is_basic = Array.make (ns + m + n_art) false in
    Array.iter (fun j -> is_basic.(j) <- true) basis;
    (* Static phase-1 row: structural column j's entry is
       obj0_num.(j) / delta_j. *)
    let obj0_num = Array.map (fun (c, _) -> Array.fold_left (fun acc i -> B.add acc c.(i)) B.zero art_row) scol in
    let colb j =
      if j < ns then Dense scol.(j)
      else if j < ns + m then Unit (j - ns, flip.(j - ns))
      else Unit (art_row.(j - ns - m), false)
    in
    (* Pricing multipliers: lambda_k is the static obj0 entry of basis
       column k — except artificial columns, whose obj0 entry (1, the
       frozen z-row value) is never folded into the maintained dense row
       while the artificial stays basic.  Since artificials can never
       re-enter, every basic artificial has been basic since the start,
       so its multiplier is simply 0.  As BTRAN input (lambda D) a
       structural's entry is obj0_num itself. *)
    let lambda_of k =
      let c = basis.(k) in
      if c < ns then obj0_num.(c) else if c < ns + m && flip.(c - ns) then B.minus_one else B.zero
    in
    let pivots = ref 0 in
    let result = ref None in
    while !result = None do
      if !pivots > !max_pivots then result := Some Unknown
      else begin
        let f = Block.make (Array.map colb basis) in
        (* Basic values xb = xn / (d rhs_den), duals y = yn / d. *)
        let xn = Block.ftran f rhs in
        let yn = Block.btran f (Array.init m lambda_of) in
        (* Sign of u_j's reduced cost, (obj0_num d - yn C) / (d delta);
           v_j's is its negation. *)
        let u_sign = Array.make nv None in
        let price_u j =
          match u_sign.(j) with
          | Some s -> s
          | None ->
              let c = fst scol.(j) in
              let acc = ref (B.mul obj0_num.(j) f.d) in
              Array.iteri (fun i yi -> if not (B.is_zero yi || B.is_zero c.(i)) then acc := B.sub !acc (B.mul yi c.(i))) yn;
              let s = B.sign !acc in
              u_sign.(j) <- Some s;
              s
        in
        let rc_sign j =
          if j < nv then price_u j
          else if j < ns then - price_u (j - nv)
          else begin
            let i = j - ns in
            if flip.(i) then B.compare yn.(i) f.d (* obj0 = -1, column = -e_i *)
            else - B.sign yn.(i) (* obj0 = 0, column = e_i *)
          end
        in
        (* Bland: the lowest-index improving column; artificials are
           barred from entering, mirroring the reference. *)
        let entering = ref (-1) in
        (try
           for j = 0 to ns + m - 1 do
             if (not is_basic.(j)) && rc_sign j > 0 then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !entering < 0 then begin
          (* Optimal: feasible iff every basic artificial is at 0. *)
          if Array.exists2 (fun c xk -> c >= ns + m && not (B.is_zero xk)) basis xn then
            result := Some Infeasible
          else begin
            let xden = B.mul f.d rhs_den in
            let x = Array.make nv Q.zero in
            Array.iteri
              (fun k c ->
                if c < nv then x.(c) <- Q.add x.(c) (Q.make xn.(k) xden)
                else if c < ns then x.(c - nv) <- Q.sub x.(c - nv) (Q.make xn.(k) xden))
              basis;
            result := Some (Feasible x)
          end
        end
        else begin
          let e = !entering in
          let v =
            match colb e with
            | Dense (c, _) -> c
            | Unit (i, neg) -> Array.init m (fun r -> if r <> i then B.zero else if neg then B.minus_one else B.one)
          in
          (* z = zn / (d delta_e): the division-free ratio test compares
             xb_i / z_i by cross-multiplying numerators, Bland tie-break
             on the basis column index. *)
          let zn = Block.ftran f v in
          let leave = ref (-1) in
          for i = 0 to m - 1 do
            if B.sign zn.(i) > 0 then begin
              if !leave < 0 then leave := i
              else begin
                let l = !leave in
                let c = compare_products xn.(i) zn.(l) xn.(l) zn.(i) in
                if c < 0 || (c = 0 && basis.(i) < basis.(l)) then leave := i
              end
            end
          done;
          if !leave < 0 then
            (* Phase-1 objective is bounded below by 0, so no improving
               ray exists in exact arithmetic; defensive bail-out. *)
            result := Some Unknown
          else begin
            let l = !leave in
            is_basic.(basis.(l)) <- false;
            is_basic.(e) <- true;
            basis.(l) <- e;
            counters.primal_pivots <- counters.primal_pivots + 1;
            incr pivots
          end
        end
      end
    done;
    match !result with Some r -> r | None -> Unknown
  end

(* ------------------------------------------------------------------ *)
(* Warm-started incremental state.                                     *)
(* ------------------------------------------------------------------ *)

(* Columns: structural j in [0, nv) (free), then slack nv+i for row i
   (>= 0).  The basis always has one column per row (slot k <-> row k of
   the factorization); free structurals never leave once entered, slacks
   leave when driven negative.  No artificials and no u/v split: the
   dual repair never needs a feasible start, only a basis. *)

type state = {
  w_nv : int;
  mutable w_m : int;
  mutable w_rows : Q.t array array;
  mutable w_rhs : Q.t array;
  mutable w_basis : int array;  (* slot -> column *)
  mutable w_pos : int array;  (* column -> slot, -1 nonbasic; length nv + m *)
  mutable w_cols : (B.t array * B.t) array option;  (* structural columns; None: rows changed *)
  mutable w_factor : Block.t option;  (* None: basis changed since the last build *)
}

let create ~nv =
  if nv <= 0 then invalid_arg "Simplex.create: nv must be positive";
  {
    w_nv = nv;
    w_m = 0;
    w_rows = [||];
    w_rhs = [||];
    w_basis = [||];
    w_pos = Array.make nv (-1);
    w_cols = None;
    w_factor = None;
  }

let nrows st = st.w_m

(* The cached columns and block are immutable once built, so sharing
   them is safe. *)
let copy st =
  {
    st with
    w_rows = Array.map Array.copy st.w_rows;
    w_rhs = Array.copy st.w_rhs;
    w_basis = Array.copy st.w_basis;
    w_pos = Array.copy st.w_pos;
  }

let append arr x = Array.append arr [| x |]

let add_row st arow brhs =
  if Array.length arow <> st.w_nv then invalid_arg "Simplex.add_row: bad row length";
  let i = st.w_m in
  st.w_rows <- append st.w_rows (Array.copy arow);
  st.w_rhs <- append st.w_rhs brhs;
  st.w_basis <- append st.w_basis (st.w_nv + i);
  st.w_pos <- append st.w_pos i;
  st.w_m <- i + 1;
  st.w_cols <- None;
  st.w_factor <- None;
  i

let set_rhs st i brhs =
  if i < 0 || i >= st.w_m then invalid_arg "Simplex.set_rhs: bad row";
  st.w_rhs.(i) <- brhs

(* Structural column j as C / delta. *)
let scols st =
  match st.w_cols with
  | Some c -> c
  | None ->
      let c = Array.init st.w_nv (fun j -> integerize (Array.map (fun row -> row.(j)) st.w_rows)) in
      st.w_cols <- Some c;
      c

let ensure_factor st =
  match st.w_factor with
  | Some f -> f
  | None ->
      let cols = scols st in
      let colb c = if c < st.w_nv then Dense cols.(c) else Unit (c - st.w_nv, false) in
      let f = Block.make (Array.map colb st.w_basis) in
      st.w_factor <- Some f;
      f

(* Replace the basis column at [slot] by column [e]; shared by the dual
   pivot and the drop_rows surgery.  The block is rebuilt at next use. *)
let replace_basis st ~slot ~e =
  st.w_pos.(st.w_basis.(slot)) <- -1;
  st.w_pos.(e) <- slot;
  st.w_basis.(slot) <- e;
  st.w_factor <- None

let drop_rows st ~keep =
  if st.w_m > 0 then begin
    let m = st.w_m and nv = st.w_nv in
    let doomed = Array.init m (fun i -> not (keep i)) in
    if Array.exists Fun.id doomed then begin
      (* 1. Pivot every doomed row's slack into the basis, so the (row,
         slack) pairs can be deleted without losing basis regularity.
         A slot with a nonzero FTRAN entry whose column is not itself a
         doomed slack always exists (a unit vector cannot be a
         combination of *other* unit vectors). *)
      for i = 0 to m - 1 do
        if doomed.(i) && st.w_pos.(nv + i) < 0 then begin
          let z = Block.ftran (ensure_factor st) (unit_vec m i) in
          let slot = ref (-1) in
          (try
             for p = 0 to m - 1 do
               if not (B.is_zero z.(p)) then begin
                 let c = st.w_basis.(p) in
                 let c_is_doomed_slack = c >= nv && doomed.(c - nv) in
                 if not c_is_doomed_slack then begin
                   slot := p;
                   raise Exit
                 end
               end
             done
           with Exit -> ());
          if !slot < 0 then failwith "Simplex.drop_rows: singular surgery";
          replace_basis st ~slot:!slot ~e:(nv + i)
        end
      done;
      (* 2. Compact rows, rhs and basis; renumber slack columns. *)
      let rowmap = Array.make m (-1) in
      let n' = ref 0 in
      for i = 0 to m - 1 do
        if not doomed.(i) then begin
          rowmap.(i) <- !n';
          incr n'
        end
      done;
      let m' = !n' in
      let rows' = Array.make m' [||] and rhs' = Array.make m' Q.zero in
      for i = 0 to m - 1 do
        if rowmap.(i) >= 0 then begin
          rows'.(rowmap.(i)) <- st.w_rows.(i);
          rhs'.(rowmap.(i)) <- st.w_rhs.(i)
        end
      done;
      let basis' = Array.make m' 0 in
      let k' = ref 0 in
      for k = 0 to m - 1 do
        let c = st.w_basis.(k) in
        let drop_slot = c >= nv && doomed.(c - nv) in
        if not drop_slot then begin
          basis'.(!k') <- (if c < nv then c else nv + rowmap.(c - nv));
          incr k'
        end
      done;
      assert (!k' = m');
      let pos' = Array.make (nv + m') (-1) in
      Array.iteri (fun k c -> pos'.(c) <- k) basis';
      st.w_m <- m';
      st.w_rows <- rows';
      st.w_rhs <- rhs';
      st.w_basis <- basis';
      st.w_pos <- pos';
      st.w_cols <- None;
      st.w_factor <- None
    end
  end

let solve st =
  counters.warm_solves <- counters.warm_solves + 1;
  if st.w_m = 0 then Feasible (Array.make st.w_nv Q.zero)
  else timed @@ fun () ->
    let nv = st.w_nv and m = st.w_m in
    let rhs, rhs_den = integerize st.w_rhs in
    let cols = scols st in
    let result = ref None in
    let pivots = ref 0 in
    while !result = None do
      if !pivots > !max_pivots then result := Some Unknown
      else begin
        let f = ensure_factor st in
        (* Basic values xb = xn / (d rhs_den). *)
        let xn = Block.ftran f rhs in
        (* Leaving: Bland least-index among bound-violated basics (only
           slacks have bounds; structurals are free and never leave). *)
        let best_var = ref max_int and best_slot = ref (-1) in
        for k = 0 to m - 1 do
          let c = st.w_basis.(k) in
          if c >= nv && B.sign xn.(k) < 0 && c < !best_var then begin
            best_var := c;
            best_slot := k
          end
        done;
        if !best_slot < 0 then begin
          let x = Array.make nv Q.zero in
          let xden = B.mul f.d rhs_den in
          for k = 0 to m - 1 do
            if st.w_basis.(k) < nv then x.(st.w_basis.(k)) <- Q.make xn.(k) xden
          done;
          result := Some (Feasible x)
        end
        else begin
          let r = !best_slot in
          (* Row r of B^-1 is wn / d (the leaving column is a slack, so
             its delta is 1). *)
          let wn = Block.btran f (unit_vec m r) in
          (* Entering: Bland least column index among the eligible —
             any free structural with a nonzero pivot-row entry, then
             any nonbasic slack with a negative one. *)
          let entering = ref (-1) in
          (try
             for j = 0 to nv - 1 do
               if st.w_pos.(j) < 0 then begin
                 let c = fst cols.(j) in
                 let alpha = ref B.zero in
                 Array.iteri
                   (fun i wi -> if not (B.is_zero wi || B.is_zero c.(i)) then alpha := B.add !alpha (B.mul wi c.(i)))
                   wn;
                 if not (B.is_zero !alpha) then begin
                   entering := j;
                   raise Exit
                 end
               end
             done;
             for i = 0 to m - 1 do
               if st.w_pos.(nv + i) < 0 && B.sign wn.(i) < 0 then begin
                 entering := nv + i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !entering < 0 then
            (* Row r is a Farkas certificate: e_r B^-1 A >= 0 on every
               column yet its basic value is negative. *)
            result := Some Infeasible
          else begin
            replace_basis st ~slot:r ~e:!entering;
            counters.dual_pivots <- counters.dual_pivots + 1;
            incr pivots
          end
        end
      end
    done;
    match !result with Some r -> r | None -> Unknown
