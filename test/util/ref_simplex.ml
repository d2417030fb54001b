(* Dense two-phase tableau: the reference the revised kernel in
   lib/lp/simplex.ml replays pivot for pivot.

   Feasibility of  A x <= b  (x free) is decided by splitting x = u - v
   (u, v >= 0), adding slacks, flipping negative-rhs rows and giving
   them artificial variables; phase 1 minimizes the artificial sum
   under Bland's rule, updating the full m x (2n+m+a) tableau at every
   pivot.  Kept as written, plus a record of the pivots taken, as the
   differential-test anchor for test_lp.ml's replay properties, and
   timed by bench/main.ml as the "dense" side of its LP section: do not
   optimize it. *)

module Q = Rational

type outcome = Lp.Simplex.outcome = Feasible of Q.t array | Infeasible | Unknown

(* The pivot cap is shared with the live kernel. *)
let max_pivots = Lp.Simplex.max_pivots

(* The last [feasible] call's pivot count, and its bases (slot ->
   column; columns u_0..u_{nv-1}, v_0..v_{nv-1}, then slacks, then
   artificials), newest first, the initial basis last.  Empty when the
   all-slack start was already feasible. *)
let last_pivots = ref 0
let last_bases : int array list ref = ref []

let feasible ~a ~b =
  last_pivots := 0;
  last_bases := [];
  let m = Array.length a in
  if m = 0 then invalid_arg "Ref_simplex.feasible: no rows";
  let nv = Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> nv then invalid_arg "Ref_simplex.feasible: ragged matrix") a;
  if Array.length b <> m then invalid_arg "Ref_simplex.feasible: bad rhs length";
  (* Columns: u_0..u_{nv-1}, v_0..v_{nv-1}, s_0..s_{m-1}, then one
     artificial per negative-rhs row. *)
  let neg_rows = ref [] in
  for i = m - 1 downto 0 do
    if Q.sign b.(i) < 0 then neg_rows := i :: !neg_rows
  done;
  let neg_rows = !neg_rows in
  let n_art = List.length neg_rows in
  let n_cols = (2 * nv) + m + n_art in
  let t = Array.make_matrix m (n_cols + 1) Q.zero in
  let basis = Array.make m 0 in
  let art_col = Hashtbl.create 8 in
  List.iteri (fun j i -> Hashtbl.add art_col i ((2 * nv) + m + j)) neg_rows;
  for i = 0 to m - 1 do
    let flip = Q.sign b.(i) < 0 in
    let put j q = t.(i).(j) <- (if flip then Q.neg q else q) in
    for j = 0 to nv - 1 do
      put j a.(i).(j);
      put (nv + j) (Q.neg a.(i).(j))
    done;
    put ((2 * nv) + i) Q.one;
    t.(i).(n_cols) <- (if flip then Q.neg b.(i) else b.(i));
    if flip then begin
      let c = Hashtbl.find art_col i in
      t.(i).(c) <- Q.one;
      basis.(i) <- c
    end
    else basis.(i) <- (2 * nv) + i
  done;
  if n_art = 0 then begin
    (* The all-slack basis is already feasible; x = 0 works. *)
    Feasible (Array.make nv Q.zero)
  end
  else begin
    (* Phase-1 objective row (minimize the artificial sum), kept in
       reduced form: entering candidates are columns with positive
       coefficient. *)
    let obj = Array.make (n_cols + 1) Q.zero in
    for i = 0 to m - 1 do
      if basis.(i) >= (2 * nv) + m then
        for j = 0 to n_cols do
          obj.(j) <- Q.add obj.(j) t.(i).(j)
        done
    done;
    let pivots = ref 0 in
    let result = ref None in
    let is_basic = Array.make (n_cols + 1) false in
    Array.iter (fun j -> is_basic.(j) <- true) basis;
    last_bases := [ Array.copy basis ];
    while !result = None do
      if !pivots > !max_pivots then result := Some Unknown
      else begin
        (* Bland: the lowest-index improving column (cycle-free).
           Artificial columns are barred from entering — an artificial
           that has left the basis is dropped from the problem (the
           classical rule).  This is not only the usual economy: the
           criterion row starts as the plain sum of the artificial rows
           (the z-row, with 1s in the artificial columns) rather than
           z - c, so a departed artificial's entry overstates its
           reduced cost by exactly its unit cost.  Letting it re-enter
           on that stale entry corrupts the "objective rhs = remaining
           artificial sum" invariant and can declare an infeasible
           system feasible. *)
        let entering = ref (-1) in
        (try
           for j = 0 to (2 * nv) + m - 1 do
             if (not is_basic.(j)) && Q.sign obj.(j) > 0 then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !entering < 0 then begin
          (* Optimal: feasible iff the artificial sum is zero. *)
          if Q.is_zero obj.(n_cols) then begin
            let x = Array.make nv Q.zero in
            for i = 0 to m - 1 do
              if basis.(i) < nv then x.(basis.(i)) <- Q.add x.(basis.(i)) t.(i).(n_cols)
              else if basis.(i) < 2 * nv then
                x.(basis.(i) - nv) <- Q.sub x.(basis.(i) - nv) t.(i).(n_cols)
            done;
            result := Some (Feasible x)
          end
          else result := Some Infeasible
        end
        else begin
          let e = !entering in
          (* Division-free ratio test (cross-multiplication), Bland
             tie-break on the basis column index. *)
          let leave = ref (-1) in
          for i = 0 to m - 1 do
            if Q.sign t.(i).(e) > 0 then begin
              if !leave < 0 then leave := i
              else begin
                let l = !leave in
                (* rhs_i / t_ie ? rhs_l / t_le, all pivots positive. *)
                let lhs = Q.mul t.(i).(n_cols) t.(l).(e) in
                let rhs = Q.mul t.(l).(n_cols) t.(i).(e) in
                let c = Q.compare lhs rhs in
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
            let piv = t.(l).(e) in
            for j = 0 to n_cols do
              t.(l).(j) <- Q.div t.(l).(j) piv
            done;
            for i = 0 to m - 1 do
              if i <> l && not (Q.is_zero t.(i).(e)) then begin
                let f = t.(i).(e) in
                for j = 0 to n_cols do
                  t.(i).(j) <- Q.sub t.(i).(j) (Q.mul f t.(l).(j))
                done
              end
            done;
            (* Incremental objective update (exact, hence faithful). *)
            if not (Q.is_zero obj.(e)) then begin
              let f = obj.(e) in
              for j = 0 to n_cols do
                obj.(j) <- Q.sub obj.(j) (Q.mul f t.(l).(j))
              done
            end;
            is_basic.(basis.(l)) <- false;
            is_basic.(e) <- true;
            basis.(l) <- e;
            incr pivots;
            last_pivots := !pivots;
            last_bases := Array.copy basis :: !last_bases
          end
        end
      end
    done;
    match !result with Some r -> r | None -> Unknown
  end
