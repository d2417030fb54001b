(* The generator driver: Algorithm 1 (CorrectPolys) with Algorithm 3's
   domain splitting and Algorithm 4's counterexample loop underneath.

   Soundness shape (why validated generation implies correct rounding):
   Algorithm 2 widens all component intervals jointly, so for a
   *monotone* output compensation the OC image of the per-component
   interval box lies inside the input's rounding interval; each
   generated polynomial is Check-ed (in double, with the run-time
   operation order) against every merged constraint; hence every
   enumerated non-special input rounds correctly.  The final validation
   pass re-runs the actual run-time path and asserts exactly that. *)

module T_intf = Fp.Representation

type generated = {
  spec : Spec.t;
  pieces : Piecewise.t array;  (* one per component *)
  intervals : (int64, Reduced.constr) Hashtbl.t array;
      (* per component: Fp64.bits of the reduced input -> the merged
         (intersected over every enumerated pattern sharing it) reduced
         rounding interval.  The oracle-free verifier's certificate. *)
  prog : Prog.t option;
      (* Progressive-polynomial certificates (cfg.progressive): per
         piece, which certificate buckets each degree-k coefficient
         prefix already serves correctly, plus the selected serving
         tier.  [None] reproduces the classic artifact bit-for-bit. *)
  stats : Stats.t;
}

(* Value equality of two patterns: bit-identical, or the same real value
   (+0.0 and -0.0 are distinct patterns of the same zero — sinpi of an
   exact integer legitimately produces either). *)
let patterns_value_equal (module T : T_intf.S) a b =
  a = b
  ||
  match (T.classify a, T.classify b) with
  | T_intf.Finite, T_intf.Finite -> T.to_double a = T.to_double b
  | T_intf.Nan, T_intf.Nan -> true
  | _ -> false

(* Run-time path: pattern in, pattern out.  The final double -> pattern
   step rounds under the spec's target mode. *)
let eval_pattern (g : generated) pat =
  let module T = (val g.spec.repr : T_intf.S) in
  match g.spec.special pat with
  | Some out -> out
  | None ->
      let x = T.to_double pat in
      let rr = g.spec.reduce x in
      let v = Array.map (fun pw -> Piecewise.eval pw rr.r) g.pieces in
      T.of_double ~mode:g.spec.mode (g.spec.compensate rr v)

(* Run-time path on doubles (for T = float32 this is the library entry
   point the benchmarks measure). *)
let eval_double (g : generated) x =
  let module T = (val g.spec.repr : T_intf.S) in
  T.to_double (eval_pattern g (T.of_double x))

(* Compile the run-time path into a single closure: table/spec lookups
   hoisted, per-component piecewise evaluators specialized (the paper
   benchmarks generated C, where the compiler performs the same
   specialization).  The component scratch buffer is domain-local, so
   the closure is reentrant across domains — Funcs.Batch and the
   parallel validation harness call one compiled closure from every
   worker. *)
let compile (g : generated) =
  let module T = (val g.spec.repr : T_intf.S) in
  let special = g.spec.special in
  let reduce = g.spec.reduce in
  let compensate = g.spec.compensate in
  let mode = g.spec.mode in
  let evals = Array.map Piecewise.compile g.pieces in
  let n = Array.length evals in
  let scratch = Domain.DLS.new_key (fun () -> Array.make (Stdlib.max n 1) 0.0) in
  if n = 1 then begin
    let e0 = evals.(0) in
    fun pat ->
      match special pat with
      | Some out -> out
      | None ->
          let v = Domain.DLS.get scratch in
          let rr = reduce (T.to_double pat) in
          v.(0) <- e0 rr.r;
          T.of_double ~mode (compensate rr v)
  end
  else begin
    fun pat ->
      match special pat with
      | Some out -> out
      | None ->
          let v = Domain.DLS.get scratch in
          let rr = reduce (T.to_double pat) in
          for i = 0 to n - 1 do
            v.(i) <- evals.(i) rr.r
          done;
          T.of_double ~mode (compensate rr v)
  end

(* ------------------------------------------------------------------ *)

type group_cons = { hull : float * float; cons : Reduced.constr array }

(* Generate piecewise polynomials for one sign group of one component:
   GenApproxHelper's loop — try 2^n sub-domains for growing n. *)
let gen_group ~(cfg : Config.t) ~start ~terms (gc : group_cons) =
  let nt = Array.length terms in
  (* Warm mode: one Polyfit session per sub-domain, kept across the
     split ladder.  When level n fails and the group re-splits at n+1,
     each child bucket seeds its session from a clone of its parent
     bucket's — the child's constraint set is a subset of the parent's,
     so the parent's final basis is a few dual pivots from the child's
     optimum (the Algorithm-3 sibling-reuse of the revised simplex). *)
  let prev_level : (Splitting.scheme * Lp.Polyfit.session option array) option ref = ref None in
  let rec attempt n =
    if n > cfg.max_split_bits then None
    else begin
      let scheme = Splitting.make ~hull:gc.hull ~nbits:n in
      let nsub = Splitting.n_subdomains scheme in
      let buckets = Array.make nsub [] in
      Array.iter
        (fun (c : Reduced.constr) ->
          let i = Splitting.index scheme c.r in
          buckets.(i) <- c :: buckets.(i))
        gc.cons;
      let sessions = Array.make nsub None in
      if cfg.lp_warm then
        Array.iteri
          (fun i cs ->
            match cs with
            | [] -> ()
            | (c : Reduced.constr) :: _ ->
                let parent =
                  match !prev_level with
                  | None -> None
                  | Some (pscheme, psess) -> psess.(Splitting.index pscheme c.r)
                in
                sessions.(i) <-
                  Some
                    (match parent with
                    | Some s -> Lp.Polyfit.clone_session s
                    | None -> Lp.Polyfit.new_session ()))
          buckets;
      let coeffs = Array.make (nsub * nt) 0.0 in
      let filled = Array.make nsub false in
      let used_terms = ref 0 in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < nsub do
        (match buckets.(!i) with
        | [] -> ()
        | cs -> (
            let cs = Array.of_list cs in
            Array.sort (fun (a : Reduced.constr) b -> compare a.r b.r) cs;
            (* "GetCoeffsUsingLP generates a polynomial of a lower degree
               if it is possible": once the domains are small, a shorter
               term list usually suffices and is cheaper — try it first. *)
            let try_terms =
              if n >= 5 && nt > 2 then [ Array.sub terms 0 (nt - 1); terms ] else [ terms ]
            in
            let gen_one ts =
              (* Progressive mode swaps in the prefix-enriching entry
                 point; same correctness contract, biased coefficients. *)
              if cfg.progressive then Polygen.gen_prog ?session:sessions.(!i) ~cfg ~terms:ts cs
              else Polygen.gen ?session:sessions.(!i) ~cfg ~terms:ts cs
            in
            let rec first = function
              | [] -> ok := false
              | ts :: rest -> (
                  match gen_one ts with
                  | Polygen.Found c ->
                      Array.blit c 0 coeffs (!i * nt) (Array.length c);
                      used_terms := Stdlib.max !used_terms (Array.length ts);
                      filled.(!i) <- true
                  | Polygen.No_polynomial -> first rest)
            in
            first try_terms));
        incr i
      done;
      if not !ok then begin
        if cfg.lp_warm then prev_level := Some (scheme, sessions);
        attempt (n + 1)
      end
      else begin
        (* Fill sub-domains that received no constraints (possible under
           sampled enumeration) from the NEAREST populated sub-domain —
           nearest, not leftmost: a one-directional sweep can smear a
           degenerate low bucket (e.g. the one holding only the clamped
           r = 0 constraint) across the whole table. *)
        let populated = Array.to_list (Array.of_seq (Seq.filter (fun j -> filled.(j)) (Seq.init nsub Fun.id))) in
        (match populated with
        | [] -> ()
        | _ ->
            for j = 0 to nsub - 1 do
              if not filled.(j) then begin
                let best =
                  List.fold_left
                    (fun acc k ->
                      match acc with
                      | None -> Some k
                      | Some b -> if abs (k - j) < abs (b - j) then Some k else acc)
                    None populated
                in
                match best with
                | Some k -> Array.blit coeffs (k * nt) coeffs (j * nt) nt
                | None -> ()
              end
            done);
        if Polygen.debug then
          Printf.eprintf "[gen_group] n=%d nsub=%d filled=%s\n%!" n nsub
            (String.init nsub (fun j -> if filled.(j) then '1' else '0'));
        (* Prefix certification: for each degree-k prefix, the exact set
           of certificate buckets (sub-domain index refined by
           cfg.prog_cert_bits extra pattern bits) whose every merged
           constraint the prefix already satisfies.  A bucket bit is set
           only when the bucket was seen and never violated; unseen
           buckets stay 0, so under exhaustive enumeration a set bit is
           a proof for every input mapping there. *)
        let certs =
          if not cfg.progressive || nt <= 1 then [||]
          else begin
            let ext = Splitting.max_ext scheme cfg.prog_cert_bits in
            let nb = Prog.n_buckets scheme ~ext in
            let ncons = Array.length gc.cons in
            Array.init (nt - 1) (fun ki ->
                let k = ki + 1 in
                let seen = Prog.bits_make nb and bad = Prog.bits_make nb in
                let nsat = ref 0 in
                Array.iter
                  (fun (c : Reduced.constr) ->
                    let bi = Splitting.index_ext scheme ~ext c.r in
                    Prog.bit_set seen bi;
                    let row = Array.sub coeffs (Splitting.index scheme c.r * nt) nt in
                    if Polygen.prefix_sat ~terms row ~k c then incr nsat
                    else Prog.bit_set bad bi)
                  gc.cons;
                {
                  Prog.k;
                  ext;
                  bits = Prog.bits_diff seen bad;
                  coverage = float_of_int !nsat /. float_of_int (Stdlib.max 1 ncons);
                })
          end
        in
        Some ({ Piecewise.scheme; coeffs }, n, !used_terms, certs)
      end
    end
  in
  attempt start

(* ------------------------------------------------------------------ *)

(* Stable fingerprint of the run-time tables: terms, splitting schemes
   and coefficient bit images of every piece, FNV-1a hashed in a fixed
   traversal order (component, then neg/pos group).  Coefficients hash
   by their 64-bit float image so -0.0 vs 0.0 and NaN payloads count —
   "same fingerprint" must mean "bit-identical tables", because run
   datafiles carry this to tie a sweep/campaign/serve verdict to the
   exact tables it certifies. *)
let tables_fingerprint (g : generated) =
  let h = ref 0x0cbf29ce84222325 in
  let mix v = h := (!h lxor (v land 0xff)) * 0x100000001b3 in
  let add_int v =
    for i = 0 to 7 do
      mix (v asr (8 * i))
    done
  in
  let add_i64 v = add_int (Int64.to_int v) in
  Array.iter
    (fun (pw : Piecewise.t) ->
      add_int (Array.length pw.terms);
      Array.iter add_int pw.terms;
      List.iter
        (fun grp ->
          match grp with
          | None -> add_int (-1)
          | Some (grp : Piecewise.group) ->
              add_int grp.scheme.Splitting.nbits;
              add_int grp.scheme.Splitting.shift;
              add_i64 grp.scheme.Splitting.lo_bits;
              add_i64 grp.scheme.Splitting.hi_bits;
              add_int (Array.length grp.coeffs);
              Array.iter (fun c -> add_i64 (Int64.bits_of_float c)) grp.coeffs)
        [ pw.neg; pw.pos ])
    g.pieces;
  (* The progressive artifact is part of the fingerprint: a datafile row
     must name the certificates and the selected tier, not just the
     coefficient tables they qualify.  Absent (the classic path) hashes
     nothing, so non-progressive fingerprints are unchanged. *)
  (match g.prog with
  | None -> ()
  | Some p ->
      add_int 0x70726f67 (* "prog" *);
      add_int (if p.exhaustive then 1 else 0);
      Array.iter add_int p.serve_k;
      Array.iter
        (fun (pc : Prog.piece) ->
          add_int pc.nt;
          List.iter
            (fun certs ->
              add_int (Array.length certs);
              Array.iter
                (fun (c : Prog.cert) ->
                  add_int c.k;
                  add_int c.ext;
                  add_int (Bytes.length c.bits);
                  Bytes.iter (fun ch -> mix (Char.code ch)) c.bits)
                certs)
            [ pc.neg; pc.pos ])
        p.pieces);
  Printf.sprintf "fnv1a:%016x" (!h land max_int)

(* Per-pattern result of the enumeration pass: pure in the pattern, so
   the pass fans out over domains; everything order-sensitive (interval
   intersection failures, the recorded input list) happens in the
   sequential merge below, in pattern order, identically at every job
   count. *)
type deduced =
  | D_special
  | D_ok of int * int * Reduced.constr array  (* pattern, oracle output, per-component *)
  | D_escape of int  (* OC misses the rounding interval at this pattern *)

let generate ?(cfg = Config.default) (spec : Spec.t) ~patterns =
  let module T = (val spec.repr : T_intf.S) in
  let t0 = Sys.time () in
  let lp0 = Lp.Simplex.snapshot () in
  let n_components = Array.length spec.components in
  (* Persistent oracle cache (opt-in via cfg/RLIBM_ORACLE_CACHE): the
     enumeration pass is a pure (pattern -> correctly-rounded pattern)
     map per (function, repr, mode), so settled answers from previous
     runs — generations, sweeps, hard-case hunts — are reused verbatim. *)
  let ocache =
    match cfg.oracle_cache_dir with
    | None -> None
    | Some dir ->
        Some
          (Sweep.Oracle_cache.open_ ~dir ~repr:T.name ~func:spec.name
             ~mode:(Fp.Rounding_mode.to_string spec.mode))
  in
  (* Enumeration pass (Algorithm 1's oracle sweep), domain-parallel. *)
  let round_double = T.of_double ~mode:spec.mode and round = T.round_rational ~mode:spec.mode in
  let deduce_one pat =
    match spec.special pat with
    | Some _ -> D_special
    | None -> (
        let y =
          Sweep.Oracle_cache.memo ocache pat (fun pat ->
              Oracle.Elementary.correctly_rounded ~round_double ~round spec.oracle
                (T.to_rational pat))
        in
        let interval = Rounding.interval spec.repr ~mode:spec.mode y in
        match Reduced.deduce spec ~pattern:pat ~interval with
        | Error (Reduced.Oracle_escapes p) -> D_escape p
        | Ok (_rr, cons) -> D_ok (pat, y, cons))
  in
  let phases0 = Oracle.Elementary.phase_counts () in
  let chunks =
    Parallel.map_chunks ~n:(Array.length patterns) (fun ~lo ~hi ->
        Array.init (hi - lo) (fun k -> deduce_one patterns.(lo + k)))
  in
  let oracle_phases = Oracle.Elementary.(phase_diff (phase_counts ()) phases0) in
  let oracle_pass =
    Option.map (Stats.pass_of_run ~name:"oracle") (Parallel.last_stats ())
  in
  (* The oracle is not consulted again after this pass: persist what it
     settled and capture the traffic counters for Stats. *)
  let cache_stats =
    Option.map
      (fun c ->
        Sweep.Oracle_cache.close c;
        {
          Stats.cache_hits = Sweep.Oracle_cache.hits c;
          cache_misses = Sweep.Oracle_cache.misses c;
        })
      ocache
  in
  (* Sequential merge, by reduced input, in pattern order. *)
  let merged = Array.init n_components (fun _ -> Hashtbl.create 4096) in
  let recorded = ref [] in
  let n_special = ref 0 in
  let failure = ref None in
  let merge = function
    | D_special -> incr n_special
    | D_escape p ->
        failure :=
          Some
            (Printf.sprintf
               "%s: output compensation misses the rounding interval at pattern %#x \
                (range reduction or H precision inadequate)"
               spec.name p)
    | D_ok (pat, y, cons) ->
        recorded := (pat, y) :: !recorded;
        Array.iteri
          (fun i (c : Reduced.constr) ->
            let key = Fp.Fp64.bits c.r in
            match Hashtbl.find_opt merged.(i) key with
            | None -> Hashtbl.replace merged.(i) key c
            | Some prev ->
                (* Intersect, tracking strict sides: the larger lo (or
                   smaller hi) wins together with its flag; on a tie an
                   open side wins. *)
                let lo, lo_open =
                  if c.lo > prev.lo then (c.lo, c.lo_open)
                  else if c.lo < prev.lo then (prev.lo, prev.lo_open)
                  else (prev.lo, prev.lo_open || c.lo_open)
                in
                let hi, hi_open =
                  if c.hi < prev.hi then (c.hi, c.hi_open)
                  else if c.hi > prev.hi then (prev.hi, prev.hi_open)
                  else (prev.hi, prev.hi_open || c.hi_open)
                in
                if lo > hi || (lo = hi && (lo_open || hi_open)) then
                  failure :=
                    Some
                      (Printf.sprintf
                         "%s: no common reduced interval at r=%h (redesign range reduction)"
                         spec.name c.r)
                else Hashtbl.replace merged.(i) key { c with lo; hi; lo_open; hi_open })
          cons
  in
  Array.iter (fun chunk -> Array.iter (fun d -> if !failure = None then merge d) chunk) chunks;
  match !failure with
  | Some msg -> Error msg
  | None -> (
      (* Build each component's piecewise polynomials. *)
      let pieces = Array.make n_components { Piecewise.terms = [||]; neg = None; pos = None } in
      let comp_stats = Array.make n_components None in
      let certs_neg = Array.make n_components ([||] : Prog.cert array) in
      let certs_pos = Array.make n_components ([||] : Prog.cert array) in
      let comp_fail = ref None in
      Array.iteri
        (fun i (comp : Spec.component) ->
          if !comp_fail = None then begin
            let all = Hashtbl.fold (fun _ c acc -> c :: acc) merged.(i) [] in
            let neg = List.filter (fun (c : Reduced.constr) -> c.r < 0.0) all in
            let pos = List.filter (fun (c : Reduced.constr) -> c.r >= 0.0) all in
            let build dom cs =
              match (dom, cs) with
              | _, [] -> Ok None
              | None, _ :: _ ->
                  Error (Printf.sprintf "%s/%s: constraints outside declared domain" spec.name comp.cname)
              | Some hull, _ :: _ -> (
                  let arr = Array.of_list cs in
                  Array.sort (fun (a : Reduced.constr) b -> compare a.r b.r) arr;
                  let start = Stdlib.max cfg.start_split_bits spec.split_hint in
                  match gen_group ~cfg ~start ~terms:comp.terms { hull; cons = arr } with
                  | Some g -> Ok (Some g)
                  | None ->
                      Error
                        (Printf.sprintf "%s/%s: no piecewise polynomial up to 2^%d sub-domains"
                           spec.name comp.cname cfg.max_split_bits))
            in
            match (build comp.dom_neg neg, build comp.dom_pos pos) with
            | Error e, _ | _, Error e -> comp_fail := Some e
            | Ok gneg, Ok gpos ->
                let piece =
                  {
                    Piecewise.terms = comp.terms;
                    neg = Option.map (fun (g, _, _, _) -> g) gneg;
                    pos = Option.map (fun (g, _, _, _) -> g) gpos;
                  }
                in
                pieces.(i) <- piece;
                certs_neg.(i) <- (match gneg with Some (_, _, _, c) -> c | None -> [||]);
                certs_pos.(i) <- (match gpos with Some (_, _, _, c) -> c | None -> [||]);
                let bits_of = function None -> 0 | Some (_, n, _, _) -> n in
                let terms_of = function None -> 0 | Some (_, _, u, _) -> u in
                let used = Stdlib.max (terms_of gneg) (terms_of gpos) in
                let used = if used = 0 then Array.length comp.terms else used in
                comp_stats.(i) <-
                  Some
                    {
                      Stats.cname = comp.cname;
                      n_constraints = Hashtbl.length merged.(i);
                      n_polynomials = Piecewise.n_polynomials piece;
                      split_bits = Stdlib.max (bits_of gneg) (bits_of gpos);
                      degree = comp.terms.(used - 1);
                      n_terms = used;
                    }
          end)
        spec.components;
      match !comp_fail with
      | Some e -> Error e
      | None ->
          let rec_arr = Array.of_list (List.rev !recorded) in
          let nrec = Array.length rec_arr in
          (* Progressive artifact: per-piece certificates from gen_group,
             plus the tier selection — input-weighted coverage measured
             by replaying every recorded input through range reduction
             and the certificate buckets, serve_k the smallest prefix
             clearing cfg.prog_min_coverage (nt = tier disabled). *)
          let prog, prog_stats =
            if not cfg.progressive then (None, None)
            else begin
              let exhaustive = Array.length patterns = 1 lsl T.bits in
              let cert_pieces =
                Array.mapi
                  (fun i (pw : Piecewise.t) ->
                    { Prog.nt = Array.length pw.terms; neg = certs_neg.(i); pos = certs_pos.(i) })
                  pieces
              in
              let nk i = Stdlib.max 0 (cert_pieces.(i).Prog.nt - 1) in
              let group_for i (rr : Spec.reduction) =
                if rr.r < 0.0 then (certs_neg.(i), pieces.(i).Piecewise.neg)
                else (certs_pos.(i), pieces.(i).Piecewise.pos)
              in
              let hits = Array.init n_components (fun i -> Array.make (nk i) 0) in
              Array.iter
                (fun (pat, _) ->
                  let rr = spec.reduce (T.to_double pat) in
                  for i = 0 to n_components - 1 do
                    match group_for i rr with
                    | _, None -> ()
                    | certs, Some (grp : Piecewise.group) ->
                        Array.iteri
                          (fun ki cert ->
                            if Prog.hit cert grp.scheme rr.r then
                              hits.(i).(ki) <- hits.(i).(ki) + 1)
                          certs
                  done)
                rec_arr;
              let icov i ki = float_of_int hits.(i).(ki) /. float_of_int (Stdlib.max 1 nrec) in
              let serve_k =
                Array.init n_components (fun i ->
                    let nt = cert_pieces.(i).Prog.nt in
                    let rec pick ki =
                      if ki >= nk i then nt
                      else if icov i ki >= cfg.prog_min_coverage then ki + 1
                      else pick (ki + 1)
                    in
                    pick 0)
              in
              (* Joint fast-tier coverage: every piece must hit on the
                 same input for the runtime to take the short path.  The
                 tier is all-or-nothing across pieces (the contract the
                 serving kernel and verifier share), so a single piece
                 without a servable prefix disables the whole tier. *)
              let joint = ref 0 in
              let all_tiered =
                Array.for_all
                  (fun i -> serve_k.(i) < cert_pieces.(i).Prog.nt)
                  (Array.init n_components Fun.id)
              in
              if all_tiered then
                Array.iter
                  (fun (pat, _) ->
                    let rr = spec.reduce (T.to_double pat) in
                    let all = ref true in
                    for i = 0 to n_components - 1 do
                      match group_for i rr with
                      | _, None -> all := false
                      | certs, Some (grp : Piecewise.group) ->
                          if not (Prog.hit certs.(serve_k.(i) - 1) grp.scheme rr.r) then
                            all := false
                    done;
                    if !all then incr joint)
                  rec_arr;
              let joint_cov = float_of_int !joint /. float_of_int (Stdlib.max 1 nrec) in
              (* Below the bar jointly: disable the tier wholesale (the
                 certificates stay recorded for the Pareto view). *)
              let serve_k =
                if all_tiered && joint_cov >= cfg.prog_min_coverage then serve_k
                else Array.init n_components (fun i -> cert_pieces.(i).Prog.nt)
              in
              let input_coverage =
                Array.init n_components (fun i ->
                    if serve_k.(i) < cert_pieces.(i).Prog.nt then icov i (serve_k.(i) - 1)
                    else 0.0)
              in
              let ccov i ki =
                (* Worst-group constraint coverage for the stats table. *)
                let of_arr (a : Prog.cert array) =
                  if ki < Array.length a then Some a.(ki).Prog.coverage else None
                in
                match (of_arr certs_neg.(i), of_arr certs_pos.(i)) with
                | Some a, Some b -> Float.min a b
                | Some a, None | None, Some a -> a
                | None, None -> 0.0
              in
              let stats =
                {
                  Stats.prog_exhaustive = exhaustive;
                  prog_joint_coverage = joint_cov;
                  prog_components =
                    Array.mapi
                      (fun i (comp : Spec.component) ->
                        {
                          Stats.p_cname = comp.cname;
                          p_nt = cert_pieces.(i).Prog.nt;
                          p_serve_k = serve_k.(i);
                          p_per_k =
                            Array.init (nk i) (fun ki -> (ki + 1, ccov i ki, icov i ki));
                        })
                      spec.components;
                }
              in
              ( Some { Prog.pieces = cert_pieces; exhaustive; serve_k; input_coverage },
                Some stats )
            end
          in
          let g =
            {
              spec;
              pieces;
              intervals = merged;
              prog;
              stats =
                {
                  Stats.name = spec.name;
                  repr_name = T.name;
                  gen_seconds = Sys.time () -. t0;
                  n_inputs = Array.length patterns;
                  n_special = !n_special;
                  n_reduced =
                    Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 merged;
                  per_component =
                    Array.map
                      (function Some s -> s | None -> assert false)
                      comp_stats;
                  passes = [];
                  lp =
                    Some
                      (Stats.lp_of_counters ~warm_mode:cfg.lp_warm lp0 (Lp.Simplex.snapshot ()));
                  oracle_cache = cache_stats;
                  oracle_phases;
                  prog = prog_stats;
                };
            }
          in
          (* Final validation: the actual run-time path must reproduce
             the oracle pattern for every enumerated input.  Pure per
             input, so it shards too; int addition folded in shard order
             keeps the count identical at every job count. *)
          let bad =
            Parallel.fold_chunks ~n:(Array.length rec_arr) ~combine:( + ) ~init:0
              (fun ~lo ~hi ->
                let b = ref 0 in
                for k = lo to hi - 1 do
                  let pat, y = rec_arr.(k) in
                  if not (patterns_value_equal spec.repr (eval_pattern g pat) y) then incr b
                done;
                !b)
          in
          let check_pass =
            Option.map (Stats.pass_of_run ~name:"check") (Parallel.last_stats ())
          in
          let g =
            { g with stats = { g.stats with passes = List.filter_map Fun.id [ oracle_pass; check_pass ] } }
          in
          if bad > 0 then
            Error
              (Printf.sprintf "%s: %d enumerated inputs misround after generation" spec.name bad)
          else Ok g)
