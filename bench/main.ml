(* Benchmark harness: Figures 3, 4 and 5 of the paper.

   Methodology follows §4.1: each measured unit is the evaluation of a
   full 1024-element input array (the paper's vectorization-aware
   harness), timed with Bechamel's monotonic clock and reduced by OLS on
   the run count.  Every library pays the same pattern<->double
   conversion costs its real-world use would pay.

   Functions are generated at Draft quality here: generation quality
   changes how many inputs constrain the tables, not the runtime code
   path being measured.  Use bin/check.exe for correctness and
   bin/generate.exe for Table 3 statistics. *)

open Bechamel
module Toolkit = Bechamel.Toolkit

let quality = Funcs.Libm.Draft
let batch = 1024

(* Deterministic input arrays per function family: the paper populates
   its 1024-element arrays with "different inputs"; we draw them
   deterministically from each function's non-special domain. *)
let inputs_for name =
  let mix i =
    (* splitmix-ish *)
    let z = (i + 1) * 0x9E3779B9 land 0xFFFFFF in
    float_of_int z /. float_of_int 0xFFFFFF
  in
  Array.init batch (fun i ->
      let u = mix i in
      let v = mix (i + 7919) in
      let sym x = if v < 0.5 then -.x else x in
      match name with
      | "ln" | "log2" | "log10" -> Float.ldexp (1.0 +. u) (int_of_float ((v *. 60.0) -. 30.0))
      | "exp" | "sinh" | "cosh" -> sym (u *. 80.0)
      | "exp2" -> sym (u *. 120.0)
      | "exp10" -> sym (u *. 35.0)
      | "sinpi" | "cospi" -> sym (Float.ldexp (1.0 +. u) (int_of_float (v *. 20.0) - 10))
      | _ -> u)

(* Round inputs into the target so conversions are exact at run time. *)
let patterns_of (module T : Fp.Representation.S) xs = Array.map T.of_double xs

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing.                                                  *)
(* ------------------------------------------------------------------ *)

let measure_ns staged =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let test = Test.make ~name:"t" staged in
  let results = Benchmark.all cfg [ instance ] test in
  let b = Hashtbl.fold (fun _ v _ -> Some v) results None |> Option.get in
  let ols =
    Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:(Measure.label instance)
      ~predictors:[| Measure.run |] b.Benchmark.lr
  in
  match Analyze.OLS.estimates ols with
  | Some (t :: _) -> t
  | _ -> Float.nan

(* Evaluate a pattern->pattern function over the whole batch. *)
let batch_fn f (pats : int array) =
  Staged.stage (fun () ->
      let acc = ref 0 in
      for i = 0 to batch - 1 do
        acc := !acc lxor f pats.(i)
      done;
      !acc)

(* Double->double functions (rounded through T at the end, as a float
   libm caller would see). *)
let batch_dfn (module T : Fp.Representation.S) f (xs : float array) =
  Staged.stage (fun () ->
      let acc = ref 0.0 in
      for i = 0 to batch - 1 do
        acc := !acc +. T.to_double (T.of_double (f xs.(i)))
      done;
      !acc)

let pr_header title = Printf.printf "\n== %s ==\n%!" title

let speedup base v = base /. v

(* ------------------------------------------------------------------ *)
(* Figure 3: float32 functions vs comparators.                         *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  pr_header "FIG3: float32 per-call cost (ns per 1024-input batch) and RLIBM-32 speedups";
  Printf.printf "%-7s %10s %10s %10s %10s %10s | %7s %7s %7s %7s\n" "func" "rlibm" "nativeF32"
    "nativeF64" "glibc-dbl" "crlibm-dd" "vs-f32" "vs-f64" "vs-glibc" "vs-crl";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  let geo = Array.make 4 0.0 in
  let n = ref 0 in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = inputs_for name in
          let xs = Array.map (fun x -> T.to_double (T.of_double x)) xs in
          let pats = patterns_of (module T) xs in
          let rlibm = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let n32 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F32 t name) pats)
          in
          let n64 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F64 t name) pats)
          in
          let glibc =
            measure_ns (batch_dfn (module T) (Baselines.Double_libm.fn name) xs)
          in
          let crl =
            measure_ns (batch_dfn (module T) (Baselines.Crlibm_analog.timed_eval name) xs)
          in
          let sp = [| speedup n32 rlibm; speedup n64 rlibm; speedup glibc rlibm; speedup crl rlibm |] in
          Array.iteri (fun i s -> geo.(i) <- geo.(i) +. Float.log s) sp;
          incr n;
          Printf.printf "%-7s %10.0f %10.0f %10.0f %10.0f %10.0f | %7.2f %7.2f %7.2f %7.2f\n%!"
            name rlibm n32 n64 glibc crl sp.(0) sp.(1) sp.(2) sp.(3))
    Funcs.Specs.float_functions;
  if !n > 0 then
    Printf.printf "%-7s %54s | %7.2f %7.2f %7.2f %7.2f\n%!" "geomean" ""
      (Float.exp (geo.(0) /. float_of_int !n))
      (Float.exp (geo.(1) /. float_of_int !n))
      (Float.exp (geo.(2) /. float_of_int !n))
      (Float.exp (geo.(3) /. float_of_int !n))

(* ------------------------------------------------------------------ *)
(* Figure 4: posit32 functions vs repurposed double libraries.         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  pr_header "FIG4: posit32 per-call cost (ns per 1024-input batch) and RLIBM-32 speedups";
  Printf.printf "%-7s %10s %10s %10s %10s | %7s %7s %7s\n" "func" "rlibm" "glibc-dbl" "nativeF64"
    "crlibm-dd" "vs-glibc" "vs-f64" "vs-crl";
  let t = Funcs.Specs.posit32 in
  let module P = Posit.Posit32 in
  let geo = Array.make 3 0.0 in
  let n = ref 0 in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = inputs_for name in
          let pats = Array.map P.of_double xs in
          let rlibm = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let glibc =
            measure_ns (batch_fn (Baselines.Double_libm.eval (module P) name) pats)
          in
          let n64 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F64 t name) pats)
          in
          let crlf = Baselines.Crlibm_analog.timed_eval name in
          let crl =
            measure_ns (batch_fn (fun p -> P.of_double (crlf (P.to_double p))) pats)
          in
          let sp = [| speedup glibc rlibm; speedup n64 rlibm; speedup crl rlibm |] in
          Array.iteri (fun i s -> geo.(i) <- geo.(i) +. Float.log s) sp;
          incr n;
          Printf.printf "%-7s %10.0f %10.0f %10.0f %10.0f | %7.2f %7.2f %7.2f\n%!" name rlibm
            glibc n64 crl sp.(0) sp.(1) sp.(2))
    Funcs.Specs.posit_functions;
  if !n > 0 then
    Printf.printf "%-7s %43s | %7.2f %7.2f %7.2f\n%!" "geomean" ""
      (Float.exp (geo.(0) /. float_of_int !n))
      (Float.exp (geo.(1) /. float_of_int !n))
      (Float.exp (geo.(2) /. float_of_int !n))

(* ------------------------------------------------------------------ *)
(* Figure 5: speedup vs number of piecewise sub-domains.               *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  pr_header "FIG5: log2/log10 speedup vs forced sub-domain count (baseline = single polynomial)";
  Printf.printf "%-7s %6s %12s %10s %8s %s\n" "func" "n" "subdomains" "ns/batch" "speedup" "degree";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  List.iter
    (fun name ->
      let xs = inputs_for name in
      let pats = patterns_of (module T) (Array.map (fun x -> T.to_double (T.of_double x)) xs) in
      let base = ref None in
      List.iter
        (fun n ->
          let cfg = { Rlibm.Config.default with start_split_bits = n; max_split_bits = n } in
          (* Neutralize the designer hint: this sweep wants exactly 2^n. *)
          let spec = { (Funcs.Specs.by_name name t) with Rlibm.Spec.split_hint = 0 } in
          match
            Rlibm.Generator.generate ~cfg spec ~patterns:(Funcs.Libm.enumeration t quality)
          with
          | Error msg -> Printf.printf "%-7s %6d FAILED: %s\n%!" name n msg
          | Ok g ->
              let ns = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
              let b = match !base with None -> base := Some ns; ns | Some b -> b in
              let stats = g.stats.per_component.(0) in
              Printf.printf "%-7s %6d %12d %10.0f %8.2f %d\n%!" name n stats.n_polynomials ns
                (b /. ns) stats.degree)
        [ 0; 2; 4; 6; 8; 10; 12 ])
    [ "log2"; "log10" ]

(* ------------------------------------------------------------------ *)
(* Ablations (design choices DESIGN.md calls out).                     *)
(* ------------------------------------------------------------------ *)

(* Ablation A: counterexample-guided sampling (Algorithm 4) vs handing
   the LP every constraint at once — the paper's claim that sampling is
   what makes 32-bit scale feasible (their LP cap is a few thousand
   constraints; ours is smaller but the asymmetry is the same). *)
let ablation_sampling () =
  pr_header "ABLATION A: counterexample-guided sampling vs full-constraint LP (bfloat16 exp2)";
  let spec = Funcs.Specs.exp2 Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  (* Collect the reduced constraints once. *)
  let cons = Hashtbl.create 1024 in
  Array.iter
    (fun pat ->
      match spec.special pat with
      | Some _ -> ()
      | None -> (
          let y =
            Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
              (T.to_rational pat)
          in
          let iv = Rlibm.Rounding.interval spec.repr y in
          match Rlibm.Reduced.deduce spec ~pattern:pat ~interval:iv with
          | Error _ -> ()
          | Ok (_, cs) -> (
              let c = cs.(0) in
              let key = Fp.Fp64.bits c.r in
              match Hashtbl.find_opt cons key with
              | None -> Hashtbl.replace cons key c
              | Some (p : Rlibm.Reduced.constr) ->
                  Hashtbl.replace cons key
                    { c with lo = Float.max p.lo c.lo; hi = Float.min p.hi c.hi })))
    Rlibm.Enumerate.exhaustive16;
  let arr = Hashtbl.fold (fun _ c acc -> c :: acc) cons [] |> Array.of_list in
  Array.sort (fun (a : Rlibm.Reduced.constr) b -> compare a.r b.r) arr;
  let pos = Array.of_seq (Seq.filter (fun (c : Rlibm.Reduced.constr) -> c.r >= 0.0) (Array.to_seq arr)) in
  Printf.printf "constraints (positive group): %d\n%!" (Array.length pos);
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sampled, t_sampled =
    time (fun () -> Rlibm.Polygen.gen ~cfg:Rlibm.Config.default ~terms:[| 0; 1; 2; 3 |] pos)
  in
  let all_lp, t_all =
    time (fun () ->
        Lp.Polyfit.fit ~terms:[| 0; 1; 2; 3 |]
          (Array.map
             (fun (c : Rlibm.Reduced.constr) ->
               { Lp.Polyfit.r = c.r; lo = c.lo; hi = c.hi; lo_open = c.lo_open; hi_open = c.hi_open })
             pos))
  in
  Printf.printf "counterexample-guided: %.2fs (%s)\n" t_sampled
    (match sampled with Rlibm.Polygen.Found _ -> "found" | _ -> "no polynomial");
  Printf.printf "all-constraints LP:    %.2fs (%s)\n%!" t_all
    (match all_lp with Some _ -> "found" | None -> "no polynomial")

(* Ablation B: the paper lets the designer pick odd/even structure; a
   dense polynomial of the same reach costs more per call. *)
let ablation_structure () =
  pr_header "ABLATION B: odd-structure vs dense polynomial, sinpi runtime";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  match Funcs.Libm.get ~quality t "sinpi" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      let xs = Array.map (fun x -> T.to_double (T.of_double x)) (inputs_for "sinpi") in
      let pats = patterns_of (module T) xs in
      let odd = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
      (* Dense variant: pad the generated odd/even tables to dense terms
         [0..5], zero coefficients where absent; same values, denser
         Horner. *)
      let dense_piece (pw : Rlibm.Piecewise.t) =
        let dense_terms = Array.init 6 (fun i -> i) in
        let widen (grp : Rlibm.Piecewise.group option) =
          Option.map
            (fun (grp : Rlibm.Piecewise.group) ->
              let nsub = Rlibm.Splitting.n_subdomains grp.Rlibm.Piecewise.scheme in
              let nt = Array.length pw.terms in
              let coeffs = Array.make (nsub * 6) 0.0 in
              for s = 0 to nsub - 1 do
                Array.iteri
                  (fun k e -> coeffs.((s * 6) + e) <- grp.coeffs.((s * nt) + k))
                  pw.terms
              done;
              { grp with coeffs })
            grp
        in
        { Rlibm.Piecewise.terms = dense_terms; neg = widen pw.neg; pos = widen pw.pos }
      in
      let dense_pieces = Array.map dense_piece g.pieces in
      let dense_fn pat =
        match g.spec.special pat with
        | Some out -> out
        | None ->
            let rr = g.spec.reduce (T.to_double pat) in
            let v = Array.map (fun pw -> Rlibm.Piecewise.eval pw rr.r) dense_pieces in
            T.of_double (g.spec.compensate rr v)
      in
      let dense = measure_ns (batch_fn dense_fn pats) in
      Printf.printf "odd/even structure: %.0f ns/batch; dense degree-5: %.0f ns/batch (%.2fx)\n%!"
        odd dense (dense /. odd)

(* Scalar calls vs the batch entry point: the paper's vectorization
   observation (§4.3) at OCaml scale. *)
let vec () =
  pr_header "VEC: scalar pattern calls vs Funcs.Batch (1024-input batches)";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = Array.map (fun x -> T.to_double (T.of_double x)) (inputs_for name) in
          let pats = patterns_of (module T) xs in
          let dst = Array.make batch 0 in
          let scalar = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let batched =
            measure_ns
              (Staged.stage (fun () ->
                   Funcs.Batch.eval_patterns g pats dst;
                   dst.(0)))
          in
          Printf.printf "%-7s scalar %8.0f ns  batch %8.0f ns  (%.2fx)\n%!" name scalar batched
            (scalar /. batched))
    [ "log2"; "exp2"; "sinpi" ]

(* Validation throughput vs domain count: the sharded Check/validation
   pass (Algorithm 4's bottleneck at full 32-bit scale) timed at fixed
   job counts.  On a single-CPU host the jobs>1 rows measure scheduling
   overhead, not speedup; on a multicore host they show the scaling the
   ISSUE targets. *)
let par () =
  pr_header "PAR: validation throughput vs worker domains (bfloat16 log2, oracle truth + compare)";
  let t = Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  match Funcs.Libm.get ~quality t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      (* Every 8th bfloat16 pattern: large enough to shard, small enough
         to finish promptly at jobs=1. *)
      let pats =
        Array.of_seq
          (Seq.filter (fun p -> p land 7 = 0) (Array.to_seq Rlibm.Enumerate.exhaustive16))
      in
      let n = Array.length pats in
      let spec = g.Rlibm.Generator.spec in
      let validate jobs =
        Parallel.fold_chunks ~jobs ~n ~combine:( + ) ~init:0
          (fun ~lo ~hi ->
            let bad = ref 0 in
            for k = lo to hi - 1 do
              let pat = pats.(k) in
              let want =
                match spec.special pat with
                | Some y -> y
                | None ->
                    Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
                      (T.to_rational pat)
              in
              if
                not
                  (Rlibm.Generator.patterns_value_equal spec.repr
                     (Rlibm.Generator.eval_pattern g pat) want)
              then incr bad
            done;
            !bad)
      in
      Printf.printf "%6s %10s %12s %10s %8s\n" "jobs" "wall_s" "items/s" "busy_s" "bad";
      let base = ref None in
      List.iter
        (fun jobs ->
          let t0 = Unix.gettimeofday () in
          let bad = validate jobs in
          let wall = Unix.gettimeofday () -. t0 in
          let busy =
            match Parallel.last_stats () with
            | Some s -> Array.fold_left ( +. ) 0.0 s.Parallel.shard_seconds
            | None -> wall
          in
          let b = match !base with None -> base := Some wall; wall | Some b -> b in
          Printf.printf "%6d %10.2f %12.0f %10.2f %8d  (%.2fx vs jobs=1)\n%!" jobs wall
            (float_of_int n /. wall) busy bad (b /. wall))
        [ 1; 2; 4; 8 ];
      (* Batch engine on a large synthetic batch: the sharded
         Funcs.Batch path vs its own jobs=1 run. *)
      let big = 1 lsl 16 in
      let src = Array.init big (fun i -> pats.(i mod n)) in
      let dst = Array.make big 0 in
      Printf.printf "batch engine (%d patterns):\n" big;
      List.iter
        (fun jobs ->
          Parallel.set_jobs jobs;
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 8 do
            Funcs.Batch.eval_patterns g src dst
          done;
          let wall = Unix.gettimeofday () -. t0 in
          Printf.printf "  jobs %2d: %8.3f s (%10.0f items/s)\n%!" jobs wall
            (float_of_int (8 * big) /. wall))
        [ 1; 2; 4; 8 ];
      Parallel.set_jobs 1

(* ------------------------------------------------------------------ *)
(* Exact-arithmetic microbenchmarks: the two-tier Bigint vs the frozen  *)
(* naive reference retained in test/util, and the Rational fast paths.  *)
(* ------------------------------------------------------------------ *)

(* Collected metrics for the --json report.  Non-finite values are
   dropped with a warning instead of written: a nan/inf in the JSON
   would kill the whole gate run at parse time, hiding every other
   metric behind one flaky measurement. *)
let metrics : (string * float) list ref = ref []

let record k v =
  if Float.is_finite v then metrics := (k, v) :: !metrics
  else
    Printf.eprintf "warning: metric %S is %s — skipped from the JSON report\n%!" k
      (Printf.sprintf "%h" v)

(* Both the live [Bigint] and the frozen [Test_util.Ref] reference
   satisfy this slice of the interface, so every workload below is
   written once and timed against both. *)
module type BI = sig
  type t
  val zero : t
  val of_int : int -> t
  val of_string : string -> t
  val to_string : t -> string
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val divmod : t -> t -> t * t
  val gcd : t -> t -> t
  val compare : t -> t -> int
  val sign : t -> int
  val shift_left : t -> int -> t
end

(* Deterministic 62-bit-ish stream (splitmix-style), so both modules see
   the same operands. *)
let mix64 i =
  let z = (i + 0x9E3779B9) * 0xBF58476D land max_int in
  let z = (z lxor (z lsr 27)) * 0x94D049BB land max_int in
  z lxor (z lsr 31)

(* The mixed small-operand workload the oracle's reductions generate:
   magnitudes spread over 2^4..2^60, one add/sub/mul/divmod/compare per
   pair.  On the two-tier representation every op stays on the fixnum
   path; the naive reference allocates limb arrays throughout. *)
let bigint_small (module M : BI) =
  let n = 512 in
  let xs =
    Array.init n (fun i ->
        let v = mix64 i land ((1 lsl (4 + (i mod 14 * 4))) - 1) in
        M.of_int (if i land 1 = 0 then v else -v))
  in
  Staged.stage (fun () ->
      let acc = ref 0 in
      for i = 0 to n - 2 do
        let a = xs.(i) and b = xs.(i + 1) in
        acc := !acc + M.sign (M.add a b) + M.sign (M.sub a b) + M.sign (M.mul a b);
        if M.sign b <> 0 then begin
          let q, r = M.divmod a b in
          acc := !acc + M.sign q + M.sign r
        end;
        acc := !acc + M.compare a b
      done;
      !acc)

(* Wide operands: [limbs30] chunks of 30 bits each (local to each
   workload so the packed module's type does not escape). *)
let bigint_mul_wide (module M : BI) =
  let st = Random.State.make [| 7 |] in
  let wide limbs30 =
    let x = ref M.zero in
    for _ = 1 to limbs30 do
      x := M.add (M.shift_left !x 30) (M.of_int (Random.State.full_int st (1 lsl 30)))
    done;
    !x
  in
  let a = wide 135 and b = wide 135 in
  Staged.stage (fun () -> M.sign (M.mul a b))

let bigint_gcd_wide (module M : BI) =
  let st = Random.State.make [| 11 |] in
  let wide limbs30 =
    let x = ref M.zero in
    for _ = 1 to limbs30 do
      x := M.add (M.shift_left !x 30) (M.of_int (Random.State.full_int st (1 lsl 30)))
    done;
    !x
  in
  let g = wide 10 in
  let a = M.mul g (wide 20) and b = M.mul g (wide 20) in
  Staged.stage (fun () -> M.sign (M.gcd a b))

let bigint_of_string (module M : BI) =
  let st = Random.State.make [| 13 |] in
  let wide limbs30 =
    let x = ref M.zero in
    for _ = 1 to limbs30 do
      x := M.add (M.shift_left !x 30) (M.of_int (Random.State.full_int st (1 lsl 30)))
    done;
    !x
  in
  let s = M.to_string (wide 120) in
  Staged.stage (fun () -> M.sign (M.of_string s))

let bigint () =
  pr_header "BIGINT: two-tier fixnum/Karatsuba vs retained naive reference";
  Printf.printf "%-22s %12s %12s %9s\n" "workload" "new(ns)" "naive(ns)" "speedup";
  let live = (module Bigint : BI) and naive = (module Test_util.Ref : BI) in
  List.iter
    (fun (name, mk) ->
      let t_new = measure_ns (mk live) and t_old = measure_ns (mk naive) in
      record (Printf.sprintf "bigint.%s.new_ns" name) t_new;
      record (Printf.sprintf "bigint.%s.naive_ns" name) t_old;
      record (Printf.sprintf "bigint.%s.speedup" name) (t_old /. t_new);
      Printf.printf "%-22s %12.0f %12.0f %8.2fx\n%!" name t_new t_old (t_old /. t_new))
    [
      ("mixed_small(512)", bigint_small);
      ("mul_4050bit", bigint_mul_wide);
      ("gcd_shared_factor", bigint_gcd_wide);
      ("of_string_1080digit", bigint_of_string);
    ]

module Q = Rational
module BB = Bigint

let rational () =
  pr_header "RATIONAL: dyadic fast paths (ns per 256-op batch)";
  let st = Random.State.make [| 17 |] in
  let n = 256 in
  (* Dyadic rationals as the oracle produces them: double significands
     over many binades. *)
  let dy =
    Array.init n (fun _ ->
        let m = Random.State.float st 2.0 -. 1.0 in
        Q.of_float (Float.ldexp m (Random.State.int st 200 - 100)))
  in
  let t_add =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to n - 2 do
             acc := !acc + Q.sign (Q.add dy.(i) dy.(i + 1))
           done;
           !acc))
  in
  (* Near-equal pairs: fast-path compare vs the textbook cross-multiply. *)
  let eps = Q.of_pow2 (-130) in
  let pairs = Array.map (fun a -> (a, Q.add a eps)) dy in
  let t_cmp =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter (fun (a, b) -> acc := !acc + Q.compare a b + Q.compare b a) pairs;
           !acc))
  in
  let t_cmp_slow =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter
             (fun (a, b) ->
               let s a b = BB.compare (BB.mul (Q.num a) (Q.den b)) (BB.mul (Q.num b) (Q.den a)) in
               acc := !acc + s a b + s b a)
             pairs;
           !acc))
  in
  (* Magnitude-spread pairs: the bit-length bracket decides without
     touching the numerators (the common case in LP pivoting). *)
  let spread = Array.map (fun a -> (a, Q.mul_pow2 a 3)) dy in
  let t_cmp_spread =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter (fun (a, b) -> acc := !acc + Q.compare a b + Q.compare b a) spread;
           !acc))
  in
  let t_cmp_spread_slow =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Array.iter
             (fun (a, b) ->
               let s a b = BB.compare (BB.mul (Q.num a) (Q.den b)) (BB.mul (Q.num b) (Q.den a)) in
               acc := !acc + s a b + s b a)
             spread;
           !acc))
  in
  (* Non-dyadic normalization: make with a gcd to strip. *)
  let t_make =
    measure_ns
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to n - 1 do
             let k = (i mod 40) + 2 in
             acc := !acc + Q.sign (Q.of_ints ((i * 6) + 2) (k * 3))
           done;
           !acc))
  in
  record "rational.add_dyadic_ns" t_add;
  record "rational.compare_near_equal_ns" t_cmp;
  record "rational.compare_near_equal_cross_multiply_ns" t_cmp_slow;
  record "rational.compare_spread_ns" t_cmp_spread;
  record "rational.compare_spread_cross_multiply_ns" t_cmp_spread_slow;
  record "rational.make_gcd_ns" t_make;
  Printf.printf "add (dyadic chain):        %10.0f ns\n" t_add;
  Printf.printf "compare (near-equal):      %10.0f ns  vs cross-multiply %10.0f ns (%.2fx)\n"
    t_cmp t_cmp_slow (t_cmp_slow /. t_cmp);
  Printf.printf "compare (spread brackets): %10.0f ns  vs cross-multiply %10.0f ns (%.2fx)\n"
    t_cmp_spread t_cmp_spread_slow (t_cmp_spread_slow /. t_cmp_spread);
  Printf.printf "make (gcd normalization):  %10.0f ns\n%!" t_make

(* ------------------------------------------------------------------ *)
(* LP kernel microbenchmarks: revised simplex vs the dense tableau      *)
(* reference, and warm-started growth vs cold re-solves (the            *)
(* Algorithm-4 access pattern), on Test_util.lp_system's degree-4      *)
(* tube fits.                                                           *)
(* ------------------------------------------------------------------ *)

let lp () =
  pr_header "LP: revised simplex vs dense tableau; warm-started growth (degree-4 tube fit)";
  let a, b = Test_util.lp_system 64 in
  let t_dense = measure_ns (Staged.stage (fun () -> Test_util.Ref_simplex.feasible ~a ~b)) in
  let t_rev = measure_ns (Staged.stage (fun () -> Lp.Simplex.feasible ~a ~b)) in
  record "lp.dense_solve_ns" t_dense;
  record "lp.revised_solve_ns" t_rev;
  record "lp.revised_vs_dense_speedup" (t_dense /. t_rev);
  Printf.printf "one-shot solve (64 rows):  dense %10.0f ns  revised %10.0f ns  (%.2fx)\n%!"
    t_dense t_rev (t_dense /. t_rev);
  (* Grown system: solve after every batch of fresh rows, as the
     counterexample loop does.  Cold re-solves from scratch each round;
     warm keeps one state and repairs its basis by dual simplex. *)
  let rounds = 7 and step = 8 in
  let cold_grow () =
    let ok = ref 0 in
    for k = 1 to rounds do
      let a, b = Test_util.lp_system (k * step) in
      match Lp.Simplex.feasible ~a ~b with Lp.Simplex.Feasible _ -> incr ok | _ -> ()
    done;
    !ok
  in
  let warm_grow () =
    let st = Lp.Simplex.create ~nv:5 in
    let a, b = Test_util.lp_system (rounds * step) in
    let ok = ref 0 in
    for k = 1 to rounds do
      for i = (k - 1) * step to (k * step) - 1 do
        ignore (Lp.Simplex.add_row st a.(i) b.(i))
      done;
      match Lp.Simplex.solve st with Lp.Simplex.Feasible _ -> incr ok | _ -> ()
    done;
    !ok
  in
  let t_cold_grow = measure_ns (Staged.stage cold_grow) in
  let t_warm_grow = measure_ns (Staged.stage warm_grow) in
  record "lp.cold_grow_ns" t_cold_grow;
  record "lp.warm_grow_ns" t_warm_grow;
  record "lp.warm_grow_speedup" (t_cold_grow /. t_warm_grow);
  (* Pivot counts for one pass of each, so the work saved (not just the
     wall clock) lands in the JSON. *)
  let s0 = Lp.Simplex.snapshot () in
  ignore (cold_grow ());
  let s1 = Lp.Simplex.snapshot () in
  ignore (warm_grow ());
  let s2 = Lp.Simplex.snapshot () in
  let cold_pivots = s1.Lp.Simplex.primal_pivots - s0.Lp.Simplex.primal_pivots in
  let warm_pivots = s2.Lp.Simplex.dual_pivots - s1.Lp.Simplex.dual_pivots in
  record "lp.cold_grow_pivots" (float_of_int cold_pivots);
  record "lp.warm_grow_pivots" (float_of_int warm_pivots);
  Printf.printf
    "grown system (%d rounds x %d rows): cold %10.0f ns (%d pivots)  warm %10.0f ns (%d pivots)  (%.2fx)\n%!"
    rounds step t_cold_grow cold_pivots t_warm_grow warm_pivots (t_cold_grow /. t_warm_grow)

(* End-to-end generator wall-clock: the oracle and LP sit on Bigint and
   Rational, so the two-tier work shows up here. *)
let gen () =
  pr_header "GEN: end-to-end table generation wall-clock (bfloat16, Quick enumeration)";
  let t = Funcs.Specs.bfloat16 in
  List.iter
    (fun name ->
      let spec = Funcs.Specs.by_name name t in
      let t0 = Unix.gettimeofday () in
      match
        Rlibm.Generator.generate ~cfg:Rlibm.Config.default spec
          ~patterns:(Funcs.Libm.enumeration t Funcs.Libm.Quick)
      with
      | Error msg -> Printf.printf "%-7s FAILED: %s\n%!" name msg
      | Ok _ ->
          let wall = Unix.gettimeofday () -. t0 in
          record (Printf.sprintf "gen.bfloat16_%s_s" name) wall;
          Printf.printf "%-7s %8.2f s\n%!" name wall)
    [ "log2"; "exp2" ];
  (* float32 log2: the generation the LP-kernel tentpole targets, cold
     (deterministic revised simplex) and with --lp-warm basis reuse.
     Single runs: a generation is seconds, not nanoseconds. *)
  pr_header "GEN: float32 log2 generation, cold vs warm-started LP";
  let t = Funcs.Specs.float32 in
  let spec = Funcs.Specs.by_name "log2" t in
  List.iter
    (fun (label, metric, cfg) ->
      let t0 = Unix.gettimeofday () in
      match
        Rlibm.Generator.generate ~cfg spec ~patterns:(Funcs.Libm.enumeration t Funcs.Libm.Quick)
      with
      | Error msg -> Printf.printf "log2 (%s) FAILED: %s\n%!" label msg
      | Ok g ->
          let wall = Unix.gettimeofday () -. t0 in
          record metric wall;
          (match g.Rlibm.Generator.stats.lp with
          | None -> ()
          | Some l ->
              let pfx = Printf.sprintf "lp.float32_log2_%s" label in
              record (pfx ^ "_solves")
                (float_of_int
                   (if l.lp_warm_mode then l.lp_warm_solves + l.lp_cold_solves else l.lp_cold_solves));
              record (pfx ^ "_pivots") (float_of_int (l.lp_primal_pivots + l.lp_dual_pivots));
              if l.lp_warm_mode then
                record (pfx ^ "_fallbacks") (float_of_int l.lp_warm_fallbacks));
          Printf.printf "log2 (%s) %8.2f s\n%!" label wall)
    [
      ("cold", "gen.float32_log2_s", Rlibm.Config.default);
      ("warm", "gen.float32_log2_warm_s", { Rlibm.Config.default with lp_warm = true });
    ]

(* Mode-polymorphic rounding machinery: interval computation per mode
   (the nearest modes probe closed double boxes; the directed/odd modes
   add one exact-rational midpoint test per endpoint) and the RLIBM-ALL
   derived path — bfloat16 through the single float34 round-to-odd
   table — against the directly generated bfloat16 table. *)
let round_section () =
  pr_header "ROUND: rounding intervals per mode (bfloat16, 1024 patterns)";
  let module T = Fp.Bfloat16 in
  let pats = patterns_of (module T) (inputs_for "log2") in
  List.iter
    (fun mode ->
      let t =
        measure_ns
          (Staged.stage (fun () ->
               let acc = ref 0.0 in
               for i = 0 to batch - 1 do
                 acc := !acc +. (Rlibm.Rounding.interval (module T) ~mode pats.(i)).lo
               done;
               !acc))
      in
      record (Printf.sprintf "round.interval_bf16_%s_ns" (Fp.Rounding_mode.to_string mode)) t;
      Printf.printf "interval %-5s %12.0f ns\n%!" (Fp.Rounding_mode.to_string mode) t)
    Fp.Rounding_mode.all;
  pr_header "ROUND: direct bfloat16 log2 table vs derived-from-float34 (per 1024-input batch)";
  let direct = Rlibm.Generator.compile (Funcs.Libm.get ~quality Funcs.Specs.bfloat16 "log2") in
  let derived =
    Funcs.Derived.fn ~quality (module T : Fp.Representation.S) ~mode:Fp.Rounding_mode.Rne "log2"
  in
  let t_direct = measure_ns (batch_fn direct pats) in
  let t_derived = measure_ns (batch_fn derived pats) in
  record "round.bf16_log2_direct_ns" t_direct;
  record "round.bf16_log2_derived_ns" t_derived;
  record "round.derived_over_direct_ratio" (t_derived /. t_direct);
  Printf.printf "direct %12.0f ns   derived %12.0f ns   (%.2fx the direct cost)\n%!" t_direct
    t_derived (t_derived /. t_direct)

(* Sweep engine: cold full-oracle sweep vs a cache-warm re-run over the
   same (func, mode, pattern) set — the acceptance number for the
   persistent oracle cache.  Seconds-scale jobs, so single-run wall
   clocks (best-of-3 on the warm side, which is cheap): a cold sweep is
   only cold once, Bechamel's OLS has nothing to regress on. *)
let sweep_section () =
  pr_header "SWEEP: resumable bfloat16 log2 sweep, cold oracle vs warm cache (all 2^16 patterns)";
  let t = Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  match Funcs.Libm.get ~quality t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      let spec = g.Rlibm.Generator.spec in
      let compiled = Rlibm.Generator.compile g in
      (* The full 16-bit pattern space: big enough that the cold wall
         clock is seconds-scale (stable under a 25% gate), small enough
         to finish promptly.  [stride] stays in the identity so a later
         strided variant cannot silently resume this checkpoint. *)
      let stride = 1 in
      let n = (((1 lsl T.bits) - 1) / stride) + 1 in
      let root =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rlibm_bench_sweep.%d" (Unix.getpid ()))
      in
      let rec rm_rf p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists root then rm_rf root;
      let identity = Printf.sprintf "bench-sweep v1 target=%s func=log2 stride=%d" T.name stride in
      let cache_dir = Filename.concat root "cache" in
      let run_once tag =
        let cache =
          Sweep.Oracle_cache.open_ ~dir:cache_dir ~repr:T.name ~func:"log2"
            ~mode:(Fp.Rounding_mode.to_string Fp.Rounding_mode.Rne)
        in
        let f ~lo ~hi =
          let ms = ref [] in
          for i = hi - 1 downto lo do
            let pat = i * stride in
            let want =
              match spec.special pat with
              | Some y -> y
              | None ->
                  Sweep.Oracle_cache.memo (Some cache) pat (fun pat ->
                      Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
                        (T.to_rational pat))
            in
            let got = compiled pat in
            if not (Rlibm.Generator.patterns_value_equal spec.repr got want) then
              ms := { Sweep.Checkpoint.pattern = pat; got; want } :: !ms
          done;
          !ms
        in
        let t0 = Unix.gettimeofday () in
        let r = Sweep.Engine.run ~dir:(Filename.concat root tag) ~identity ~n ~chunk_size:512 ~cache f in
        let wall = Unix.gettimeofday () -. t0 in
        Sweep.Oracle_cache.close cache;
        (match r with
        | Error msg -> Printf.printf "sweep (%-5s) FAILED: %s\n%!" tag msg
        | Ok o ->
            Printf.printf "sweep (%-5s) %8.2f s  (%d points, %d mismatches, cache %d hit / %d miss)\n%!"
              tag wall n
              (Array.length o.Sweep.Engine.mismatches)
              o.Sweep.Engine.stats.cache_hits o.Sweep.Engine.stats.cache_misses);
        wall
      in
      let cold = run_once "cold" in
      let warm =
        List.fold_left
          (fun best i -> Float.min best (run_once (Printf.sprintf "warm%d" i)))
          infinity [ 1; 2; 3 ]
      in
      record "sweep.bf16_log2_cold_s" cold;
      record "sweep.bf16_log2_warm_s" warm;
      record "sweep.cache_warm_speedup" (cold /. warm);
      Printf.printf "cold %8.2f s   warm (best of 3) %8.2f s   (%.2fx from the oracle cache)\n%!"
        cold warm (cold /. warm);
      rm_rf root

(* Campaign: the full 2^16 bfloat16 log2 space through the sharded
   driver, fast verifier vs oracle-only.  The acceptance triple lives
   here as gated metrics: inputs/sec through the fast path, the
   fast-path percentage (a correctness-of-strategy canary: if the
   certificate starts missing, this collapses long before anything is
   wrong enough to fail a sweep), and a byte-compare of the two reports
   (100 = identical).  Everything runs in-process: bench shares its
   process with domain-spawning sections, so forking is off the table
   and the throughput is per-worker by construction. *)
let campaign_section () =
  pr_header "CAMPAIGN: sharded bfloat16 log2 certification, fast verifier vs oracle (all 2^16)";
  let t = Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  match Funcs.Libm.get ~quality t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      let n = 1 lsl T.bits in
      let root =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "rlibm_bench_campaign.%d" (Unix.getpid ()))
      in
      let rec rm_rf p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists root then rm_rf root;
      let identity = "bench-campaign v1 target=bfloat16 func=log2 stride=1" in
      let read_file p =
        let ic = open_in_bin p in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let run tag policy shards =
        let counters = Sweep.Verify.counters () in
        let job ~shard =
          let cache =
            Sweep.Oracle_cache.open_
              ~dir:(Filename.concat root (Printf.sprintf "%s-cache-%d" tag shard))
              ~repr:T.name ~func:"log2" ~mode:"rne"
          in
          let v = Rlibm.Verifier.make ~counters ~cache ~policy g in
          { Campaign.f = Sweep.Verify.sweep_fn v ~stride:1 (); cache = Some cache;
            counters = Some counters }
        in
        match
          Campaign.run ~dir:(Filename.concat root tag) ~identity ~n ~shards ~chunk_size:1024
            ~exec:Campaign.In_process ~job ()
        with
        | Error msg ->
            Printf.printf "campaign (%-6s) FAILED: %s\n%!" tag msg;
            None
        | Ok o ->
            let m = o.Campaign.merged in
            Printf.printf
              "campaign (%-6s) %8.3f s  (%d points, %d shards, %d fast / %d escalated, %d \
               mismatches)\n%!"
              tag m.Campaign.Report.m_busy_seconds n shards m.m_fast m.m_escalated
              (Array.length m.m_mismatches);
            Some (m, read_file o.report_path)
      in
      (match (run "fast" `Fast 4, run "oracle" `Oracle 1) with
      | Some (mf, fast_text), Some (_, oracle_text) ->
          let st =
            {
              Rlibm.Stats.c_items = n;
              c_shards = mf.Campaign.Report.m_n_shards;
              c_busy_seconds = mf.m_busy_seconds;
              c_wall_seconds = mf.m_busy_seconds;
              c_fast = mf.m_fast;
              c_escalated = mf.m_escalated;
              c_mismatches = Array.length mf.m_mismatches;
              c_quarantined = Array.length mf.m_quarantined;
            }
          in
          Rlibm.Stats.pp_campaign Format.std_formatter st;
          record "campaign.bf16_log2_fast_s" mf.m_busy_seconds;
          record "campaign.inputs_per_sec" (Rlibm.Stats.campaign_inputs_per_second st);
          record "campaign.fast_path_pct" (Rlibm.Stats.campaign_fast_pct st);
          record "campaign.report_match_pct" (if fast_text = oracle_text then 100.0 else 0.0);
          record "campaign.projected_full32_8workers_s"
            (Rlibm.Stats.campaign_projected_seconds st ~n_items:(1 lsl 32) ~workers:8);
          Printf.printf "fast report %s oracle report\n%!"
            (if fast_text = oracle_text then "==" else "!=")
      | _ -> ());
      rm_rf root

(* ------------------------------------------------------------------ *)
(* SERVE: the zero-allocation serving path (lib/serve).                *)
(* ------------------------------------------------------------------ *)

let serve_section () =
  pr_header "SERVE: zero-allocation kernel pipeline (float32 log2, uniform mix, 65536-call batches)";
  let t = Funcs.Specs.float32 in
  match Funcs.Libm.get ~quality t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g -> (
      match Funcs.Kernels.of_generated g with
      | None -> Printf.printf "skipped (no serving kernel for float32 log2)\n"
      | Some p ->
          let n = 65536 in
          let src = Serve.Workload.gen p ~mix:Serve.Workload.Uniform ~seed:2024 ~n in
          Printf.printf "%6s %14s %10s %10s\n" "jobs" "calls/s" "p50_ns" "p99_ns";
          List.iter
            (fun jobs ->
              let slo = Serve.Run.measure ~jobs p src ~batches:32 in
              Printf.printf "%6d %14.0f %10.1f %10.1f\n%!" jobs slo.Serve.Run.calls_per_sec
                slo.Serve.Run.p50_ns slo.Serve.Run.p99_ns;
              let key part = Printf.sprintf "serve.f32_log2_uniform_%s_j%d" part jobs in
              record (key "calls_per_sec") slo.Serve.Run.calls_per_sec;
              record (key "p50_ns") slo.Serve.Run.p50_ns;
              record (key "p99_ns") slo.Serve.Run.p99_ns)
            [ 1; 2; 4 ];
          (* The headline claim: the kernel doubles pipeline vs the old
             boxed closure chain (kept as Batch.eval_doubles_boxed), same
             inputs, same sharding defaults. *)
          let srcd = Array.map (fun pat -> Serve.Kernel.to_double p pat) src in
          let dst = Array.make n 0.0 in
          let time_batches f =
            f ();
            (* warmed: tables pinned, closures built *)
            let batches = 16 in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to batches do
              f ()
            done;
            float_of_int (n * batches) /. (Unix.gettimeofday () -. t0)
          in
          let boxed = time_batches (fun () -> Funcs.Batch.eval_doubles_boxed g srcd dst) in
          let kern = time_batches (fun () -> Serve.Run.doubles p srcd dst) in
          Printf.printf "doubles pipeline: boxed %.0f calls/s, kernel %.0f calls/s (%.2fx)\n%!" boxed
            kern (kern /. boxed);
          record "serve.f32_log2_uniform_vs_boxed_speedup" (kern /. boxed))

(* ------------------------------------------------------------------ *)
(* PROG: the progressive-polynomial Pareto sweep (RLIBM-PROG).  One     *)
(* generation with certificates, then the serving prefix forced to each *)
(* strict degree k (k=0 = the full-polynomial kernel baseline): the     *)
(* cost–accuracy frontier is (k, fast-tier share, p50/p99 ns/call).     *)
(* ------------------------------------------------------------------ *)

let prog_section () =
  pr_header "PROG: progressive prefix tiers (bfloat16 log2, uniform mix, 65536-call batches)";
  let t = Funcs.Specs.bfloat16 in
  let cfg = { Rlibm.Config.default with progressive = true } in
  match Funcs.Libm.get ~quality ~cfg t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g -> (
      match (Funcs.Kernels.of_generated g, g.Rlibm.Generator.prog) with
      | None, _ | _, None -> Printf.printf "skipped (no serving kernel or no certificates)\n"
      | Some _, Some pr ->
          let n = 65536 in
          let max_k =
            Array.fold_left
              (fun acc (pc : Rlibm.Prog.piece) -> min acc (pc.Rlibm.Prog.nt - 1))
              max_int pr.Rlibm.Prog.pieces
          in
          let selected = if Array.length pr.Rlibm.Prog.serve_k > 0 then pr.Rlibm.Prog.serve_k.(0) else 0 in
          Printf.printf "%6s %10s %14s %10s %10s\n" "k" "fast_pct" "calls/s" "p50_ns" "p99_ns";
          let full_p50 = ref 0.0 in
          for k = 0 to max_k do
            match Funcs.Kernels.force_tier g ~k with
            | None -> Printf.printf "%6d (no strict degree-%d prefix)\n%!" k k
            | Some p ->
                let src = Serve.Workload.gen p ~mix:Serve.Workload.Uniform ~seed:2024 ~n in
                let slo = Serve.Run.measure ~jobs:1 p src ~batches:32 in
                let tc = slo.Serve.Run.tier_prefix + slo.Serve.Run.tier_full + slo.Serve.Run.tier_fallback in
                let fast_pct =
                  if tc = 0 then 0.0
                  else 100.0 *. float_of_int slo.Serve.Run.tier_prefix /. float_of_int tc
                in
                if k = 0 then full_p50 := slo.Serve.Run.p50_ns;
                Printf.printf "%6d %10.2f %14.0f %10.1f %10.1f%s\n%!" k fast_pct
                  slo.Serve.Run.calls_per_sec slo.Serve.Run.p50_ns slo.Serve.Run.p99_ns
                  (if k = selected then "  <- selected serve_k" else if k = 0 then "  (full kernel)" else "");
                let key part = Printf.sprintf "prog.bf16_log2_k%d_%s" k part in
                record (key "fast_pct") fast_pct;
                record (key "p50_ns") slo.Serve.Run.p50_ns;
                record (key "p99_ns") slo.Serve.Run.p99_ns;
                if k = selected && !full_p50 > 0.0 && slo.Serve.Run.p50_ns > 0.0 then
                  record "prog.bf16_log2_tiered_vs_full_p50_speedup" (!full_p50 /. slo.Serve.Run.p50_ns)
          done;
          record "prog.bf16_log2_serve_k" (float_of_int selected);
          if Array.length pr.Rlibm.Prog.input_coverage > 0 then
            record "prog.bf16_log2_joint_fast_pct" (100.0 *. pr.Rlibm.Prog.input_coverage.(0)))

(* Emit the run as a schema-v1 datafile (lib/datafile).  The file keeps
   the historical BENCH_<rev>.json name so CI's baseline picking and the
   committed history stay continuous; Datafile.read lifts the old
   pre-schema files transparently, so old and new baselines coexist.
   Metrics group into one row per family (the key prefix before the
   first '.') — flattening the rows reproduces the recording order, so
   gate verdicts don't depend on which writer produced the file.  The
   machine context (jobs/cpus/ocaml) rides along for Datafile's
   host-comparability check: numbers from two different machines or job
   counts are noise when compared. *)
let write_json () =
  let entries = List.rev !metrics in
  let rev = Datafile.git_rev () in
  let file = Printf.sprintf "BENCH_%s.json" rev in
  Datafile.write ~path:file
    {
      Datafile.rev;
      date = Datafile.timestamp ();
      seed = None;
      config = "bench --json";
      host =
        Some
          {
            Datafile.jobs = Parallel.jobs ();
            cpus = Domain.recommended_domain_count ();
            ocaml = Sys.ocaml_version;
          };
      rows = Datafile.rows_of_metrics ~kind:"bench" entries;
    };
  Printf.printf "\nwrote %s (%d metrics, datafile schema v%d)\n%!" file (List.length entries)
    Datafile.schema_version

let () =
  Printf.printf "RLIBM-32 reproduction benchmarks (see EXPERIMENTS.md for the paper mapping)\n";
  Printf.printf "Correctness tables: dune exec bin/check.exe -- table1 | table2\n";
  Printf.printf "Generator table:    dune exec bin/generate.exe -- stats\n%!";
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let sections = List.filter (fun a -> a <> "--json") args |> List.map String.lowercase_ascii in
  let want s = sections = [] || List.mem s sections in
  if want "fig3" then fig3 ();
  if want "fig4" then fig4 ();
  if want "fig5" then fig5 ();
  if want "ablations" then begin
    ablation_sampling ();
    ablation_structure ()
  end;
  if want "vec" then vec ();
  if want "par" then par ();
  if want "bigint" then bigint ();
  if want "rational" then rational ();
  if want "lp" then lp ();
  if want "gen" then gen ();
  if want "round" then round_section ();
  if want "sweep" then sweep_section ();
  if want "campaign" then campaign_section ();
  if want "serve" then serve_section ();
  if want "prog" then prog_section ();
  if json then write_json ()
