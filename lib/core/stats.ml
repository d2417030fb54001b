(* Generation statistics, one record per generated function: the data
   behind Table 3 (generation time, reduced-input counts, piecewise
   sizes, polynomial degree and term counts). *)

type t = {
  name : string;
  repr_name : string;
  gen_seconds : float;
  n_inputs : int;  (* enumerated inputs *)
  n_special : int;  (* handled by special cases *)
  n_reduced : int;  (* distinct reduced constraints, summed over components *)
  per_component : component array;
  passes : pass list;  (* sharded phases, in execution order *)
  lp : lp option;  (* LP kernel work during this generation run *)
  oracle_cache : cache option;  (* persistent-oracle-cache traffic, if enabled *)
  oracle_phases : Oracle.Elementary.phase_counts;
      (* what each oracle phase settled during the enumeration pass: the
         process-wide counter delta over the pass *)
  prog : prog option;  (* progressive-prefix coverage, when cfg.progressive *)
}

and component = {
  cname : string;
  n_constraints : int;
  n_polynomials : int;  (* total sub-domain count over both sign groups *)
  split_bits : int;  (* the n of 2^n sub-domains (max over groups) *)
  degree : int;
  n_terms : int;
}

(* One domain-parallel pass of the generator (oracle enumeration, final
   validation replay): wall clock, shard spread and throughput, so the
   RLIBM_JOBS speedup is observable from `generate stats`. *)
and pass = {
  pass_name : string;
  jobs : int;
  n_shards : int;
  items : int;
  wall_seconds : float;
  busy_seconds : float;  (* sum over shards; busy/wall ~ effective parallelism *)
  max_shard_seconds : float;
  items_per_second : float;
}

(* LP kernel counters over one generation run: solve and pivot counts
   from {!Lp.Simplex}, split by entry point (cold = fresh two-phase
   solves, warm = dual-simplex basis repairs, fallbacks = warm repairs
   that hit the pivot cap and re-ran cold). *)
and lp = {
  lp_warm_mode : bool;  (* was Config.lp_warm set for this run *)
  lp_cold_solves : int;
  lp_warm_solves : int;
  lp_primal_pivots : int;
  lp_dual_pivots : int;
  lp_refactorizations : int;
  lp_warm_fallbacks : int;
}

(* Persistent oracle cache traffic during one run (Sweep.Oracle_cache):
   hits are Ziv-loop executions the cache saved this run. *)
and cache = { cache_hits : int; cache_misses : int }

(* Progressive-polynomial coverage (cfg.progressive): per component and
   per prefix degree k, the fraction of constraints the prefix satisfies
   (worst sign group) and the fraction of enumerated inputs whose
   certificate bucket the prefix certifies.  [p_serve_k = p_nt] means
   the serving tier is disabled for that component. *)
and prog = {
  prog_exhaustive : bool;  (* certificates enumerated over every pattern *)
  prog_joint_coverage : float;  (* all tiered components hit, input-weighted *)
  prog_components : prog_component array;
}

and prog_component = {
  p_cname : string;
  p_nt : int;
  p_serve_k : int;
  p_per_k : (int * float * float) array;  (* k, constraint cov, input cov *)
}

(* Counter delta between two {!Lp.Simplex.snapshot}s bracketing a run. *)
let lp_of_counters ~warm_mode (b : Lp.Simplex.counters) (a : Lp.Simplex.counters) =
  {
    lp_warm_mode = warm_mode;
    lp_cold_solves = a.cold_solves - b.cold_solves;
    lp_warm_solves = a.warm_solves - b.warm_solves;
    lp_primal_pivots = a.primal_pivots - b.primal_pivots;
    lp_dual_pivots = a.dual_pivots - b.dual_pivots;
    lp_refactorizations = a.refactorizations - b.refactorizations;
    lp_warm_fallbacks = a.warm_fallbacks - b.warm_fallbacks;
  }

let pass_of_run ~name (r : Parallel.stats) =
  let busy = Array.fold_left ( +. ) 0.0 r.shard_seconds in
  let worst = Array.fold_left Float.max 0.0 r.shard_seconds in
  {
    pass_name = name;
    jobs = r.jobs;
    n_shards = r.n_shards;
    items = r.n_items;
    wall_seconds = r.wall_seconds;
    busy_seconds = busy;
    max_shard_seconds = worst;
    items_per_second = (if r.wall_seconds > 0.0 then float_of_int r.n_items /. r.wall_seconds else 0.0);
  }

let pp_pass fmt p =
  Format.fprintf fmt
    "  pass %-8s jobs %2d, %3d shards, %7d items, wall %6.2fs, busy %6.2fs (par %.2fx), %9.0f items/s@."
    p.pass_name p.jobs p.n_shards p.items p.wall_seconds p.busy_seconds
    (if p.wall_seconds > 0.0 then p.busy_seconds /. p.wall_seconds else 1.0)
    p.items_per_second

let pp fmt t =
  Format.fprintf fmt "%s (%s): %.1fs, %d inputs (%d special), %d reduced@." t.name t.repr_name
    t.gen_seconds t.n_inputs t.n_special t.n_reduced;
  Array.iter
    (fun c ->
      Format.fprintf fmt "  %-10s %7d constraints, %4d polys (2^%d), degree %d, %d terms@."
        c.cname c.n_constraints c.n_polynomials c.split_bits c.degree c.n_terms)
    t.per_component;
  List.iter (pp_pass fmt) t.passes;
  Format.fprintf fmt "  %a@." Oracle.Elementary.pp_phase_counts t.oracle_phases;
  (match t.oracle_cache with
  | None -> ()
  | Some c ->
      Format.fprintf fmt "  oracle cache: %d hits, %d misses (%.0f%% of Ziv loops skipped)@."
        c.cache_hits c.cache_misses
        (if c.cache_hits + c.cache_misses > 0 then
           100.0 *. float_of_int c.cache_hits /. float_of_int (c.cache_hits + c.cache_misses)
         else 0.0));
  match t.lp with
  | None -> ()
  | Some l ->
      Format.fprintf fmt
        "  lp %s: %d cold solves (%d primal pivots), %d warm solves (%d dual pivots, %d \
         fallbacks), %d refactorizations@."
        (if l.lp_warm_mode then "warm" else "cold")
        l.lp_cold_solves l.lp_primal_pivots l.lp_warm_solves l.lp_dual_pivots l.lp_warm_fallbacks
        l.lp_refactorizations

(* The per-prefix coverage table `generate --prog --stats` prints. *)
let pp_prog fmt p =
  Format.fprintf fmt "  prog: %s certificates, joint fast-tier coverage %.2f%%@."
    (if p.prog_exhaustive then "exhaustive" else "sampled (tier not servable)")
    (100.0 *. p.prog_joint_coverage);
  Array.iter
    (fun c ->
      Array.iter
        (fun (k, ccov, icov) ->
          Format.fprintf fmt
            "    %-10s prefix k=%d/%d: %6.2f%% constraints, %6.2f%% inputs%s@." c.p_cname k
            c.p_nt (100.0 *. ccov) (100.0 *. icov)
            (if k = c.p_serve_k then "  <- serving tier" else ""))
        c.p_per_k;
      if c.p_serve_k >= c.p_nt then
        Format.fprintf fmt "    %-10s serving tier: full polynomial (no prefix cleared the bar)@."
          c.p_cname)
    p.prog_components

(* One progress line of a checkpointed sweep job ({!Sweep.Engine}):
   chunk completion (with how much came from the resumed checkpoint),
   fault counters, oracle-cache traffic, verifier fast-path traffic, and
   the chunk rate + ETA.  Rate and ETA are computed by the engine over
   chunks finished *this run* only — a resume that restores most of its
   chunks from the checkpoint says nothing about how fast the pending
   ones will go, so restored chunks must not inflate the rate. *)
let pp_sweep fmt (p : Sweep.Engine.progress) =
  Format.fprintf fmt
    "  sweep %d/%d chunks (%d restored, %d retries, %d quarantined), cache %d hit / %d miss%s, \
     %.1fs elapsed, %.1f chunks/s pending-rate, eta %.0fs@."
    p.Sweep.Engine.completed_chunks p.total_chunks p.restored_chunks p.retry_attempts
    p.quarantined_chunks p.cache_hits p.cache_misses
    (if p.fast_path + p.escalations > 0 then
       Printf.sprintf ", verifier %d fast / %d escalated" p.fast_path p.escalations
     else "")
    p.wall_seconds p.chunk_rate p.eta_seconds

(* ------------------------------------------------------------------ *)
(* Campaign-level statistics (lib/campaign merges; plain data here so   *)
(* bin/check and bench can render them without a dune dependency from   *)
(* rlibm onto campaign).                                                *)
(* ------------------------------------------------------------------ *)

type campaign = {
  c_items : int;  (* items verified across all shards *)
  c_shards : int;
  c_busy_seconds : float;  (* sum of shard wall clocks (CPU-ish budget) *)
  c_wall_seconds : float;  (* driver wall clock of this invocation *)
  c_fast : int;  (* oracle-free certifications *)
  c_escalated : int;  (* Ziv-oracle escalations *)
  c_mismatches : int;
  c_quarantined : int;
}

(* Aggregate worker throughput: items per second of shard busy time.
   With W workers running concurrently the wall clock divides by ~W,
   which is exactly what {!campaign_projected_seconds} assumes. *)
let campaign_inputs_per_second c =
  if c.c_busy_seconds > 0.0 then float_of_int c.c_items /. c.c_busy_seconds else 0.0

(* Fast-path share of all verifier verdicts; 100 when no verdict was
   counted (nothing escalated because nothing ran). *)
let campaign_fast_pct c =
  let t = c.c_fast + c.c_escalated in
  if t = 0 then 100.0 else 100.0 *. float_of_int c.c_fast /. float_of_int t

(* Projected wall clock for an [n_items] campaign at [workers]
   single-threaded workers, extrapolating the observed per-worker item
   rate.  The 2^32 planning number in EXPERIMENTS.md comes from here. *)
let campaign_projected_seconds c ~n_items ~workers =
  let rate = campaign_inputs_per_second c in
  if rate > 0.0 && workers > 0 then
    float_of_int n_items /. (rate *. float_of_int workers)
  else infinity

let pp_campaign fmt c =
  Format.fprintf fmt
    "  campaign %d items over %d shards: %.0f items/s, %.2f%% fast-path (%d fast / %d escalated), \
     %d mismatches, %d quarantined ranges, %.1fs busy / %.1fs wall@."
    c.c_items c.c_shards (campaign_inputs_per_second c) (campaign_fast_pct c) c.c_fast
    c.c_escalated c.c_mismatches c.c_quarantined c.c_busy_seconds c.c_wall_seconds;
  Format.fprintf fmt
    "  projected full float32 (2^32 points): %.1fh at 1 worker, %.1fh at 8, %.1fh at 32@."
    (campaign_projected_seconds c ~n_items:(1 lsl 32) ~workers:1 /. 3600.0)
    (campaign_projected_seconds c ~n_items:(1 lsl 32) ~workers:8 /. 3600.0)
    (campaign_projected_seconds c ~n_items:(1 lsl 32) ~workers:32 /. 3600.0)
