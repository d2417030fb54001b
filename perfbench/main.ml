(* The benchmark program: one workload, one seed, one run.

     main.exe --workload serve-f32|build-f32 --seed N
              --seconds S --trace 0|1 [--t0-ns T]

   Prints "# "-prefixed report lines, then one JSON line: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer metrics.
   --t0-ns is the process's spawn time on the same monotonic clock, so
   set-up time covers exec and runtime start-up too.  perfbench/run.py
   builds this program and drives it. *)

open Pbcore
open Pbench
module G = Rlibm.Generator

let t_entry = Clock.now_ns ()

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable t0 : int;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-f32|build-f32 --seed N --seconds S --trace 0|1 [--t0-ns T]";
  exit 2

let parse () =
  let a = { workload = ""; seed = 1; seconds = 10.0; trace = false; t0 = t_entry } in
  let rec go = function
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_of_string v; go r
    | "--seconds" :: v :: r -> a.seconds <- float_of_string v; go r
    | "--trace" :: v :: r -> a.trace <- v = "1"; go r
    | "--t0-ns" :: v :: r -> a.t0 <- int_of_string v; go r
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem a.workload [ "serve-f32"; "build-f32" ]) then usage ();
  a

let out_dir = ".perfbench_out"

let sanitize s = String.map (fun ch -> if ch = '/' then '_' else ch) s

let end_setup (a : args) = Clock.secs (Clock.now_ns () - a.t0)

let record_info (c : Ctx.t) (runs : Serving.run array) =
  let fps =
    Array.to_list runs
    |> List.map (fun (r : Serving.run) -> Printf.sprintf "%S: %S" r.f.label (G.tables_fingerprint r.g))
  in
  Ctx.note
    "info {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"worker_domains\": %d, \"ocaml\": %S, \
     \"tables\": {%s}}"
    c.workload c.seed (Domain.recommended_domain_count ()) (Parallel.jobs ()) Sys.ocaml_version
    (String.concat ", " fps)

let table_bytes runs =
  Array.fold_left (fun acc (r : Serving.run) -> acc + Serving.table_bytes r.g r.plan) 0 runs

(* Top of the major heap so far; read when the timed loop ends, so the
   figure covers set-up and serving but not the analysis of samples. *)
let heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Summed generation pass and LP counters from each function's stats. *)
let gen_stats (runs : Serving.run array) =
  let pass name =
    Array.fold_left
      (fun acc (r : Serving.run) ->
        List.fold_left
          (fun acc (p : Rlibm.Stats.pass) -> if p.pass_name = name then acc +. p.wall_seconds else acc)
          acc r.g.stats.passes)
      0.0 runs
  in
  let lp f =
    Array.fold_left
      (fun acc (r : Serving.run) -> match r.g.stats.lp with Some l -> acc + f l | None -> acc)
      0 runs
  in
  ( pass "oracle",
    pass "check",
    lp (fun l -> l.Rlibm.Stats.lp_cold_solves + l.lp_warm_solves),
    lp (fun l -> l.lp_primal_pivots + l.lp_dual_pivots),
    lp (fun l -> l.lp_refactorizations) )

(* ------------------------------------------------------------------ *)
(* The traced run's layer metrics (shared by every workload).          *)
(* ------------------------------------------------------------------ *)

let per_layer (c : Ctx.t) (runs : Serving.run array) ~gen_s ~plan_s
    ~(certs : (Serving.run * int array * Certify.result) list) =
  let m = Ctx.metric c in
  let st = Serving.traced_loop c runs ~blocks:8 ~rounds:500 in
  let agg = Trace.aggregate c.tr in
  let self name = match Hashtbl.find_opt agg name with Some a -> a.self_ns | None -> 0 in
  let probe = Trace.enter c.tr "probes" in
  let per_kernel name = float_of_int (self name) /. float_of_int (Stdlib.max 1 st.kernel_calls) in
  (* output rounding on the fast path's compensated doubles *)
  let rb_calls = ref 0 and rb_ns = ref 0 in
  let fb_calls = ref 0 and fb_ns = ref 0 in
  Array.iter
    (fun (r : Serving.run) ->
      match r.plan with
      | None -> ()
      | Some p ->
          let inputs = Layers.thin 16384 (Array.concat (Array.to_list r.src)) in
          let n, ns = Layers.round_bits c ~parent:probe r.f p inputs in
          rb_calls := !rb_calls + n;
          rb_ns := !rb_ns + ns;
          if st.fallbacks < 1000 then begin
            let n, ns = Layers.fallback_edges c ~parent:probe r.f p ~n:4096 in
            fb_calls := !fb_calls + n;
            fb_ns := !fb_ns + ns
          end)
    runs;
  let fallback_ns =
    if st.fallbacks >= 1000 then float_of_int (self "kernel.fallback") /. float_of_int st.fallbacks
    else float_of_int !fb_ns /. float_of_int (Stdlib.max 1 !fb_calls)
  in
  (* the compiled scalar path: functions without a kernel, else all *)
  let scalar_runs =
    let nk = List.filter (fun (r : Serving.run) -> r.plan = None) (Array.to_list runs) in
    if nk = [] then Array.to_list runs else nk
  in
  let sc_calls, sc_ns =
    List.fold_left
      (fun (n0, t0) (r : Serving.run) ->
        let n, t = Layers.scalar c ~parent:probe r.f r.g (Layers.thin 16384 (Array.concat (Array.to_list r.src))) in
        (n0 + n, t0 + t))
      (0, 0) scalar_runs
  in
  (* generation's per-input stage, replayed *)
  let gr =
    Array.map (fun (r : Serving.run) -> Layers.gen_replay c ~parent:probe ~cap:256 r.f r.g) runs
  in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 gr in
  let sampled = Stdlib.max 1 (sum (fun x -> x.Layers.sampled)) in
  (* certification *)
  let co_calls, co_ns =
    List.fold_left
      (fun (n0, t0) ((r : Serving.run), inputs, _) ->
        let n, t = Layers.certify_oracle c ~parent:probe ~cap:256 r.f r.g inputs in
        (n0 + n, t0 + t))
      (0, 0) certs
  in
  let fast = List.fold_left (fun a (_, _, (x : Certify.result)) -> a + x.fast) 0 certs in
  let esc = List.fold_left (fun a (_, _, (x : Certify.result)) -> a + x.escalated) 0 certs in
  let overhead =
    List.fold_left
      (fun a (_, _, (x : Certify.result)) ->
        a +. Clock.secs x.wall_ns -. (Clock.secs (Certify.busy_ns x) /. float_of_int (Parallel.jobs ())))
      0.0 certs
  in
  Trace.leave c.tr probe;
  let oracle_pass, check_pass, solves, pivots, refact = gen_stats runs in
  let traced_per_call = float_of_int st.t_round_ns /. float_of_int st.t_calls in
  let untraced_per_call = float_of_int st.u_ns /. float_of_int st.u_calls in
  let layer_self =
    List.fold_left (fun a n -> a + self n) 0
      [ "kernel.stage1"; "kernel.poly"; "kernel.compose"; "kernel.fallback"; "generator.scalar" ]
  in
  m "kernel.stage1_ns" "ns" (per_kernel "kernel.stage1");
  m "kernel.poly_ns" "ns" (per_kernel "kernel.poly");
  m "kernel.compose_ns" "ns" (per_kernel "kernel.compose");
  m "kernel.round_bits_ns" "ns" (float_of_int !rb_ns /. float_of_int (Stdlib.max 1 !rb_calls));
  m "kernel.fallback_ns" "ns" fallback_ns;
  m "kernel.fallback_pct" "%"
    (100.0 *. float_of_int st.fallbacks /. float_of_int (Stdlib.max 1 st.kernel_calls));
  m "generator.scalar_ns" "ns" (float_of_int sc_ns /. float_of_int (Stdlib.max 1 sc_calls));
  m "libm.get_s" "s" gen_s;
  m "kernels.plan_build_s" "s" plan_s;
  m "oracle.gen_us_per_call" "us" (float_of_int (sum (fun x -> x.oracle_ns)) /. float_of_int sampled /. 1e3);
  m "oracle.gen_calls" "count" (float_of_int (sum (fun x -> x.calls)));
  m "rounding.interval_ns" "ns" (float_of_int (sum (fun x -> x.interval_ns)) /. float_of_int sampled);
  m "reduced.deduce_ns" "ns" (float_of_int (sum (fun x -> x.deduce_ns)) /. float_of_int sampled);
  m "generator.oracle_pass_s" "s" oracle_pass;
  m "generator.check_pass_s" "s" check_pass;
  m "lp.solves" "count" (float_of_int solves);
  m "lp.pivots" "count" (float_of_int pivots);
  m "lp.refactorizations" "count" (float_of_int refact);
  m "generator.lp_residual_s" "s" (gen_s -. oracle_pass -. check_pass);
  m "oracle.certify_us_per_call" "us" (float_of_int co_ns /. float_of_int (Stdlib.max 1 co_calls) /. 1e3);
  m "verifier.fast_pct" "%" (100.0 *. float_of_int fast /. float_of_int (Stdlib.max 1 (fast + esc)));
  m "engine.overhead_s" "s" overhead;
  m "batch.eval_ns" "ns" untraced_per_call;
  m "yardstick.ns" "ns" (float_of_int st.y_ns /. float_of_int (Stdlib.max 1 st.y_calls));
  m "trace.overhead_pct" "%" (100.0 *. ((traced_per_call /. untraced_per_call) -. 1.0));
  m "trace.accounted_pct" "%" (100.0 *. float_of_int layer_self /. float_of_int st.t_round_ns);
  m "check.wrong_per_million" "ppm" (Ctx.wrong_per_million c);
  Ctx.note "traced %.3f ns/call vs untraced %.3f ns/call; layer spans cover %.1f%% of traced rounds"
    traced_per_call untraced_per_call
    (100.0 *. float_of_int layer_self /. float_of_int st.t_round_ns);
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.csv" c.workload c.seed) in
  Trace.write c.tr path;
  Ctx.note "%d spans written to %s" (Trace.count c.tr) path

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)
(* ------------------------------------------------------------------ *)

(* Timings in yardstick calls (perfbench/yardstick.ml): the time of
   that many system-libm calls on the same inputs, measured alongside. *)
let cost_unit = "libm_calls"

let end_to_end (c : Ctx.t) ~setup_s ~mean_cost ~p50 ~p99 ~bytes ~heap_mb =
  let m = Ctx.metric c in
  m "setup_s" "s" setup_s;
  m "mean_cost" cost_unit mean_cost;
  m "p50_cost" cost_unit p50;
  m "p99_cost" cost_unit p99;
  m "table_bytes" "B" (float_of_int bytes);
  m "heap_peak_mb" "MiB" heap_mb;
  Ctx.note "table_bytes %d (computed from the plans and piecewise tables)" bytes

(* The serving figures in yardstick calls.  The mean cost is its median
   over the windows.  The latency percentiles are over the distinct
   rounds, each round at its median over its repetitions, every sample
   divided by its window's yardstick time per call.  The same figures in
   absolute units are noted beside them. *)
let serving_figures (c : Ctx.t) ~rounds (buf : Ctx.Fbuf.t) (windows : Window.t list) =
  let get name f =
    match Window.median f windows with
    | Some v -> v
    | None ->
        Ctx.error c ~ops:0 (name ^ ": no window");
        Float.nan
  in
  let ns_med = Window.unit_medians ~units:rounds (fun _ k -> Ctx.Fbuf.get buf k) windows in
  let pct q = match Quantile.of_sorted (Quantile.sorted_copy ns_med) q with Ok p -> p.value | Error _ -> Float.nan in
  Ctx.note "%d windows of %d ms; window medians: %.0f calls/s, yardstick %.3f ns/call; p50 %.3f ns, p99 %.3f ns"
    (List.length windows) (Serving.window_ns / 1_000_000)
    (get "calls_per_s" (fun (w : Window.t) -> Some (float_of_int w.calls /. Clock.secs w.ns)))
    (get "yardstick" (fun w -> Some (Window.ref_per_call w)))
    (pct 0.50) (pct 0.99);
  let costs =
    Window.unit_medians ~units:rounds (fun w k -> Ctx.Fbuf.get buf k /. Window.ref_per_call w) windows
  in
  let p50, p99 = Ctx.latency c ~unit:cost_unit costs in
  (get "mean_cost" (fun w -> Some (Window.cost w)), p50, p99)

(* One certification sweep of a function in a fresh directory.  An
   engine error or a quarantined chunk is a run error; its inputs count
   as failed operations only when [count] (the first sweep of the
   inputs), so repeated sweeps do not count them again. *)
let certify (c : Ctx.t) ~parent ~count (r : Serving.run) ~stride ~n =
  let dir = Filename.concat out_dir ("sweep-" ^ sanitize r.f.label) in
  let ops k = if count then k else 0 in
  match Certify.run ~dir ~identity:r.f.label ~yard:r.yard r.g ~stride ~n with
  | Error msg ->
      Ctx.error c ~ops:(ops n) msg;
      None
  | Ok x ->
      Certify.add_spans c ~parent ~label:r.f.label x;
      List.iter (fun (lo, hi, msg) -> Ctx.error c ~ops:(ops (hi - lo)) msg) x.quarantined;
      Some x

let serve (a : args) (c : Ctx.t) =
  let sv = Inputs.serve_pools ~seed:a.seed in
  let runs, gen_s, plan_s = Ctx.span c "setup" (fun parent -> Serving.setup c ~parent sv.fns sv.pools) in
  Serving.warm_up runs;
  let setup_s = end_setup a in
  record_info c runs;
  Serving.check_outputs c runs;
  if not c.traced then begin
    let calls, timed_ns, buf, windows =
      Serving.closed_loop c runs ~rounds_or_seconds:(`Seconds a.seconds)
    in
    let heap_mb = heap_mb () in
    Ctx.note "%d calls in %d rounds of %d (batch %d per function, 1 serving domain): %.0f calls/s" calls
      (calls / Serving.round_calls runs) (Serving.round_calls runs) Inputs.batch
      (float_of_int calls /. Clock.secs timed_ns);
    let mean_cost, p50, p99 =
      serving_figures c ~rounds:(Array.length runs.(0).src) buf windows
    in
    end_to_end c ~setup_s ~mean_cost ~p50 ~p99 ~bytes:(table_bytes runs) ~heap_mb
  end
  else begin
    (* a small odd-stride certification sweep of each served function *)
    let certs =
      Ctx.span c "certify" (fun parent ->
          Array.to_list runs
          |> List.filter_map (fun (r : Serving.run) ->
                 let module T = (val r.f.fmt : Fp.Representation.S) in
                 let stride = ((1 lsl T.bits) / 4096) lor 1 in
                 let n = (((1 lsl T.bits) - 1) / stride) + 1 in
                 certify c ~parent ~count:true r ~stride ~n
                 |> Option.map (fun x -> (r, Array.init n (fun i -> i * stride), x))))
    in
    per_layer c runs ~gen_s ~plan_s ~certs
  end

let build (a : args) (c : Ctx.t) =
  let inputs = Inputs.sweep_inputs () in
  let n = Array.length inputs in
  (* Set-up is the cold generation: the tables the sweeps certify. *)
  let runs, gen_s, plan_s =
    Ctx.span c "generate" (fun parent ->
        Serving.setup c ~parent Inputs.build_fns (Array.map (fun _ -> inputs) Inputs.build_fns))
  in
  let setup_s = end_setup a in
  record_info c runs;
  (* Every swept output against the reference, bit for bit (untimed). *)
  Array.iter
    (fun (r : Serving.run) ->
      let fn = G.compile r.g in
      Array.iteri (fun b src -> Array.iteri (fun i p -> r.dst.(b).(i) <- fn p) src) r.src)
    runs;
  Serving.check_outputs c runs;
  let certify_round ~count parent =
    Array.map (fun r -> certify c ~parent ~count r ~stride:Inputs.sweep_stride ~n) runs
  in
  if not c.traced then begin
    (* Certification rounds until they have run for --seconds (at least
       3).  Each sweep times the yardstick beside its chunks, and its
       wall time is converted to yardstick calls at that sweep's mean.
       The mean cost is its median over the rounds, and each chunk's
       latency is its median over the rounds, so a burst of host
       contention moves one round, not the result. *)
    let rounds = Array.make (Array.length runs) [] in
    let wall = ref 0 and certified = ref 0 and nrounds = ref 0 and costs = ref [] in
    let yard_calls = ref 0 and yard_ns = ref 0 in
    while !nrounds < 3 || Clock.secs !wall < a.seconds do
      let r_cost = ref 0.0 and r_inputs = ref 0 in
      Array.iteri
        (fun i x ->
          match x with
          | None -> ()
          | Some (x : Certify.result) ->
              wall := !wall + x.wall_ns;
              certified := !certified + x.inputs;
              r_cost := !r_cost +. (float_of_int x.wall_ns /. Certify.yard_unit x);
              r_inputs := !r_inputs + x.inputs;
              yard_calls := !yard_calls + x.yard_calls;
              yard_ns := !yard_ns + x.yard_ns;
              if !nrounds = 0 then
                Ctx.note "%s: the sweep reports %d mismatches (value equality), %d fast / %d escalated"
                  runs.(i).f.label x.mismatches x.fast x.escalated;
              rounds.(i) <- x :: rounds.(i))
        (certify_round ~count:(!nrounds = 0) Trace.root);
      if !r_inputs > 0 then costs := (!r_cost /. float_of_int !r_inputs) :: !costs;
      incr nrounds
    done;
    let heap_mb = heap_mb () in
    let samples = Ctx.Fbuf.create () in
    Array.iter (fun rs -> Certify.chunk_samples rs samples) rounds;
    Ctx.note
      "%d certification rounds: %d inputs in %.3f s of sweep wall time (%.0f inputs/s); yardstick %.3f ns/call"
      !nrounds !certified (Clock.secs !wall)
      (float_of_int !certified /. Clock.secs !wall)
      (float_of_int !yard_ns /. float_of_int !yard_calls);
    let p50, p99 = Ctx.latency c ~unit:cost_unit (Ctx.Fbuf.sub samples ~first:0 ~last:samples.n) in
    end_to_end c ~setup_s ~mean_cost:(Quantile.median (Array.of_list !costs)) ~p50 ~p99
      ~bytes:(table_bytes runs) ~heap_mb
  end
  else begin
    let certs =
      Ctx.span c "certify" (fun parent ->
          Array.to_list (certify_round ~count:true parent)
          |> List.mapi (fun i x -> Option.map (fun x -> (runs.(i), inputs, x)) x)
          |> List.filter_map Fun.id)
    in
    per_layer c runs ~gen_s ~plan_s ~certs
  end

let () =
  let a = parse () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let c = Ctx.create ~workload:a.workload ~seed:a.seed ~traced:a.trace in
  (match a.workload with "build-f32" -> build a c | _ -> serve a c);
  Ctx.finish c
