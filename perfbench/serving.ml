(* The serving layer as a closed loop: one caller issues a round — one
   fixed-size batch per function, through Funcs.Batch.eval_patterns —
   and the next round only after the previous one returns.  Serving
   runs on the calling domain (batches stay below the sharding
   threshold).  Each distinct input's output is compared with the
   reference once, after the warm-up pass; the timed rounds must then
   reproduce the warm-up outputs bit for bit.  Both checks run outside
   the timed region.  Every round is followed by a round of the
   host-speed yardstick (perfbench/yardstick.ml) on the same batches. *)

open Pbcore
module G = Rlibm.Generator
module K = Serve.Kernel

type run = {
  f : Inputs.fn;
  g : G.generated;
  plan : K.plan option;
  yard : Yardstick.t;
  src : int array array;  (* batches of inputs *)
  dst : int array array;
  mutable served : int array array;  (* outputs of the checked pass, per batch *)
}

let batches (a : int array) =
  Array.init (Array.length a / Inputs.batch) (fun b -> Array.sub a (b * Inputs.batch) Inputs.batch)

(** Generate (Funcs.Libm.get) and flatten (Funcs.Kernels.of_generated)
    every function, timing each call.  A generation that fails is a
    failed operation and drops its function.  Returns the runs plus the
    summed generation and plan-build seconds. *)
let setup (c : Ctx.t) ~parent (fns : Inputs.fn array) (pools : int array array) =
  let gen_s = ref 0.0 and plan_s = ref 0.0 in
  let runs =
    List.filter_map
      (fun ((f : Inputs.fn), pool) ->
        c.attempted <- c.attempted + 1;
        let t0 = Clock.now_ns () in
        match
          Ctx.span c ~parent ("libm.get:" ^ f.label) (fun _ ->
              Funcs.Libm.get f.target f.name)
        with
        | exception e ->
            Ctx.error c ~ops:1 (f.label ^ ": " ^ Printexc.to_string e);
            None
        | g ->
            let t1 = Clock.now_ns () in
            let plan =
              Ctx.span c ~parent ("kernels.of_generated:" ^ f.label) (fun _ ->
                  Funcs.Kernels.of_generated g)
            in
            let t2 = Clock.now_ns () in
            gen_s := !gen_s +. Clock.secs (t1 - t0);
            plan_s := !plan_s +. Clock.secs (t2 - t1);
            let src = batches pool in
            Some { f; g; plan; yard = Yardstick.make f; src; dst = Array.map Array.copy src; served = [||] })
      (List.combine (Array.to_list fns) (Array.to_list pools))
  in
  (Array.of_list runs, !gen_s, !plan_s)

(** One untimed pass over every batch: pins the plans, touches the
    tables and faults in the buffers. *)
let warm_up runs =
  Array.iter (fun r -> Array.iteri (fun b s -> Funcs.Batch.eval_patterns r.g s r.dst.(b)) r.src) runs

(** Compare the outputs now in [dst] — one per distinct input — with
    the reference (untimed), account them as checked operations, and
    keep them as the outputs later rounds must reproduce. *)
let check_outputs c runs =
  Array.iter
    (fun r ->
      let got = Array.concat (Array.to_list r.dst) in
      let want = Reference.table r.f.fmt ~mode:r.f.mode r.f.name (Array.concat (Array.to_list r.src)) in
      let wrong = ref 0 in
      Array.iteri (fun i w -> if not (Reference.matches r.f.fmt ~want:w got.(i)) then incr wrong) want;
      Ctx.checked c ~ops:(Array.length want) ~wrong:!wrong;
      Ctx.note "%s: %d of %d outputs differ from the oracle reference" r.f.label !wrong
        (Array.length want);
      r.served <- Array.map Array.copy r.dst)
    runs

(** Outputs of batch [b] that differ from the checked pass's. *)
let changed r b =
  let s = r.served.(b) and d = r.dst.(b) in
  let n = ref 0 in
  for i = 0 to Array.length d - 1 do
    if d.(i) <> s.(i) then incr n
  done;
  !n

(** A timed round must reproduce the checked outputs: any change is a
    run error (the operations were already counted). *)
let report_changed c n =
  if n > 0 then Ctx.error c ~ops:0 (Printf.sprintf "%d served outputs changed between rounds" n)

let round_calls runs = Array.length runs * Inputs.batch

(* Length of one measurement window (see {!Pbcore.Window}). *)
let window_ns = 500_000_000

(** Closed loop for a number of rounds or of seconds, comparing every
    round's outputs with the checked ones (untimed).  Each round is
    followed by a yardstick round over the same batches.  Returns
    (calls, timed ns, per-call latency samples — one per round — and
    the windows). *)
let closed_loop c runs ~rounds_or_seconds =
  let samples = Ctx.Fbuf.create () in
  let per = round_calls runs in
  let nb = Array.length runs.(0).src in
  let ys = Array.map (fun r -> r.yard) runs in
  let ysrc = Array.init nb (fun bi -> Array.map (fun r -> r.src.(bi)) runs) in
  let ydst = Array.make Inputs.batch 0 in
  let timed = ref 0 and calls = ref 0 and b = ref 0 and nchanged = ref 0 in
  let windows = ref [] in
  let w_first = ref 0 and w_calls = ref 0 and w_ns = ref 0 in
  let w_ref_calls = ref 0 and w_ref_ns = ref 0 in
  let w_end = ref (Clock.now_ns () + window_ns) in
  let close_window () =
    if !w_calls > 0 then
      windows :=
        { Window.first = !w_first; last = samples.n; calls = !w_calls; ns = !w_ns;
          ref_calls = !w_ref_calls; ref_ns = !w_ref_ns }
        :: !windows;
    w_first := samples.n;
    w_calls := 0;
    w_ns := 0;
    w_ref_calls := 0;
    w_ref_ns := 0
  in
  let continue =
    match rounds_or_seconds with
    | `Rounds n -> fun () -> !b < n
    | `Seconds s ->
        let deadline = Clock.now_ns () + int_of_float (s *. 1e9) in
        fun () -> Clock.now_ns () < deadline
  in
  while continue () do
    let bi = !b mod nb in
    let t0 = Clock.now_ns () in
    (try Array.iter (fun r -> Funcs.Batch.eval_patterns r.g r.src.(bi) r.dst.(bi)) runs
     with e -> Ctx.error c ~ops:per ("eval_patterns: " ^ Printexc.to_string e));
    let t1 = Clock.now_ns () in
    timed := !timed + (t1 - t0);
    calls := !calls + per;
    w_ns := !w_ns + (t1 - t0);
    w_calls := !w_calls + per;
    Ctx.Fbuf.push samples (float_of_int (t1 - t0) /. float_of_int per);
    Array.iter (fun r -> nchanged := !nchanged + changed r bi) runs;
    let rc, rns = Yardstick.time ys ysrc.(bi) ydst in
    w_ref_calls := !w_ref_calls + rc;
    w_ref_ns := !w_ref_ns + rns;
    incr b;
    if t1 >= !w_end then begin
      close_window ();
      w_end := t1 + window_ns
    end
  done;
  close_window ();
  report_changed c !nchanged;
  (!calls, !timed, samples, List.rev !windows)

(* ------------------------------------------------------------------ *)
(* Traced serving: the same rounds, with each batch split into the      *)
(* kernel's public stages so every stage gets its own span.             *)
(* ------------------------------------------------------------------ *)

type stage_bufs = {
  s : float array;
  aux : int array;
  r : float array;
  v1 : float array;
  v2 : float array;
}

let bufs n =
  { s = K.scratch (); aux = Array.make n 0; r = Array.make n 0.0; v1 = Array.make n 0.0;
    v2 = Array.make n 0.0 }

(* Kernel stages over one batch, each stage one span under [parent].
   Returns the number of fallback calls. *)
let staged_kernel c ~parent (p : K.plan) bf (src : int array) (dst : int array) =
  let n = Array.length src in
  let pcs = p.K.pieces in
  let two = Array.length pcs > 1 in
  let s = bf.s in
  Ctx.span c ~parent "kernel.stage1" (fun _ ->
      for i = 0 to n - 1 do
        bf.aux.(i) <- K.stage1 p s src.(i);
        bf.r.(i) <- s.(0)
      done);
  Ctx.span c ~parent "kernel.poly" (fun _ ->
      for i = 0 to n - 1 do
        if bf.aux.(i) >= 0 then begin
          s.(0) <- bf.r.(i);
          K.eval_piece pcs.(0) s 1;
          bf.v1.(i) <- s.(1);
          if two then begin
            K.eval_piece pcs.(1) s 2;
            bf.v2.(i) <- s.(2)
          end
        end
      done);
  Ctx.span c ~parent "kernel.compose" (fun _ ->
      for i = 0 to n - 1 do
        let a = bf.aux.(i) in
        if a >= 0 then begin
          s.(1) <- bf.v1.(i);
          s.(2) <- bf.v2.(i);
          dst.(i) <- K.compose p s a
        end
      done);
  let nfb = ref 0 in
  Ctx.span c ~parent "kernel.fallback" (fun _ ->
      for i = 0 to n - 1 do
        if bf.aux.(i) < 0 then begin
          dst.(i) <- p.K.fallback src.(i);
          incr nfb
        end
      done);
  !nfb

type traced = {
  mutable t_calls : int;
  mutable t_round_ns : int;  (* summed traced round durations *)
  mutable u_calls : int;
  mutable u_ns : int;  (* summed untraced round durations, same rounds *)
  mutable y_calls : int;  (* yardstick calls beside the untraced rounds *)
  mutable y_ns : int;
  mutable kernel_calls : int;
  mutable fallbacks : int;
}

(* A traced round runs each stage over [traced_batches] consecutive
   batches of a function at once, so a stage span covers 256 calls and
   the span's own cost stays small beside them. *)
let traced_batches = 4

(** Alternate untraced rounds (eval_patterns) with traced staged rounds,
    [blocks] times: [rounds] untraced rounds, then traced rounds over as
    many calls, so drift hits both sides alike. *)
let traced_loop c runs ~blocks ~rounds =
  let st =
    { t_calls = 0; t_round_ns = 0; u_calls = 0; u_ns = 0; y_calls = 0; y_ns = 0; kernel_calls = 0;
      fallbacks = 0 }
  in
  let per = round_calls runs in
  let nb = Array.length runs.(0).src in
  let pinned = Array.map (fun r -> Option.map Serve.Run.pin r.plan) runs in
  let compiled = Array.map (fun r -> if r.plan = None then Some (G.compile r.g) else None) runs in
  let nt = nb / traced_batches and tlen = traced_batches * Inputs.batch in
  let join a j = Array.concat (Array.to_list (Array.sub a (j * traced_batches) traced_batches)) in
  let tsrc = Array.map (fun r -> Array.init nt (join r.src)) runs in
  let tserved = Array.map (fun r -> Array.init nt (join r.served)) runs in
  let tdst = Array.map (fun _ -> Array.make tlen 0) runs in
  let bfs = Array.map (fun _ -> bufs tlen) runs in
  let b = ref 0 in
  for _ = 1 to blocks do
    let calls, ns, _, ws = closed_loop c runs ~rounds_or_seconds:(`Rounds rounds) in
    st.u_calls <- st.u_calls + calls;
    st.u_ns <- st.u_ns + ns;
    List.iter
      (fun (w : Window.t) ->
        st.y_calls <- st.y_calls + w.ref_calls;
        st.y_ns <- st.y_ns + w.ref_ns)
      ws;
    for _ = 1 to rounds / traced_batches do
      let j = !b mod nt in
      let rid = Trace.enter c.Ctx.tr "serve.round" in
      Array.iteri
        (fun k r ->
          Ctx.span c ~parent:rid ("serve.batch:" ^ r.f.label) (fun fid ->
              let src = tsrc.(k).(j) and dst = tdst.(k) in
              match (pinned.(k), compiled.(k)) with
              | Some p, _ ->
                  let nfb = staged_kernel c ~parent:fid p bfs.(k) src dst in
                  st.kernel_calls <- st.kernel_calls + tlen;
                  st.fallbacks <- st.fallbacks + nfb
              | None, Some f ->
                  Ctx.span c ~parent:fid "generator.scalar" (fun _ ->
                      for i = 0 to tlen - 1 do
                        dst.(i) <- f src.(i)
                      done)
              | None, None -> assert false))
        runs;
      Trace.leave c.Ctx.tr rid;
      st.t_round_ns <- st.t_round_ns + Trace.duration c.Ctx.tr rid;
      st.t_calls <- st.t_calls + (per * traced_batches);
      let n = ref 0 in
      Array.iteri
        (fun k d -> Array.iteri (fun i v -> if v <> tserved.(k).(j).(i) then incr n) d)
        tdst;
      report_changed c !n;
      incr b
    done
  done;
  st

(* ------------------------------------------------------------------ *)
(* Computed table bytes.                                               *)
(* ------------------------------------------------------------------ *)

let fbytes a = 8 * Array.length a

(** Bytes of coefficient rows and family tables a served call reads:
    from the flat plan when there is one, else from the generated
    piecewise tables (coefficient rows only). *)
let table_bytes (g : G.generated) (plan : K.plan option) =
  match plan with
  | Some p ->
      let grp = function Some (gr : K.pgroup) -> fbytes gr.coeffs | None -> 0 in
      let pieces = Array.fold_left (fun a (pc : K.piece) -> a + grp pc.neg + grp pc.pos) 0 p.pieces in
      let fam =
        match p.family with
        | K.Log f -> fbytes f.f_tbl
        | K.Exp f -> fbytes f.t2
        | K.Tanh f -> fbytes f.t2
        | K.Sinpi { spn; cpn } | K.Cospi { spn; cpn } -> fbytes spn + fbytes cpn
        | K.Sinh { sh; ch } | K.Cosh { sh; ch } -> fbytes sh + fbytes ch
      in
      pieces + fam
  | None ->
      let grp = function Some (gr : Rlibm.Piecewise.group) -> fbytes gr.coeffs | None -> 0 in
      Array.fold_left (fun a (pw : Rlibm.Piecewise.t) -> a + grp pw.neg + grp pw.pos) 0 g.pieces
