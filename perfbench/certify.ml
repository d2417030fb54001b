(* Certification layer: a strided sweep of one generated function through
   Rlibm.Verifier and Sweep.Engine, in a fresh directory, with no oracle
   cache.  The chunk callback is wrapped to timestamp each chunk (for
   per-input latency samples, busy time and chunk spans) and to time the
   yardstick on the chunk's inputs right after the chunk, on the same
   worker domain (outside the chunk's timestamps). *)

open Pbcore

let chunk_size = 256

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type result = {
  inputs : int;
  wall_ns : int;
  t0 : int;
  t1 : int;
  starts : int array;  (* per chunk; 0 when the chunk never ran *)
  stops : int array;
  mismatches : int;  (* the sweep's own verdicts (value equality) *)
  quarantined : (int * int * string) list;
  fast : int;
  escalated : int;
  yard_calls : int;  (* yardstick calls made beside the chunks *)
  yard_ns : int;
}

(** The sweep's yardstick ns per call. *)
let yard_unit r = float_of_int r.yard_ns /. float_of_int r.yard_calls

let busy_ns r =
  let b = ref 0 in
  Array.iteri (fun i s -> if s > 0 then b := !b + (r.stops.(i) - s)) r.starts;
  !b

(** Per-input latency of every chunk, in yardstick calls of its sweep,
    each chunk at its median over the given sweeps of one function (same
    geometry). *)
let chunk_samples (rs : result list) (buf : Ctx.Fbuf.t) =
  match rs with
  | [] -> ()
  | r0 :: _ ->
      Array.iteri
        (fun i _ ->
          let ts =
            List.filter_map
              (fun r ->
                if r.starts.(i) > 0 then Some (float_of_int (r.stops.(i) - r.starts.(i)) /. yard_unit r)
                else None)
              rs
          in
          if ts <> [] then begin
            let len = Stdlib.min chunk_size (r0.inputs - (i * chunk_size)) in
            Ctx.Fbuf.push buf (Quantile.median (Array.of_list ts) /. float_of_int len)
          end)
        r0.starts

(** [run ~dir ~identity ~yard g ~stride ~n] sweeps items [0, n) (item i
    is pattern i * stride). *)
let run ~dir ~identity ~(yard : Yardstick.t) (g : Rlibm.Generator.generated) ~stride ~n =
  rm_rf dir;
  let counters = Sweep.Verify.counters () in
  let v = Rlibm.Verifier.make ~counters ~policy:`Auto g in
  let f = Sweep.Verify.sweep_fn v ~stride () in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let starts = Array.make nchunks 0 and stops = Array.make nchunks 0 in
  let yard_ns = Array.make nchunks 0 and yard_calls = Array.make nchunks 0 in
  let timed ~lo ~hi =
    let i = lo / chunk_size in
    let s = Clock.now_ns () in
    let v =
      Fun.protect
        ~finally:(fun () ->
          starts.(i) <- s;
          stops.(i) <- Clock.now_ns ())
        (fun () -> f ~lo ~hi)
    in
    let t0 = Clock.now_ns () in
    for k = lo to hi - 1 do
      ignore (Sys.opaque_identity (yard (k * stride)))
    done;
    yard_ns.(i) <- Clock.now_ns () - t0;
    yard_calls.(i) <- hi - lo;
    v
  in
  let t0 = Clock.now_ns () in
  let out = Sweep.Engine.run ~dir ~identity ~n ~chunk_size ~verify:counters timed in
  let t1 = Clock.now_ns () in
  rm_rf dir;
  match out with
  | Error msg -> Error msg
  | Ok o ->
      Ok
        {
          inputs = n;
          wall_ns = t1 - t0;
          t0;
          t1;
          starts;
          stops;
          mismatches = Array.length o.mismatches;
          quarantined = List.map (fun (_, lo, hi, msg) -> (lo, hi, msg)) o.quarantined;
          fast = Sweep.Verify.fast counters;
          escalated = Sweep.Verify.escalated counters;
          yard_calls = Array.fold_left ( + ) 0 yard_calls;
          yard_ns = Array.fold_left ( + ) 0 yard_ns;
        }

(** Record the sweep as an "engine.run" span with one child per chunk
    (chunks ran on worker domains, so children may overlap). *)
let add_spans (c : Ctx.t) ~parent ~label r =
  if c.traced then begin
    let id = Trace.add c.tr ~name:("engine.run:" ^ label) ~parent ~start:r.t0 ~stop:r.t1 in
    Array.iteri
      (fun i s ->
        if s > 0 then ignore (Trace.add c.tr ~name:"sweep.chunk" ~parent:id ~start:s ~stop:r.stops.(i)))
      r.starts
  end
