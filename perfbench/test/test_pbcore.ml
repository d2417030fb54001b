(* The benchmark's own logic: percentile rank rule, span self time and
   seeded input reproducibility. *)

open Pbcore

let test_rank () =
  Alcotest.(check int) "p50 of 10" 5 (Quantile.rank ~n:10 0.5);
  Alcotest.(check int) "p99 of 1000" 990 (Quantile.rank ~n:1000 0.99);
  Alcotest.(check int) "p99 of 128" 127 (Quantile.rank ~n:128 0.99);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Quantile.beyond ~n:1000 0.99);
  Alcotest.(check int) "min samples for p99" 1000 (Quantile.min_samples 0.99);
  Alcotest.(check int) "min samples for p50" 20 (Quantile.min_samples 0.5)

let test_percentile_gate () =
  let s n = Array.init n float_of_int in
  (match Quantile.of_sorted (s 128) 0.99 with
  | Ok _ -> Alcotest.fail "p99 of 128 samples leaves 1 beyond; must be refused"
  | Error _ -> ());
  match Quantile.of_sorted (s 1000) 0.99 with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check (float 0.0)) "value" 989.0 p.value;
      Alcotest.(check int) "beyond" 10 p.beyond;
      Alcotest.(check int) "samples" 1000 p.samples

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Quantile.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Quantile.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_self_time () =
  let t = Trace.create () in
  let p = Trace.add t ~name:"parent" ~parent:Trace.root ~start:0 ~stop:100 in
  (* overlapping children and one that runs past the parent's end *)
  let a = Trace.add t ~name:"a" ~parent:p ~start:10 ~stop:30 in
  let b = Trace.add t ~name:"b" ~parent:p ~start:20 ~stop:50 in
  let c = Trace.add t ~name:"c" ~parent:p ~start:90 ~stop:120 in
  let g = Trace.add t ~name:"g" ~parent:a ~start:12 ~stop:18 in
  let self = Trace.self_times t in
  Alcotest.(check int) "parent self = 100 - |[10,50] u [90,100]|" 50 self.(p);
  Alcotest.(check int) "a self" 14 self.(a);
  Alcotest.(check int) "b self" 30 self.(b);
  Alcotest.(check int) "c self (leaf)" 30 self.(c);
  Alcotest.(check int) "grandchild self" 6 self.(g);
  let agg = Trace.aggregate t in
  let pa = Hashtbl.find agg "parent" in
  Alcotest.(check int) "aggregate total" 100 pa.total_ns;
  Alcotest.(check int) "aggregate self" 50 pa.self_ns

let test_self_time_grows () =
  let t = Trace.create () in
  let p = Trace.add t ~name:"p" ~parent:Trace.root ~start:0 ~stop:10_000 in
  for i = 0 to 4999 do
    ignore (Trace.add t ~name:"k" ~parent:p ~start:(2 * i) ~stop:((2 * i) + 1))
  done;
  Alcotest.(check int) "spans kept across growth" 5001 (Trace.count t);
  Alcotest.(check int) "self of parent" 5000 (Trace.self_times t).(p)

let draw seed =
  let st = Splitmix.make seed in
  Splitmix.fill 4096 (fun _ -> Splitmix.pattern_in st ~lo:0x00800000 ~hi:0x7f800000 ~sign:0x80000000)

let test_seeded_inputs () =
  Alcotest.(check bool) "same seed, same inputs" true (draw 7 = draw 7);
  Alcotest.(check bool) "other seed, other inputs" false (draw 7 = draw 8);
  let a = draw 7 in
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun p -> let m = p land 0x7fffffff in m >= 0x00800000 && m < 0x7f800000) a);
  Alcotest.(check bool) "both signs" true
    (Array.exists (fun p -> p land 0x80000000 <> 0) a && Array.exists (fun p -> p land 0x80000000 = 0) a)

let test_window_median () =
  let w first calls ns = { Window.first; last = first + 1; calls; ns; ref_calls = 1; ref_ns = 1 } in
  let ws = [ w 0 100 1000; w 1 100 500; w 2 100 2000; w 3 50 200; w 4 100 700 ] in
  let per_call (x : Window.t) = if x.calls < 100 then None else Some (float_of_int x.ns /. float_of_int x.calls) in
  Alcotest.(check (option (float 0.0))) "median, skipping undefined" (Some 8.5) (Window.median per_call ws);
  Alcotest.(check (option (float 0.0))) "none defined" None (Window.median (fun _ -> None) ws)

(* A window's cost is its ns per call over the yardstick's ns per call:
   a host slowdown that stretches both leaves it unchanged. *)
let test_window_cost () =
  let w ns ref_ns = { Window.first = 0; last = 1; calls = 1000; ns; ref_calls = 4000; ref_ns } in
  Alcotest.(check (float 1e-12)) "yardstick ns per call" 2.5 (Window.ref_per_call (w 60_000 10_000));
  Alcotest.(check (float 1e-12)) "cost" 24.0 (Window.cost (w 60_000 10_000));
  Alcotest.(check (float 1e-12)) "a uniform slowdown cancels" (Window.cost (w 60_000 10_000))
    (Window.cost (w 90_000 15_000))

(* Samples cycle through the rounds; each round's figure is the median
   of its own samples, whichever windows they fell in. *)
let test_unit_medians () =
  let w first last = { Window.first; last; calls = 1; ns = 1; ref_calls = 1; ref_ns = 1 } in
  (* rounds 0, 1, 2 repeated: round 0 takes 10, 11, 90 (one burst) *)
  let v = [| 10.; 20.; 30.; 11.; 21.; 31.; 90.; 22. |] in
  let ws = [ w 0 5; w 5 8 ] in
  let got = Window.unit_medians ~units:3 (fun _ k -> v.(k)) ws in
  Alcotest.(check (array (float 0.0))) "median per round" [| 11.; 21.; 30.5 |] got;
  let scaled = Window.unit_medians ~units:3 (fun (x : Window.t) k -> if x.first = 0 then v.(k) else 2.0 *. v.(k)) ws in
  Alcotest.(check (array (float 0.0))) "value sees the window" [| 11.; 21.; 46. |] scaled;
  Alcotest.(check int) "rounds with no sample are left out" 3
    (Array.length (Window.unit_medians ~units:5 (fun _ k -> v.(k)) [ w 0 3 ]))

let () =
  Alcotest.run "pbcore"
    [
      ( "quantile",
        [
          Alcotest.test_case "rank rule" `Quick test_rank;
          Alcotest.test_case "tail gate" `Quick test_percentile_gate;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "growth" `Quick test_self_time_grows;
        ] );
      ("inputs", [ Alcotest.test_case "seeded" `Quick test_seeded_inputs ]);
      ( "window",
        [
          Alcotest.test_case "median" `Quick test_window_median;
          Alcotest.test_case "cost" `Quick test_window_cost;
          Alcotest.test_case "round medians" `Quick test_unit_medians;
        ] );
    ]
