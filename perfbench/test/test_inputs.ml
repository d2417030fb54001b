(* The workloads' input arrays are a function of the seed alone. *)

open Pbench

let pools seed = (Inputs.serve_pools ~seed).pools

let test_same_seed () =
  Alcotest.(check bool) "same seed, same inputs" true (pools 42 = pools 42);
  Alcotest.(check bool) "other seed, other inputs" false (pools 42 = pools 43);
  Array.iter
    (fun p -> Alcotest.(check int) "pool size" Inputs.pool (Array.length p))
    (pools 42)

let test_f32_domains () =
  let sv = Inputs.serve_pools ~seed:3 in
  Array.iteri
    (fun i (f : Inputs.fn) ->
      let _, lo, hi, _ = List.find (fun (n, _, _, _) -> n = f.name) Inputs.f32_domains in
      Array.iter
        (fun p ->
          let m = p land 0x7fff_ffff in
          if m < lo || m >= hi then Alcotest.failf "%s: %#x outside [%#x, %#x)" f.name p lo hi)
        sv.pools.(i))
    sv.fns

let test_stratify () =
  let st = Pbcore.Splitmix.make 1 in
  let sign = 0x4000_0000 in
  let drawn = Array.init Inputs.pool (fun i -> (Inputs.pool - 1 - i) lor (if i land 1 = 0 then sign else 0)) in
  let dealt = Inputs.stratify st ~sign drawn in
  Alcotest.(check (list int)) "a permutation" (List.sort compare (Array.to_list drawn))
    (List.sort compare (Array.to_list dealt));
  (* batch b holds magnitudes b, b + pool_batches, b + 2 * pool_batches, ... *)
  for b = 0 to Inputs.pool_batches - 1 do
    let mags = Array.sub dealt (b * Inputs.batch) Inputs.batch |> Array.map (fun p -> p land (sign - 1)) in
    Array.sort compare mags;
    Array.iteri (fun k m -> if m <> b + (k * Inputs.pool_batches) then Alcotest.failf "batch %d slot %d: %d" b k m) mags
  done

let test_sweep () =
  let a = Inputs.sweep_inputs () in
  Alcotest.(check int) "count" 65536 (Array.length a);
  Alcotest.(check int) "last" (65535 * 65537) a.(65535);
  Alcotest.(check bool) "within float32" true (a.(65535) < 1 lsl 32)

let () =
  Alcotest.run "pbench-inputs"
    [
      ( "inputs",
        [
          Alcotest.test_case "serve-f32 seeded" `Quick test_same_seed;
          Alcotest.test_case "serve-f32 domains" `Quick test_f32_domains;
          Alcotest.test_case "stratified batches" `Quick test_stratify;
          Alcotest.test_case "build sweep" `Quick test_sweep;
        ] );
    ]
