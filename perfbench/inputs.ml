(* Workload definitions: which functions each workload runs, on which
   target and rounding mode, and the seeded input arrays.  The library
   sees only the arrays; nothing here asks it which inputs are "fast". *)

open Pbcore
module R = Fp.Representation
module M = Fp.Rounding_mode

type fn = {
  label : string;  (* e.g. "float32/rne/log2" *)
  name : string;
  target : Funcs.Specs.target;
  fmt : (module R.S);
  mode : M.t;
}

let fn (t : Funcs.Specs.target) name =
  let module T = (val t.repr) in
  { label = Printf.sprintf "%s/%s/%s" T.name (M.to_string t.mode) name; name; target = t;
    fmt = t.repr; mode = t.mode }

let f32 = Funcs.Specs.float32

(* Calls per batch and batches per function: a serving pool holds
   [pool_batches * batch] distinct inputs per function.  A round (one
   batch per function) stays short, ~15 us, so few rounds take a timer
   tick; and there are enough distinct rounds for a p99 over them with
   10 beyond it. *)
let batch = 64
let pool_batches = 1024
let pool = batch * pool_batches

(* serve-f32: float32 magnitudes, as pattern ranges [lo, hi), that lie
   inside each function's fast path with room to spare: positive finite
   inputs for log2, |x| in [2^-26, 88) for exp, [2^-11, 89) for cosh
   and [2^-23, 2^22) for sinpi.  Patterns are drawn uniformly from the
   range (so magnitudes are log-uniform). *)
let f32_domains =
  [ ("log2", 0x0000_0001, 0x7f80_0000, false);
    ("exp", 0x3280_0000, 0x42b0_0000, true);
    ("cosh", 0x3a00_0000, 0x42b2_0000, true);
    ("sinpi", 0x3400_0000, 0x4a80_0000, true) ]

(* Edge-case pool of a format: NaN, the infinities, both zeros, both
   largest finite values, both smallest subnormals, +-1 and +-sqrt(max). *)
let edge_pool (module T : R.S) =
  let sb = 1 lsl (T.bits - 1) in
  let maxf = T.of_double ~mode:M.Zero Float.max_float in
  let huge = T.of_double (Float.sqrt (T.to_double maxf)) in
  let one = T.of_double 1.0 in
  [| T.of_double Float.nan; T.of_double Float.infinity; T.of_double Float.neg_infinity; 0; sb;
     maxf; maxf lor sb; 1; sb lor 1; one; one lor sb; huge; huge lor sb |]

type serve = { fns : fn array; pools : int array array  (* per fn, [pool] inputs *) }

let serve_fns = Array.of_list (List.map (fun (n, _, _, _) -> fn f32 n) f32_domains)

(* Deal a pool into batches so that every batch is a stratified sample
   of it: sort by magnitude, give batch b every [pool_batches]-th input
   starting at b, then shuffle each batch.  Rounds then differ by timing,
   not by which inputs a batch happened to draw (a call's cost depends
   on its argument's magnitude). *)
let stratify st ~sign (drawn : int array) =
  let sorted = Array.copy drawn in
  Array.sort (fun a b -> compare (a land (sign - 1)) (b land (sign - 1))) sorted;
  let out = Array.make (Array.length drawn) 0 in
  for b = 0 to pool_batches - 1 do
    for k = 0 to batch - 1 do
      out.((b * batch) + k) <- sorted.((k * pool_batches) + b)
    done;
    for k = batch - 1 downto 1 do
      let j = Splitmix.below st (k + 1) in
      let i = (b * batch) + k and j = (b * batch) + j in
      let t = out.(i) in
      out.(i) <- out.(j);
      out.(j) <- t
    done
  done;
  out

(** [serve_pools ~seed] draws each serve-f32 function's input pool from
    one splitmix stream, functions in order, and deals it into batches
    ({!stratify}). *)
let serve_pools ~seed =
  let st = Splitmix.make seed in
  let pool_of (f : fn) =
    let _, lo, hi, signed = List.find (fun (n, _, _, _) -> n = f.name) f32_domains in
    let sign = if signed then 0x8000_0000 else 0 in
    let drawn = Splitmix.fill pool (fun _ -> Splitmix.pattern_in st ~lo ~hi ~sign) in
    stratify st ~sign:0x8000_0000 drawn
  in
  { fns = serve_fns; pools = Array.map pool_of serve_fns }

(* build-f32: the odd-stride float32 sweep — 65,536 patterns whose
   mantissas all differ, the same for every seed. *)
let build_fns = Array.map (fn f32) [| "log2"; "exp"; "cosh"; "sinpi"; "sin" |]
let sweep_stride = 65537
let sweep_n = 65536
let sweep_inputs () = Array.init sweep_n (fun i -> i * sweep_stride)
