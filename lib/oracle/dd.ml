(* Double-double arithmetic: an unevaluated sum [hi + lo] of two
   doubles with [|lo| <= ulp(hi)/2], carrying about 106 significand
   bits.  It is the working format of the oracle's fast first phase
   ({!Elementary.correctly_rounded}).

   Every operation is built from the error-free transformations TwoSum
   and TwoProd (the latter through [Float.fma]), following Joldes,
   Muller and Popescu, "Tight and rigorous error bounds for basic
   building blocks of double-word arithmetic" (ACM TOMS 2017).  With
   u = 2^-53 the relative error bounds used by the fast phase are
   (JMP algorithm number in brackets):

     add      3u^2          [6, AccurateDWPlusDW]
     add_float 2u^2         [4, DWPlusFP]
     mul      4u^2          [12, DWTimesDW3]
     mul_float 2u^2         [9, DWTimesFP3]
     div      15u^2 + 56u^3 [17, DWDivDW2, with DWTimesFP3 inside]

   all below 2^-101.  They hold as long as no intermediate underflows
   or overflows; the fast phase keeps its operands inside
   [2^-900, 2^1000] in magnitude to guarantee that.

   Records of floats are stored flat, so an operation allocates one
   small block and no boxed float. *)

type t = { hi : float; lo : float }

let zero = { hi = 0.0; lo = 0.0 }
let of_float x = { hi = x; lo = 0.0 }

(* TwoSum (Knuth): s + e = a + b exactly. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  { hi = s; lo = (a -. (s -. bb)) +. (b -. bb) }

(* TwoProd: p + e = a * b exactly (barring underflow). *)
let two_prod a b =
  let p = a *. b in
  { hi = p; lo = Float.fma a b (-.p) }

let neg x = { hi = -.x.hi; lo = -.x.lo }
let abs x = if x.hi < 0.0 then neg x else x

(* Multiplication by a power of two: exact. *)
let ldexp x k = { hi = Float.ldexp x.hi k; lo = Float.ldexp x.lo k }

let add x y =
  let s = x.hi +. y.hi in
  let bs = s -. x.hi in
  let se = (x.hi -. (s -. bs)) +. (y.hi -. bs) in
  let t = x.lo +. y.lo in
  let bt = t -. x.lo in
  let te = (x.lo -. (t -. bt)) +. (y.lo -. bt) in
  let c = se +. t in
  let v = s +. c in
  let w = te +. (c -. (v -. s)) in
  let hi = v +. w in
  { hi; lo = w -. (hi -. v) }

let sub x y = add x (neg y)

let add_float x b =
  let s = x.hi +. b in
  let bs = s -. x.hi in
  let se = (x.hi -. (s -. bs)) +. (b -. bs) in
  let v = x.lo +. se in
  let hi = s +. v in
  { hi; lo = v -. (hi -. s) }

let mul x y =
  let p = x.hi *. y.hi in
  let pe = Float.fma x.hi y.hi (-.p) in
  let t = Float.fma x.lo y.hi (Float.fma x.hi y.lo (x.lo *. y.lo)) in
  let e = pe +. t in
  let hi = p +. e in
  { hi; lo = e -. (hi -. p) }

let mul_float x b =
  let p = x.hi *. b in
  let e = Float.fma x.lo b (Float.fma x.hi b (-.p)) in
  let hi = p +. e in
  { hi; lo = e -. (hi -. p) }

let div x y =
  let th = x.hi /. y.hi in
  (* y * th as a double-double, then the residual x - y th. *)
  let r = mul_float y th in
  let ph = x.hi -. r.hi in
  let dl = x.lo -. r.lo in
  let tl = (ph +. dl) /. y.hi in
  let hi = th +. tl in
  { hi; lo = tl -. (hi -. th) }

(* Horner evaluation of sum_k c.(k) * x^k, highest degree last. *)
let horner (c : t array) x =
  let acc = ref c.(Array.length c - 1) in
  for k = Array.length c - 2 downto 0 do
    acc := add (mul !acc x) c.(k)
  done;
  !acc
