(* splitmix64: passes BigCrush, one multiply-xor-shift chain per draw.

   The 64-bit state and arithmetic are carried in two 32-bit halves
   held in native ints.  OCaml's [Int64] is boxed (and this project
   builds without flambda), so the obvious [Int64] formulation
   allocates ~9 boxes per draw; the halved form allocates nothing
   inside the generator.  The int draws ([int], [bool],
   [uniform_bits]) reach their callers unboxed.  [uniform], [float]
   and [exponential] return a float, which is boxed when it crosses
   into another module (the dev profile compiles with [-opaque], so
   nothing is inlined across modules); a per-frame caller therefore
   draws [uniform_bits] and scales it itself.  The output is
   bit-for-bit identical to the [Int64] formulation — the regression
   test in test/ replays both against each other — which is
   load-bearing: every figure in the repo is pinned by MD5 to the
   exact random streams. *)

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 and the two mix multipliers
   0xBF58476D1CE4E5B9 / 0x94D049BB133111EB, split into halves. *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15
let m1_hi = 0xBF58476D
let m1_lo = 0x1CE4E5B9
let m2_hi = 0x94D049BB
let m2_lo = 0x133111EB

type t = {
  mutable hi : int;  (* state bits 32..63 *)
  mutable lo : int;  (* state bits 0..31 *)
  (* Scratch for the last drawn 64 bits: OCaml cannot return an
     unboxed pair, so draw results land here (plain int fields — no
     write barrier, no allocation). *)
  mutable out_hi : int;
  mutable out_lo : int;
}

let create ~seed =
  {
    hi = (seed asr 32) land mask32;
    lo = seed land mask32;
    out_hi = 0;
    out_lo = 0;
  }

let copy t = { hi = t.hi; lo = t.lo; out_hi = 0; out_lo = 0 }

(* t.out <- low 64 bits of (zh:zl) * (mh:ml), all halves in [0, 2^32).
   The 32x32 low product goes through 16-bit limbs (a 32x32 product
   can reach 2^64 and native ints hold 63 bits); the cross terms only
   need their low 32 bits, which native wrap-around multiplication
   preserves exactly. *)
let mul64 t zh zl mh ml =
  let xl = zl land mask16 and xh = zl lsr 16 in
  let yl = ml land mask16 and yh = ml lsr 16 in
  let ll = xl * yl in
  let mid = (xh * yl) + (xl * yh) + (ll lsr 16) in
  t.out_lo <- ((mid land mask16) lsl 16) lor (ll land mask16);
  t.out_hi <-
    ((xh * yh) + (mid lsr 16) + ((zl * mh) land mask32)
    + ((zh * ml) land mask32))
    land mask32

(* t.out <- mix (zh:zl): the splitmix64 finaliser
   (xor-shift 30, *m1, xor-shift 27, *m2, xor-shift 31). *)
let mix_into t zh zl =
  let zl = zl lxor ((zl lsr 30) lor ((zh lsl 2) land mask32)) in
  let zh = zh lxor (zh lsr 30) in
  mul64 t zh zl m1_hi m1_lo;
  let zh = t.out_hi and zl = t.out_lo in
  let zl = zl lxor ((zl lsr 27) lor ((zh lsl 5) land mask32)) in
  let zh = zh lxor (zh lsr 27) in
  mul64 t zh zl m2_hi m2_lo;
  let zh = t.out_hi and zl = t.out_lo in
  t.out_lo <- zl lxor ((zl lsr 31) lor ((zh lsl 1) land mask32));
  t.out_hi <- zh lxor (zh lsr 31)

(* Advance the state by the gamma and mix the next 64 bits into
   t.out. *)
let next t =
  let s = t.lo + gamma_lo in
  let lo = s land mask32 in
  let hi = (t.hi + gamma_hi + (s lsr 32)) land mask32 in
  t.lo <- lo;
  t.hi <- hi;
  mix_into t hi lo

let bits64 t =
  next t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.out_hi) 32)
    (Int64.of_int t.out_lo)

let split t =
  next t;
  let u = { hi = 0; lo = 0; out_hi = 0; out_lo = 0 } in
  mix_into u t.out_hi t.out_lo;
  u.hi <- u.out_hi;
  u.lo <- u.out_lo;
  u.out_hi <- 0;
  u.out_lo <- 0;
  u

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-30 for any
     bound used in this simulator.  Keep 62 bits so the value fits
     OCaml's 63-bit int as a non-negative number. *)
  next t;
  let v = (t.out_hi lsl 30) lor (t.out_lo lsr 2) in
  v mod n

let uniform_bits t =
  next t;
  (t.out_hi lsl 21) lor (t.out_lo lsr 11)

(* 53 random bits into the mantissa: uniform on [0, 1). *)
let uniform t = float_of_int (uniform_bits t) *. 0x1p-53

let float t x =
  if not (Float.is_finite x) || x <= 0.0 then
    invalid_arg "Rng.float: bound must be positive and finite";
  uniform t *. x

let bool t =
  next t;
  t.out_lo land 1 = 1

let exponential t ~mean =
  if not (Float.is_finite mean) || mean <= 0.0 then
    invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. uniform t in
  -.mean *. log u

let poisson t ~mean =
  if not (Float.is_finite mean) || mean < 0.0 then
    invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 500.0 then begin
    (* Normal approximation; exact sampling is never needed at this
       scale and Knuth's product would underflow. *)
    let u1 = 1.0 -. uniform t and u2 = uniform t in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    Stdlib.max 0 (int_of_float (Float.round (mean +. (z *. sqrt mean))))
  end
  else begin
    let limit = exp (-.mean) in
    let rec loop k prod =
      let prod = prod *. uniform t in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.0
  end

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p outside (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. uniform t in
    int_of_float (Float.of_int 0 +. floor (log u /. log (1.0 -. p)))
