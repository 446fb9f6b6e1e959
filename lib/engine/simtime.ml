type t = int
type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Simtime.of_ns: negative";
  n

let to_ns t = t
let to_sec t = float_of_int t *. 1e-9

let span_ns n =
  if n < 0 then invalid_arg "Simtime.span_ns: negative";
  n

let span_us n = span_ns (n * 1_000)
let span_ms n = span_ns (n * 1_000_000)

let span_sec s =
  if not (Float.is_finite s) || s < 0.0 then
    invalid_arg "Simtime.span_sec: negative or not finite";
  int_of_float (Float.round (s *. 1e9))

let span_to_ns d = d
let span_to_sec d = float_of_int d *. 1e-9
let span_zero = 0
let max_span = max_int

let add t d = t + d

let diff a b =
  if a < b then invalid_arg "Simtime.diff: negative result";
  a - b

let span_add a b = a + b

let span_sub a b =
  if b > a then invalid_arg "Simtime.span_sub: negative result";
  a - b

let span_scale d k =
  if not (Float.is_finite k) || k < 0.0 then
    invalid_arg "Simtime.span_scale: negative or not finite factor";
  int_of_float (Float.round (float_of_int d *. k))

let span_compare = Int.compare

(* Written out instead of [Stdlib.min]/[Stdlib.max]: those are
   ordinary polymorphic functions, so (without flambda) every call
   would go through generic structural comparison — measurably hot,
   as [min] runs per segment on the frame-loss path. *)
let span_min (a : span) (b : span) = if a < b then a else b
let compare = Int.compare

let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b

let min (a : t) (b : t) = if a < b then a else b
let max (a : t) (b : t) = if a < b then b else a

let pp ppf t = Format.fprintf ppf "%.3fs" (to_sec t)
let pp_span ppf d = Format.fprintf ppf "%.3fs" (span_to_sec d)
