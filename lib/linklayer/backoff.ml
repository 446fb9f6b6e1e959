open Sim_engine

type policy =
  | Uniform of Simtime.span
  | Binary_exponential of { base : Simtime.span; cap : Simtime.span }

let window policy ~attempt =
  if attempt < 1 then invalid_arg "Backoff: attempt must be >= 1";
  match policy with
  | Uniform max_delay -> max_delay
  | Binary_exponential { base; cap } ->
    let scaled =
      (* Saturating doubling; attempts are small (<= RTmax = 13). *)
      Simtime.span_scale base (Float.of_int (1 lsl Int.min 20 (attempt - 1)))
    in
    Simtime.span_min scaled cap

let draw policy rng ~attempt =
  let w = Simtime.span_to_ns (window policy ~attempt) in
  if w = 0 then Simtime.span_zero else Simtime.span_ns (Rng.int rng (w + 1))

let mean policy ~attempt =
  Simtime.span_scale (window policy ~attempt) 0.5
