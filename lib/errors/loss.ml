open Sim_engine

type ber = { good : float; bad : float }

let paper_ber = { good = 1e-6; bad = 1e-2 }
let no_errors = { good = 0.0; bad = 0.0 }

type decision = Stochastic of Rng.t | Threshold

let rate_of ber = function
  | Channel_state.Good -> ber.good
  | Channel_state.Bad -> ber.bad

let expected_errors ber ~bits_per_sec ~segments =
  List.fold_left
    (fun acc (state, span) ->
      acc +. (rate_of ber state *. bits_per_sec *. Simtime.span_to_sec span))
    0.0 segments

let loss_probability ~expected = 1.0 -. exp (-.expected)

let decide decision expected =
  match decision with
  | Threshold -> expected >= 1.0
  | Stochastic rng ->
    let p = loss_probability ~expected in
    p > 0.0 && Rng.uniform rng < p

let frame_lost decision ber ~bits_per_sec ~segments =
  decide decision (expected_errors ber ~bits_per_sec ~segments)

(* Channel-direct variant: the same sum as the segment-list version —
   [rate *. bits_per_sec] is hoisted, and float multiplication
   associates identically — but without materialising the list.  The
   decision (including whether the RNG is consulted at all) is
   byte-for-byte the same, which the batched-vs-per-frame equivalence
   test in test/ pins down.  It runs once per frame, so no float
   crosses a module boundary: the rates go into the channel's flat
   accumulator, the sum comes back in it, and the uniform draw arrives
   as 53 integer bits that are scaled here exactly as [Rng.uniform]
   scales them. *)
let frame_lost_in decision ber ~bits_per_sec ~channel ~start ~stop =
  let w = Channel.weights channel in
  w.good <- ber.good *. bits_per_sec;
  w.bad <- ber.bad *. bits_per_sec;
  Channel.weigh channel ~start ~stop;
  match decision with
  | Threshold -> w.sum >= 1.0
  | Stochastic rng ->
    let p = 1.0 -. exp (-.w.sum) in
    p > 0.0 && float_of_int (Rng.uniform_bits rng) *. 0x1p-53 < p
