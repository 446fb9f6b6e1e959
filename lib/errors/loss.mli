(** Frame-loss decisions.

    Bit errors are a Poisson process whose rate depends on the channel
    state (BER per bit).  A frame occupying the air for an interval is
    lost iff it suffers at least one bit error.  The expected error
    count for a frame is [Σ_segments BER(state) · bits(segment)], and
    the exact Poisson no-error probability is [exp (-expected)].

    The [Threshold] decision mode reproduces the paper's deterministic
    example (§4.2.1): "bit-errors … are assumed to be constant and do
    not follow a random distribution" — a frame is lost iff its
    expected error count reaches 1. *)

type ber = { good : float; bad : float }
(** Bit-error rates per state.  The paper's values: good [1e-6], bad
    [1e-2]. *)

val paper_ber : ber
(** [{ good = 1e-6; bad = 1e-2 }]. *)

val no_errors : ber
(** Zero in both states (error-free link). *)

type decision =
  | Stochastic of Sim_engine.Rng.t
      (** Lose with the exact Poisson probability, drawing from the
          given stream. *)
  | Threshold  (** Lose iff the expected error count is ≥ 1. *)

val expected_errors :
  ber ->
  bits_per_sec:float ->
  segments:(Channel_state.t * Sim_engine.Simtime.span) list ->
  float
(** Expected bit errors for a transmission whose airtime decomposes
    into the given channel-state segments at the given raw bit
    rate. *)

val loss_probability : expected:float -> float
(** [1 - exp (-expected)]. *)

val frame_lost :
  decision ->
  ber ->
  bits_per_sec:float ->
  segments:(Channel_state.t * Sim_engine.Simtime.span) list ->
  bool
(** Decide whether a frame with the given airtime decomposition is
    lost. *)

val frame_lost_in :
  decision ->
  ber ->
  bits_per_sec:float ->
  channel:Channel.t ->
  start:Sim_engine.Simtime.t ->
  stop:Sim_engine.Simtime.t ->
  bool
(** {!frame_lost} against the channel directly, over the frame's
    airtime [[start, stop)]: identical decisions and identical RNG
    stream consumption to calling {!frame_lost} on
    [Channel.segments channel ~start ~stop].  This is the frame hot
    path: the expected error count goes through {!Channel.weigh}, and
    on a timeline-backed channel whose periods already cover the
    airtime the call allocates nothing. *)
