(** Lazily materialised alternating state timeline.

    Shared mechanism for the Markov and deterministic channels: a
    sequence of Good/Bad periods whose durations come from a
    caller-supplied generator.  Periods are materialised on demand and
    cached, so queries may arrive in any time order and always see the
    same realisation. *)

type t
(** A timeline. *)

val create :
  ?start_state:Channel_state.t ->
  duration_of:(Channel_state.t -> Sim_engine.Simtime.span) ->
  unit ->
  t
(** [create ~duration_of ()] starts in [start_state] (default [Good])
    at time zero; each period's length is drawn by [duration_of state]
    when first needed.  Durations must be positive.  A period that
    would end past the clock's last instant ends there and is the
    last one. *)

val segments :
  t ->
  start:Sim_engine.Simtime.t ->
  stop:Sim_engine.Simtime.t ->
  (Channel_state.t * Sim_engine.Simtime.span) list
(** States covering [[start, stop)] in order; durations sum to
    [stop - start].  Adjacent periods in the same state are not
    merged. *)

val index_at : t -> Sim_engine.Simtime.t -> int
(** Index of the materialised period containing the given time.
    @raise Invalid_argument if no period has been materialised yet, or
    if the time lies at or beyond the end of the last materialised
    period — extend the timeline first (e.g. via {!segments} or
    {!weigh} with a covering range). *)

type weights = { mutable good : float; mutable bad : float; mutable sum : float }
(** Per-state rates in, weighted sum out.  An all-float record is
    stored flat, so its fields are read and written without boxing. *)

val weigh :
  t -> weights -> start:Sim_engine.Simtime.t -> stop:Sim_engine.Simtime.t -> unit
(** [weigh t w ~start ~stop] sets [w.sum] to
    [w.good *. (seconds spent Good) +. w.bad *. (seconds spent Bad)]
    over [[start, stop)], segment by segment, materialising periods as
    needed; [0.] if [stop <= start].  Bit-identical to folding
    {!segments} with the same rates, and allocation-free once the
    periods exist.  The per-frame loss probability uses it as
    [rate * seconds = expected bit errors], with the rates set to
    [BER * bits_per_sec]. *)

val periods_materialised : t -> int
(** How many periods have been generated so far (for tests). *)
