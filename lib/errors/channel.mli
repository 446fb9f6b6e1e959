(** Channel state processes.

    A channel is a piecewise-constant function from simulated time to
    {!Channel_state.t}.  Implementations materialise their state
    timeline lazily; queries may arrive in any time order (the two
    directions of a wireless link interleave), so the timeline is
    cached once generated. *)

type t
(** A channel state process. *)

val make :
  description:string ->
  segments:
    (start:Sim_engine.Simtime.t ->
    stop:Sim_engine.Simtime.t ->
    (Channel_state.t * Sim_engine.Simtime.span) list) ->
  unit ->
  t
(** Build a channel from a segment query.  [segments ~start ~stop]
    must return the channel states covering [[start, stop)] in order,
    with durations summing to [stop - start].  {!weigh} folds the
    segment list. *)

val of_timeline : description:string -> State_timeline.t -> t
(** A channel backed by a materialised timeline: {!segments} and
    {!weigh} query it directly, and {!weigh} walks it without
    allocating (see {!State_timeline.weigh}). *)

val description : t -> string
(** Human-readable description (for reports). *)

val segments :
  t ->
  start:Sim_engine.Simtime.t ->
  stop:Sim_engine.Simtime.t ->
  (Channel_state.t * Sim_engine.Simtime.span) list
(** States covering [[start, stop)], in order, durations summing to
    [stop - start].  Returns [[]] if [stop <= start]. *)

type weights = State_timeline.weights = {
  mutable good : float;
  mutable bad : float;
  mutable sum : float;
}
(** Per-state rates in, weighted sum out.  All-float, so stored flat:
    its fields are read and written without boxing. *)

val weights : t -> weights
(** The channel's own accumulator.  Set its [good] and [bad] rates,
    call {!weigh}, then read [sum]. *)

val weigh :
  t -> start:Sim_engine.Simtime.t -> stop:Sim_engine.Simtime.t -> unit
(** Set [(weights t).sum] to the per-state rates weighted by the
    seconds spent in each state over [[start, stop)]:
    [good *. sec(Good) +. bad *. sec(Bad)], summed segment by segment;
    [0.] if [stop <= start].  This is the frame-loss hot path: no float
    crosses a module boundary, and timeline-backed channels serve it
    without allocating. *)

val state_at : t -> Sim_engine.Simtime.t -> Channel_state.t
(** The state at a single instant. *)

val time_in_state :
  t ->
  start:Sim_engine.Simtime.t ->
  stop:Sim_engine.Simtime.t ->
  Channel_state.t ->
  Sim_engine.Simtime.span
(** Total time spent in the given state during [[start, stop)]. *)
