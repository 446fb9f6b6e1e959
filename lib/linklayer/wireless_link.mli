(** One direction of the wireless hop.

    Serialises link frames at the raw air rate with a per-frame byte
    overhead factor (framing, FEC, synchronisation — paper §3.1: a
    W-byte network packet occupies 1.5 W bytes on the air, making the
    19.2 kbps raw CDPD-like link an effective 12.8 kbps).  Each frame
    is then lost or delivered according to the channel state during
    its airtime and the per-state bit-error rates. *)

type config = {
  bandwidth : Netsim.Units.bandwidth;  (** raw air rate *)
  delay : Sim_engine.Simtime.span;  (** propagation delay *)
  overhead_factor : float;  (** air bytes per network byte, ≥ 1 *)
  ber : Error_model.Loss.ber;  (** per-state bit-error rates *)
  decision : Error_model.Loss.decision;  (** loss-decision mode *)
}

type stats = {
  frames_sent : int;  (** frames fully serialised *)
  air_bytes : int;  (** bytes serialised incl. overhead *)
  frames_lost : int;  (** frames destroyed by bit errors *)
  frames_delivered : int;  (** frames handed to the receiver *)
  drops : int;  (** queue-overflow drops *)
  frames_blackholed : int;  (** frames swallowed by a blackout window *)
}

type monitor_event =
  | Enqueued of Frame.t  (** waiting behind the transmitter *)
  | Tx_start of Frame.t  (** serialisation begins *)
  | Delivered of Frame.t  (** survived the channel, handed over *)
  | Lost of Frame.t  (** destroyed by bit errors *)
  | Dropped of Frame.t  (** rejected by the full queue *)
      (** What a link monitor observes (NS-style trace events). *)

type t
(** One wireless link direction. *)

val create :
  Sim_engine.Simulator.t ->
  name:string ->
  config:config ->
  channel_for:(Frame.t -> Error_model.Channel.t) ->
  queue_capacity:int ->
  t
(** A link whose per-frame channel is chosen by [channel_for]
    (constant for a single mobile host; per-destination for the
    shared-radio scheduling experiments). *)

val set_receiver : t -> (Frame.t -> unit) -> unit
(** Install the receiving side.  Must be called before {!send}. *)

val set_monitor : t -> (monitor_event -> unit) -> unit
(** Install an observer for queue/transmit/deliver/loss/drop events
    (used by the NS-style trace writer). *)

val set_on_frame_sent : t -> (Frame.t -> unit) -> unit
(** Observation hook invoked when a frame finishes serialising
    (whether or not it then survives the channel).  The ARQ uses it to
    start acknowledgement timers at transmission end. *)

val send : t -> Frame.t -> unit
(** Queue a frame for transmission. *)

val air_time : t -> Frame.t -> Sim_engine.Simtime.span
(** Time the frame occupies the air (serialisation only). *)

val busy : t -> bool
(** [true] while a frame is being serialised. *)

val queue_length : t -> int
val stats : t -> stats
val config : t -> config
val name : t -> string

(** {2 Fault injection} *)

val set_blackout : t -> bool -> unit
(** Enter or leave a disconnection window.  While in blackout, frames
    still serialise (so sender-side timers behave normally) but are
    then silently swallowed — the channel is never consulted, so its
    random stream is unperturbed — and counted in [frames_blackholed].
    Distinct from bad-state corruption: this models the link being
    {e gone} (deep fade, handoff gap), not noisy. *)

val set_queue_capacity : t -> int -> unit
(** Change the drop-tail queue capacity in place (see
    {!Queue_drop_tail.set_capacity}).  Used by fault injection to
    force bursty overflow, then restore the configured capacity. *)

val queue_capacity : t -> int

(** {2 Observability} *)

val set_trace : t -> Obs.Trace.t -> unit
(** Attach a structured trace; the link then emits [link:<name>]
    events (tx_start / delivered / lost / blackholed / dropped), from
    templates rendered here when the trace is live.  Independent of
    {!set_monitor}, which feeds the NS-style trace writer. *)

val check_invariants : t -> unit
(** Verify frame conservation: every frame accepted by {!send} is
    accounted for — queued, being serialised, propagating, dropped,
    lost, or delivered.
    @raise Obs.Invariant.Violation when frames leak. *)
