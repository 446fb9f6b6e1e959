(** Windowed link-level ARQ — the paper's "local recovery".

    The sending side of the base station's link-level protocol
    (§4.2.1, after [9] and CDPD [12]): frames are transmitted
    back-to-back up to a window of unacknowledged frames; each frame's
    link acknowledgement is awaited on its own timer (started when the
    frame leaves the transmitter).  On timeout the frame is
    retransmitted after a random backoff — "aggressive retransmission
    with packet discards" — up to [rt_max] successive retransmissions,
    then discarded (CDPD uses RTmax = 13).

    Every expired acknowledgement timer is an {e unsuccessful
    transmission attempt}; the [on_attempt_failure] hook fires then,
    which is exactly when the paper's base station emits an EBSN to
    the TCP source.

    Frame sequence numbers are dense per ARQ sender, so the matching
    {!Arq_receiver} can resequence out-of-order retransmissions before
    delivering upward. *)

type config = {
  rt_max : int;
      (** retransmissions allowed per frame (13 in CDPD); the frame is
          discarded when the [rt_max+1]-th transmission also times
          out *)
  window : int;
      (** maximum unacknowledged frames; 1 gives strict
          stop-and-wait *)
  ack_timeout_margin : Sim_engine.Simtime.span;
      (** slack added to the deterministic round-trip component of the
          acknowledgement timeout, covering queueing on both link
          directions *)
  backoff : Backoff.policy;  (** delay before each retransmission *)
  scheduler : Sched.policy;  (** ordering of waiting frames *)
  queue_capacity : int;  (** bound on waiting frames (per connection
          under round-robin) *)
  defer_on_backoff : bool;
      (** when [true], a frame waiting out its backoff releases its
          window slot so other frames can use the transmitter — the
          channel-state-dependent deferral of [9]; when [false] the
          slot stays held (with [window = 1] this is the head-of-line
          blocking FIFO sender the CSDP paper criticises) *)
}

val default_config : config
(** RTmax 13, window 8, 100 ms margin, uniform 400 ms backoff, FIFO,
    capacity 512, no deferral — suitable for the paper's wide-area
    setup. *)

type stats = {
  transmissions : int;  (** frames handed to the link, incl. retries *)
  retransmissions : int;
  completions : int;  (** frames acknowledged *)
  discards : int;  (** frames dropped after exhausting retries *)
  attempt_failures : int;  (** acknowledgement timeouts *)
  spurious_acks : int;  (** acks for frames no longer in flight *)
  sched_drops : int;  (** frames rejected by the waiting queue *)
  crashes : int;  (** times {!crash} wiped the sender *)
  crash_dropped : int;  (** frames lost across all crashes *)
}

type t
(** An ARQ sender bound to one wireless link direction. *)

val create :
  Sim_engine.Simulator.t ->
  rng:Sim_engine.Rng.t ->
  config:config ->
  link:Wireless_link.t ->
  t
(** An ARQ sender transmitting over [link].  Installs itself as the
    link's frame-sent observer.  Give it a dedicated RNG stream. *)

val send : t -> conn:int -> Frame.payload -> bool
(** Queue a payload for reliable transmission; [false] if the waiting
    queue rejected it. *)

val handle_link_ack : t -> acked_seq:int -> unit
(** Feed a link acknowledgement received from the peer.  An ack that
    arrives while the frame is still being serialised (possible with
    zero-delay links, or when an ack for a superseded attempt races a
    retransmission) is deferred: the completion is applied when the
    link reports the frame sent, keeping the window accounting in sync.
    Duplicate acks for the same in-flight frame count as spurious. *)

val set_on_attempt_failure : t -> (Frame.t -> attempt:int -> unit) -> unit
(** Called when transmission attempt number [attempt] (1-based) of a
    frame is deemed failed.  The EBSN hook. *)

val set_on_discard : t -> (Frame.t -> unit) -> unit
(** Called when a frame is dropped after its last allowed attempt. *)

val crash : t -> int
(** Base-station crash/reboot: drop all transmission state and return
    to a clean, usable sender.  In-flight attempts are abandoned and
    their timers cancelled, waiting and backoff-deferred frames are
    discarded, and every window slot is reclaimed, so the window
    invariants hold immediately after.  Sequence numbering continues
    (a reboot must not alias live frame numbers at the peer's
    resequencer); late link acks for pre-crash frames count as
    spurious.  Returns the number of frames lost with the state. *)

val idle : t -> bool
(** [true] when nothing is in flight and no frame is waiting. *)

val in_flight : t -> int
(** Frames sent but neither acknowledged nor discarded. *)

val backlog : t -> int
(** Frames waiting for their first transmission. *)

val stats : t -> stats

val timer_counters : t -> Sim_engine.Soft_timer.counters
(** Operation counters aggregated over every entry timer this sender
    ever created (ack waits and retry backoffs): arms, fused restarts,
    lazy cancels, fires, stale fires, deadline chases. *)

(** {2 Observability} *)

val set_obs : t -> trace:Obs.Trace.t -> metrics:Obs.Registry.t -> unit
(** Attach a structured trace and a metrics registry.  The sender then
    emits [arq:<link>] trace events (tx / attempt_failure / discard /
    complete / crash), from templates rendered here when [trace] is
    live, and feeds the [arq.attempts] histogram with the number of
    transmissions each completed frame needed. *)

val check_invariants : t -> unit
(** Verify window accounting: [0 <= slots_held <= window] and
    [slots_held] equal to the number of in-flight entries.
    @raise Obs.Invariant.Violation on the first failing check. *)
