(** TCP bulk-transfer sender with pluggable congestion control.

    Implements the transport machinery the paper runs at the fixed
    host (§3.3): sequencing, send-window clocking, Jacobson RTO
    estimation with Karn's rule at a coarse clock granularity,
    exponential timeout backoff, and go-back-N retransmission from the
    last cumulative acknowledgement after a timeout.  The
    congestion-control state machine — slow start, congestion
    avoidance, fast retransmit and each variant's recovery behaviour —
    is a {!Cc.policy} selected by [Tcp_config.cc]:

    - [Tahoe] (the paper's TCP): loss collapses the window to one
      segment; byte-identical to the historical [Tahoe_sender].
    - [Reno]: fast recovery (RFC 2581 window inflation/deflation).
    - [Newreno]: Reno plus RFC 3782 partial-ack retransmission.
    - [Sack]: scoreboard-driven hole retransmission (RFC 2018).
    - [Vegas]: delay-based baseRTT/minRTT band control with
      NewReno-style loss recovery.

    The EBSN extension (§4.2.3 and the paper's appendix) is the
    {!handle_ebsn} entry point: on receipt, the pending retransmission
    timer is replaced by a fresh one with an {e identical} timeout
    value, leaving RTT estimates and backoff untouched.
    {!handle_quench} implements the classic ICMP source-quench
    response (collapse the congestion window, ssthresh unchanged) used
    by the paper's §4.2.2 negative result. *)

type t
(** A sender for one bulk-transfer connection. *)

val create :
  Sim_engine.Simulator.t ->
  config:Tcp_config.t ->
  conn:int ->
  src:Netsim.Address.t ->
  dst:Netsim.Address.t ->
  total_bytes:int ->
  alloc_id:(unit -> int) ->
  transmit:(Netsim.Packet.t -> unit) ->
  t
(** A sender that will move [total_bytes] of payload to [dst],
    emitting packets through [transmit] and drawing packet identifiers
    from [alloc_id].  Call {!start} to begin.
    @raise Invalid_argument if [total_bytes <= 0] or the configuration
    is invalid. *)

val start : t -> unit
(** Begin transmitting (slow start from one segment). *)

val restrict_available : t -> int -> unit
(** Limit the sender to the first [n] payload bytes, as if the
    application had produced only that much so far.  Call before
    {!start}; extend later with {!set_available}. *)

val set_available : t -> int -> unit
(** Extend the application-supplied data to [n] bytes (monotonic) and
    transmit anything the window now allows.  Used by the
    split-connection relay, whose wireless-side sender may only send
    bytes already received from the fixed host. *)

val handle_ack_sack : t -> ack:int -> sack:(int * int) list -> unit
(** Process a cumulative acknowledgement ([ack] = next byte the
    receiver expects).  [sack] carries the receiver's
    selective-acknowledgement blocks; only a scoreboard-using policy
    ([Sack]) reads them.  The blocks are a plain argument, not an
    optional one: passing [~sack] to an optional argument boxes an
    option per ack. *)

val handle_ack : t -> ack:int -> unit
(** [handle_ack_sack] for an acknowledgement without SACK blocks. *)

val handle_ebsn : t -> unit
(** Process an Explicit Bad State Notification: re-arm the pending
    retransmission timer with the same timeout value. *)

val handle_quench : t -> unit
(** Process an ICMP source quench: collapse the congestion window to
    one segment. *)

val completed : t -> bool
(** [true] once every payload byte has been cumulatively
    acknowledged. *)

val set_on_complete : t -> (unit -> unit) -> unit
(** Callback invoked once, when the transfer completes. *)

val stats : t -> Tcp_stats.t
(** Live counters. *)

(** {2 Introspection (tests and traces)} *)

val snd_una : t -> int
(** Lowest unacknowledged byte. *)

val snd_nxt : t -> int
(** Next byte to send. *)

val cwnd_bytes : t -> int
(** Congestion window, floored to bytes. *)

val ssthresh_bytes : t -> int
(** Slow-start threshold. *)

val rto : t -> Rto.t
(** The timeout estimator. *)

val timer_pending : t -> bool
(** [true] iff the retransmission timer is armed. *)

val timer_counters : t -> Sim_engine.Soft_timer.counters
(** Operation counters of the retransmission timer (arms, fused
    restarts, lazy cancels, fires, stale fires, deadline chases) —
    for observability and the benchmark's per-layer counters. *)

val cc : t -> Tcp_config.cc
(** The congestion-control variant this sender runs. *)

val cc_name : t -> string
(** {!Tcp_config.cc_name} of {!cc}. *)

val in_fast_recovery : t -> bool
(** [true] while the policy is in fast recovery (Reno family). *)

val recovery_entries : t -> int
(** Times fast recovery has been entered. *)

val cc_diag : t -> (string * float) list
(** Variant-private diagnostics (e.g. Vegas's [base_rtt_ticks] and
    [diff_segments]); empty for variants with no private state. *)

(** {2 Observability} *)

val set_obs : t -> trace:Obs.Trace.t -> metrics:Obs.Registry.t -> unit
(** Attach a structured trace and a metrics registry.  The sender then
    emits [tcp] trace events (send / timeout / ebsn_rearm / quench /
    complete), from templates rendered here when [trace] is live, and
    feeds the [tcp.rtt_ticks] and [tcp.cwnd_bytes] histograms.  With
    the defaults ({!Obs.Trace.disabled}, {!Obs.Registry.disabled})
    every instrumentation site is a single dead branch. *)

val traced_sends :
  mss:int -> string -> (Sim_engine.Simtime.t * int * bool) list
(** [(time, seq / mss, retransmit)] for every [tcp] [send] line of a
    JSONL trace, oldest first: the marks of the time-sequence plots
    of Figures 3–5. *)

val traced_timeouts : string -> Sim_engine.Simtime.t list
(** The time of every [tcp] [timeout] line of a JSONL trace, oldest
    first. *)

val check_invariants : t -> unit
(** Verify internal consistency: sequence-number ordering
    [0 <= snd_una <= snd_nxt <= max_sent <= total], the congestion
    window never below one segment, and no retransmission timer armed
    after completion.
    @raise Obs.Invariant.Violation on the first failing check. *)

(** Deliberate state corruption, for exercising the invariant checker
    in tests.  Never call outside a test. *)
module For_testing : sig
  val corrupt_sequence_state : t -> unit
end
