(** Pluggable congestion control.

    The transport shell ({!Tcp_sender}) owns sequencing, the send
    window, the retransmission timer and observability; everything
    that decides {e how fast} to send — cwnd/ssthresh accounting and
    the reaction to acks, duplicate acks and timeouts — lives behind
    the {!policy} record.  A policy is a set of closures over a
    {!host}, the narrow view of the shell a variant is allowed to
    touch.  Variants: {!Cc_tahoe}, {!Cc_reno} (Reno and NewReno),
    {!Cc_sack}, {!Cc_vegas}.

    State shared by every variant (and read by the shell's window
    arithmetic) sits in {!state}; variant-private state (e.g. Vegas's
    baseRTT) lives inside the policy's closures and is surfaced only
    through [diag]. *)

type state = {
  mutable cwnd : float;  (** congestion window, bytes *)
  mutable ssthresh : int;  (** slow-start threshold, bytes *)
  mutable dupacks : int;  (** consecutive duplicate acks *)
  mutable recover : int;  (** highest byte sent when recovery last began *)
  mutable in_recovery : bool;  (** inside fast recovery (Reno family) *)
  mutable recovery_entries : int;  (** times fast recovery was entered *)
}

(** The shell operations a policy may invoke.  [emit_segment] sends
    one segment now (counted as a retransmission when below
    [max_sent]); [send_window] sends whatever the current window
    allows; [arm_rto] (re)starts the retransmission timer at the
    current RTO.  The scoreboard operations are only meaningful when
    the policy sets [uses_scoreboard]. *)
type host = {
  cfg : Tcp_config.t;
  state : state;
  stats : Tcp_stats.t;
  total : int;  (** total payload bytes of the transfer *)
  snd_una : unit -> int;
  snd_nxt : unit -> int;
  max_sent : unit -> int;
  set_snd_una : int -> unit;
  set_snd_nxt : int -> unit;
  emit_segment : seq:int -> len:int -> unit;
  send_window : unit -> unit;
  arm_rto : unit -> unit;
  clear_timing : unit -> unit;  (** Karn: drop the in-flight RTT sample *)
  clear_scoreboard : unit -> unit;
  prune_scoreboard : ack:int -> unit;
  set_hole_cursor : int -> unit;
  retransmit_hole : unit -> bool;
}

(** One congestion-control variant, as event hooks called by the
    shell.  [on_new_ack] runs after the RTT sample and backoff reset
    but {e before} the shell advances [snd_una] to [ack];
    [on_dupack] runs after the duplicate-ack counters.  [on_timeout]
    runs between the RTO backoff and the timer re-arm.  The shell
    never touches [state.cwnd]/[ssthresh] itself except for ICMP
    source quench (a host-level, not CC-level, mechanism). *)
type policy = {
  kind : Tcp_config.cc;
  uses_scoreboard : bool;
      (** record receiver SACK blocks before ack processing *)
  on_new_ack : ack:int -> unit;
  on_dupack : ack:int -> unit;
  on_timeout : unit -> unit;
  on_rtt_sample : rtt_ticks:int -> rtt_ns:int -> unit;
  diag : unit -> (string * float) list;
      (** variant-private gauges for the metrics registry, e.g.
          Vegas's [base_rtt_ticks] *)
}

val initial_state : Tcp_config.t -> state
(** cwnd at one segment, ssthresh from
    {!Tcp_config.initial_ssthresh_bytes}, recovery off. *)

val effective_window : host -> int
(** [min cwnd window], floored to bytes. *)

val set_loss_threshold : host -> unit
(** [ssthresh <- max (2*mss) (flight/2)] — the halving every variant
    applies on loss detection. *)

val grow_cwnd : host -> unit
(** Slow start below ssthresh (one segment per ack), congestion
    avoidance above (one segment per window), capped at four
    advertised windows.  Byte-identical to the historical Tahoe
    sender. *)

val collapse : host -> unit
(** The Tahoe loss reaction, shared by every variant's timeout path:
    ssthresh to half the flight, window to one segment, recovery
    cleared, scoreboard invalidated, go-back-N from [snd_una]. *)
