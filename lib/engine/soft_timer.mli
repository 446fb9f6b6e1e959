(** Restartable timer with fused restarts and lazy cancellation.

    A [Soft_timer.t] carries a logical deadline separate from its one
    physical event in the simulator queue.  Restarting to a later
    deadline reuses the pending physical event (no queue traffic — the
    event "chases" the deadline if it surfaces early); cancelling just
    disarms the timer and leaves the physical event queued, to run as a
    stale no-op unless a later restart reuses it.  Only a restart to an
    {e earlier} deadline, and {!detach}, cancel the physical event in
    the queue.

    This is the intended encoding for the simulator's hot timers —
    TCP retransmission and ARQ ack/backoff timers — whose deadlines
    are pushed later on nearly every packet and rarely expire.

    Double-cancel, cancel-after-fire, and fire-after-cancel are all
    checked no-ops; the regression tests in test/ pin that down. *)

type t

(** Shared operation counters, aggregated across every timer created
    with the same record (e.g. one record per replication covering the
    TCP timer and all transient ARQ entry timers). *)
type counters = {
  mutable arms : int;  (** {!arm} / {!arm_after} calls *)
  mutable fuses : int;
      (** re-arms absorbed by a pending physical event (zero queue
          operations) *)
  mutable lazy_cancels : int;
      (** cancels that left the physical event to die lazily *)
  mutable fires : int;  (** callback invocations *)
  mutable stale_fires : int;
      (** physical events that surfaced disarmed and were dropped *)
  mutable chases : int;
      (** physical events that surfaced before a moved deadline and
          rescheduled themselves at it *)
}

val create_counters : unit -> counters
(** A fresh all-zero counter record. *)

val create : Simulator.t -> counters:counters -> (unit -> unit) -> t
(** [create sim ~counters callback] is a disarmed timer.  [callback]
    runs each time the timer expires (it may re-{!arm} from within).
    All timers sharing [counters] aggregate into it. *)

val set_callback : t -> (unit -> unit) -> unit
(** Replace the expiry callback.  Useful when the callback must close
    over state defined after the timer. *)

val arm : t -> at:Simtime.t -> unit
(** Set (or restart) the timer to expire at [at].  If the timer was
    already armed, the previous deadline is superseded.
    @raise Invalid_argument if [at] is in the simulated past and a new
    physical event has to be scheduled. *)

val arm_after : t -> delay:Simtime.span -> unit
(** {!arm} at [now + delay]. *)

val cancel : t -> unit
(** Disarm the timer.  O(1), touches no queue state; a no-op if the
    timer is not armed (including after it has fired). *)

val is_armed : t -> bool
(** [true] iff the timer is set and has not yet fired or been
    cancelled. *)

val expiry : t -> Simtime.t option
(** The pending logical deadline, if armed. *)

val detach : t -> unit
(** {!cancel}, then eagerly remove any physical event from the queue.
    For tearing a timer down for good (e.g. node crash) so nothing of
    it remains pending. *)
