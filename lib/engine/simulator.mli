(** Discrete-event simulation core.

    A simulator owns a virtual clock and a pending-event set.  Model
    components schedule closures; {!run} executes them in timestamp
    order, advancing the clock.  All randomness flows through the
    simulator's root {!Rng.t} (or streams {!Rng.split} from it), so a
    run is a pure function of its seed. *)

type t
(** A simulator instance. *)

type event
(** A scheduled-event handle, used for cancellation. *)

val null_event : event
(** A handle no event ever carries: {!cancel} on it is a no-op,
    {!is_pending} is [false].  Lets components keep a plain [event]
    field (no [option] box) for "nothing scheduled". *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh simulator with clock at
    {!Simtime.zero}.  Default seed is 1. *)

val now : t -> Simtime.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The simulator's root random stream.  Components needing their own
    stream should take [Rng.split (rng sim)] at construction time. *)

val schedule : t -> at:Simtime.t -> (unit -> unit) -> event
(** Schedule a closure at an absolute time.
    @raise Invalid_argument if [at] is in the simulated past. *)

val schedule_after : t -> delay:Simtime.span -> (unit -> unit) -> event
(** Schedule a closure [delay] after the current time. *)

val cancel : t -> event -> unit
(** Cancel a scheduled event; no-op if it already fired or was
    cancelled. *)

val is_pending : t -> event -> bool
(** [true] iff the event has neither fired nor been cancelled. *)

val pending_events : t -> int
(** Number of events waiting to fire. *)

val step : t -> bool
(** Execute the earliest pending event.  Returns [false] if none was
    pending.
    @raise Budget_exhausted if the simulator was created under an
    event budget (see {!with_budget}) and has spent it. *)

type fault_report = {
  error : exn;  (** the exception the event handler raised *)
  backtrace : Printexc.raw_backtrace;  (** captured at the raise site *)
  at : Simtime.t;  (** clock when the handler faulted *)
  events_executed : int;  (** lifetime events executed before the fault *)
  pending_events : int;  (** live events stranded in the queue *)
  queue_stats : Event_queue.stats;  (** queue counters at the fault *)
}
(** What {!run} knows when an event handler raises: enough to report a
    partial outcome instead of a stuck queue. *)

exception Fault of fault_report
(** Raised by {!run} when an event handler raises any exception
    (including {!Obs.Invariant.Violation} from a checked-mode sweep).
    Registered finalizers have already run by the time this
    propagates; the original exception and backtrace are carried in
    the report. *)

(** {2 Event budgets (cooperative deadlines)} *)

exception Budget_exhausted of { budget : int; executed : int }
(** Raised by {!step} (and therefore out of {!run}, wrapped as
    {!Fault} like any other in-run exception) when a simulator has
    executed its full event budget.  The check runs {e before} the
    next event pops, so the queue and clock are left exactly as the
    last allowed event left them — an exhausted run is a deterministic
    function of the seed and the budget, which is what lets a
    supervisor retry the same cell at a relaxed budget tier. *)

val default_budget : unit -> int option
(** The current domain's default budget. *)

val with_budget : int option -> (unit -> 'a) -> 'a
(** [with_budget b f] runs [f] with the domain's default budget set to
    [b], restoring the previous default afterwards (also on raise).
    Simulators created meanwhile on the {e current domain} inherit it:
    [Some n] allows [n] events over the simulator's lifetime, [None]
    (the initial state) is unlimited.  Domain-local on purpose: pool
    workers can run different cells under different deadline tiers
    concurrently.
    @raise Invalid_argument if [n < 1]. *)

val add_finalizer : t -> (unit -> unit) -> unit
(** Register a cleanup action run (in registration order) before
    {!run} re-raises a handler exception as {!Fault}, e.g. to flush
    output a crashing run would otherwise leave half-written.
    Finalizers are individually guarded: one that raises is ignored
    and the rest still run.  They do {e not} run on a normal
    (non-faulting) return. *)

val run : ?until:Simtime.t -> ?max_events:int -> t -> unit
(** Execute events in order until the queue drains, the clock passes
    [until], or [max_events] events have fired.  Events scheduled
    beyond [until] remain pending.  When the run ends at the horizon —
    whether the next event lies beyond [until] or the queue drained
    first — the clock is advanced to [until], so callers can schedule
    relative to the requested stop time.  {!stop}, and an exhausted
    [max_events] with work still pending, leave the clock at the last
    executed event.

    If an event handler raises, registered finalizers run and the
    exception is re-raised wrapped as {!Fault}, carrying the original
    exception, its backtrace, and queue statistics at the point of
    failure. *)

val stop : t -> unit
(** Make the current {!run} return after the executing event
    completes.  Pending events are kept. *)

(** {2 Observability and checked mode} *)

val set_checked : t -> bool -> unit
(** Enable or disable checked mode.  While enabled, event times are
    verified monotonic and every registered invariant runs after each
    event; a failing invariant raises {!Obs.Invariant.Violation} out
    of {!step} / {!run}.  Disabled (the default), the only cost is one
    branch per event. *)

val checked : t -> bool

val add_invariant : t -> (unit -> unit) -> unit
(** Register an invariant check, run after every event in checked
    mode, in registration order.  Checks signal violations by raising
    {!Obs.Invariant.Violation} (see {!Obs.Invariant.fail}). *)

val events_executed : t -> int
(** Total events executed over the simulator's lifetime. *)

val queue_stats : t -> Event_queue.stats
(** Lifetime counters of the pending-event set. *)
