(** Pending-event set for the discrete-event simulator.

    An indexed struct-of-arrays 4-ary min-heap that holds exactly the
    live events.  Events pop in the unique total order (time, then
    insertion order), so same-time events run in the order they were
    scheduled.  Each payload slot records its heap node, so {!cancel}
    sifts the event out at once in [O(log n)]; {!next_time_ns} and
    {!peek_time} read the root, and {!take_exn} removes it.  Payload
    slots are recycled through a free pool: steady-state scheduling
    allocates nothing on the minor heap.

    The simulator's sets are tiny: a WAN EBSN run holds a median of 4
    pending events after a pop, and at most 16 in 99.9% of pops, so
    the heap is one to three levels deep and each operation is one
    short sift. *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

type handle
(** Identifies a scheduled event, for cancellation.  Handles are
    immediate values (no allocation per {!add}) and are only
    meaningful with the queue that issued them. *)

val null : handle
(** A handle that is live in no queue: {!cancel} on it is a no-op and
    {!is_live} is [false].  Lets callers keep a plain [handle] field
    (no [option] box) for "no event pending". *)

val create : unit -> 'a t
(** An empty queue. *)

val length : 'a t -> int
(** Number of pending events. *)

val is_empty : 'a t -> bool
(** [true] iff no event is pending. *)

val add : 'a t -> time:Simtime.t -> 'a -> handle
(** Schedule a value at the given time.
    @raise Failure if more than [2^25] events are pending at once. *)

val cancel : 'a t -> handle -> unit
(** Remove a scheduled event from the queue and recycle its payload
    slot.  Cancelling an event that already fired or was already
    cancelled, or {!null}, is a no-op. *)

val is_live : 'a t -> handle -> bool
(** [true] iff the event is still pending (not fired, not cancelled). *)

val peek_time : 'a t -> Simtime.t option
(** Time of the earliest event, if any. *)

val next_time_ns : 'a t -> int
(** Allocation-free {!peek_time}: the earliest event's time in
    nanoseconds, or [Int.min_int] when the queue is empty. *)

val pop : 'a t -> (Simtime.t * 'a) option
(** Remove and return the earliest event. *)

val take_exn : 'a t -> 'a
(** Allocation-free {!pop}: remove the earliest event and return its
    payload alone.  Pair with {!next_time_ns} for the time (the
    simulator's hot loop does exactly that).
    @raise Invalid_argument when the queue is empty. *)

(** {2 Observability} *)

type stats = {
  adds : int;  (** events ever scheduled *)
  pops : int;  (** events ever popped *)
  cancels : int;  (** pending events ever cancelled *)
  max_size : int;  (** high-water mark of pending events *)
  recycled : int;  (** adds served from the slot free pool *)
  near_pops : int;
      (** always [0].  Kept only because the benchmark's per-layer
          counters ([bench/e2e/counters.ml]) read it; the next
          benchmark revision drops it. *)
}

val stats : 'a t -> stats
(** Lifetime counters (always maintained; a handful of integer writes
    per operation).  Identity: [adds = pops + cancels + length t]. *)
