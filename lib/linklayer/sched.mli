(** Frame schedulers for the wireless sender.

    Chooses which waiting item is served next when the sender becomes
    free.  [Fifo] is a single drop-tail queue; [Round_robin] keeps one
    queue per connection and serves them cyclically — the policy the
    CSDP work ([9] in the paper) shows avoids head-of-line blocking
    when connections see different channel conditions.  Polymorphic in
    the queued item so the ARQ can carry retry state alongside each
    frame. *)

type policy = Fifo | Round_robin

type 'a t
(** A scheduler instance. *)

val create : policy -> capacity:int -> 'a t
(** [capacity] bounds the total number of queued items (FIFO) or each
    connection's queue (round-robin).
    @raise Invalid_argument if [capacity <= 0]. *)

val policy : 'a t -> policy

val push : 'a t -> conn:int -> 'a -> bool
(** Queue an item for the given connection; [false] (and a counted
    drop) when the relevant queue is full. *)

val push_front : 'a t -> conn:int -> 'a -> unit
(** Re-queue an item at the head of its queue (used when a
    backing-off frame is deferred in favour of other traffic).  Never
    drops. *)

val pop : 'a t -> 'a
(** Remove and return the next item to serve.
    @raise Invalid_argument if nothing is queued (see {!is_empty}). *)

val length : 'a t -> int
(** Total queued items. *)

val is_empty : 'a t -> bool

val drops : 'a t -> int
(** Total drops across queues. *)

val clear : 'a t -> int
(** Discard every waiting item (all lanes, re-queued front items
    included) and return how many were removed.  Drop counters are
    kept.  Used when a crash wipes the sender's link-layer state. *)
