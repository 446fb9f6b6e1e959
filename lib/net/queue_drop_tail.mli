(** Bounded drop-tail FIFO queue.

    The buffering discipline of every link in the simulator: arrivals
    beyond the capacity are dropped and counted.  Generic in the
    element type so links queue packets and wireless interfaces queue
    link frames. *)

type 'a t
(** A bounded queue. *)

val create : capacity:int -> unit -> 'a t
(** [create ~capacity ()] holds at most [capacity] elements.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int
(** The configured bound. *)

val set_capacity : 'a t -> int -> unit
(** Change the bound in place.  Shrinking below the current length
    does not evict queued elements — they drain normally — but new
    arrivals are dropped until the length falls below the new bound.
    @raise Invalid_argument if the new capacity is [<= 0]. *)

val length : 'a t -> int
(** Elements currently queued. *)

val is_empty : 'a t -> bool

val enqueue : 'a t -> 'a -> bool
(** Append an element.  Returns [false] (and counts a drop) if the
    queue is full. *)

val dequeue : 'a t -> 'a
(** Remove the oldest element.
    @raise Invalid_argument if the queue is empty. *)

val peek : 'a t -> 'a option
(** The oldest element without removing it. *)

val drops : 'a t -> int
(** Number of arrivals rejected so far. *)

val peak_length : 'a t -> int
(** High-water mark of {!length}. *)

val clear : 'a t -> unit
(** Discard all queued elements (drop and peak counters are kept). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate oldest-first without removing. *)

val filter_in_place : ('a -> bool) -> 'a t -> int
(** Keep only elements satisfying the predicate; returns how many were
    removed.  Order is preserved. *)
