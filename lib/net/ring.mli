(** Array-backed FIFO ring.

    The FIFO under the links' transmit queues and propagation lines and
    the ARQ scheduler's lanes.  Once it has grown to its working size,
    pushes and pops allocate nothing on the minor heap. *)

type 'a t
(** A ring of elements, oldest first. *)

val create : unit -> 'a t
(** An empty ring.  Its array is allocated on the first push. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. *)

val push_front : 'a t -> 'a -> unit
(** Insert at the head, so the next {!pop} returns it. *)

val peek : 'a t -> 'a
(** The oldest element.  @raise Invalid_argument if the ring is empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element.
    @raise Invalid_argument if the ring is empty. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first, without removing. *)

val clear : 'a t -> unit
(** Remove every element. *)

val filter_in_place : ('a -> bool) -> 'a t -> int
(** Keep only the elements satisfying the predicate, in order; returns
    how many were removed. *)
