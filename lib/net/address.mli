(** Node addresses.

    A flat address space: each node in a topology has a unique small
    integer address. *)

type t = private int
(** A node address. *)

val make : int -> t
(** [make n] is the address [n].  @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int
(** The underlying integer. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as ["n3"]. *)
