(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Integer time keeps event ordering exact and runs
    reproducible; 62 bits of nanoseconds cover ~146 simulated years,
    far beyond any experiment in this repository. *)

type t = private int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = private int
(** A duration, in nanoseconds.  Always non-negative. *)

val zero : t
(** The simulation epoch. *)

val of_ns : int -> t
(** [of_ns n] is the instant [n] nanoseconds after the epoch.
    @raise Invalid_argument if [n < 0]. *)

val to_ns : t -> int
(** Nanoseconds since the epoch. *)

val to_sec : t -> float
(** Seconds since the epoch, as a float (for reporting only). *)

val span_ns : int -> span
(** [span_ns n] is a duration of [n] nanoseconds.
    @raise Invalid_argument if [n < 0]. *)

val span_us : int -> span
(** Duration in microseconds. *)

val span_ms : int -> span
(** Duration in milliseconds. *)

val span_sec : float -> span
(** [span_sec s] is a duration of [s] seconds, rounded to the nearest
    nanosecond.  @raise Invalid_argument if [s] is negative or not
    finite. *)

val span_to_ns : span -> int
(** Duration in nanoseconds. *)

val span_to_sec : span -> float
(** Duration in seconds, as a float. *)

val span_zero : span
(** The empty duration. *)

val max_span : span
(** The longest duration the clock holds, [2{^ 62} - 1] ns (about 146
    years); [add zero max_span] is its last instant. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff a b] is the duration from [b] to [a].
    @raise Invalid_argument if [a < b]. *)

val span_add : span -> span -> span
(** Sum of two durations. *)

val span_sub : span -> span -> span
(** [span_sub a b] is [a - b].  @raise Invalid_argument if [b > a]. *)

val span_scale : span -> float -> span
(** [span_scale d k] is [d] scaled by the non-negative factor [k],
    rounded to the nearest nanosecond. *)

val span_compare : span -> span -> int
(** Total order on durations. *)

val span_min : span -> span -> span
(** Smaller of two durations. *)

val compare : t -> t -> int
(** Total order on instants. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp_span : Format.formatter -> span -> unit
(** Prints a duration as seconds, e.g. ["0.100s"]. *)
