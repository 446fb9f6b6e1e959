(** Metrics registry: named counters, gauges and histograms.

    Instruments are registered by name; asking twice for the same
    name returns the same instrument.  A registry is either live or
    {!disabled}; instruments minted from a disabled registry make
    every update a single branch, so instrumented hot paths pay
    nothing when observability is off.

    {!to_jsonl} renders the registry sorted by metric name, so two
    runs that observed the same values produce byte-identical
    output. *)

type t
type counter
type gauge
type histogram

val create : unit -> t
(** A fresh live registry. *)

val disabled : t
(** The shared no-op registry.  Instruments minted from it ignore
    every update. *)

val enabled : t -> bool

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one sample.  Histograms track count, sum, min, max and
    counts per binary order of magnitude. *)

val observe_int : histogram -> int -> unit
(** [observe_int h n] is [observe h (float_of_int n)], but converts
    only when [h] is live, so an integer sample on a disabled
    histogram allocates nothing. *)

val to_jsonl : t -> string
(** One JSON line per metric, sorted by name.  Empty string for a
    disabled registry. *)
