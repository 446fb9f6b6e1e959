(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (splitmix64).  Every stochastic
    component of the simulator draws from an explicit [Rng.t] so that a
    run is fully determined by its seed, and independent components can
    be given independent streams via {!split}. *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator.  Equal seeds yield identical
    streams. *)

val split : t -> t
(** [split rng] derives a new generator from [rng].  The two streams
    are statistically independent; [rng] advances. *)

val copy : t -> t
(** An independent snapshot that will replay [rng]'s future draws. *)

val bits64 : t -> int64
(** The next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int rng n] is uniform on [0, n-1].  @raise Invalid_argument if
    [n <= 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform on [0, x).  @raise Invalid_argument if
    [x <= 0] or [x] is not finite. *)

val uniform : t -> float
(** Uniform on [0, 1): [float_of_int (uniform_bits t) *. 0x1p-53]. *)

val uniform_bits : t -> int
(** The 53 random bits behind {!uniform}, uniform on [[0, 2^53)].  An
    int crosses module boundaries unboxed, so a per-frame caller scales
    the bits itself, with the same operation as {!uniform}, instead of
    receiving a boxed float. *)

val bool : t -> bool
(** A fair coin flip. *)

val exponential : t -> mean:float -> float
(** A draw from the exponential distribution with the given mean.
    @raise Invalid_argument if [mean <= 0]. *)

val poisson : t -> mean:float -> int
(** A draw from the Poisson distribution with the given mean (Knuth's
    method for small means, normal approximation above 500).
    @raise Invalid_argument if [mean < 0]. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success in Bernoulli trials
    with success probability [p] (support starts at 0).
    @raise Invalid_argument if [p] is outside (0, 1]. *)
