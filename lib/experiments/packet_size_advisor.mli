(** Packet-size selection (the paper's §4.1 proposal).

    "This proposal may simply be implemented by maintaining a fixed
    table at each base station which maps a particular wireless link
    error characteristic to the `good' packet size for that error
    characteristic."  This module builds that table by simulation:
    for each error characteristic it sweeps candidate wired-network
    packet sizes under basic TCP and records the throughput-optimal
    one. *)

type entry = {
  mean_bad_sec : float;  (** the error characteristic *)
  best_size : int;  (** throughput-optimal wired packet size, bytes *)
  best_throughput_bps : float;
  gain_over_worst : float;  (** best/worst − 1 over the candidates *)
}

val default_candidates : int list
(** 128 … 1536 in 128-byte steps: the paper's sizes, which the
    Figure 7–9 sweeps ({!Wan_sweep}) use too. *)

val best : (int * float) list -> int * float
(** The first size with the highest value in a (size, value) sweep;
    [(0, neg_infinity)] on an empty one.  The one best-size fold:
    {!evaluate}, {!entry_of_sweep} and {!Wan_sweep.best_size} use it. *)

val entry_of_sweep : mean_bad_sec:float -> (int * float) list -> entry
(** The table entry for one error characteristic from its (size, mean
    throughput) sweep: the {!best} size and its gain over the worst
    one. *)

val evaluate :
  ?replications:int ->
  ?jobs:int ->
  ?candidates:int list ->
  mean_bad_sec:float ->
  unit ->
  entry * (int * float) list
(** Sweep candidates for one error characteristic (wide-area setup,
    mean good period 10 s).  Returns the table entry and the full
    (size, mean throughput) sweep. *)

val build_table :
  ?replications:int ->
  ?jobs:int ->
  ?candidates:int list ->
  mean_bad_secs:float list ->
  unit ->
  entry list
(** The base station's lookup table over several error
    characteristics. *)

val lookup : entry list -> mean_bad_sec:float -> entry option
(** The entry whose error characteristic is nearest the given one. *)
