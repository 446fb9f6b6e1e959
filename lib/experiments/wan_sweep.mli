(** Shared wide-area sweep machinery for Figures 7, 8 and 9.

    Sweeps the wired-network packet size from 128 to 1536 bytes for
    each mean bad-period length from 1 to 4 s (mean good period 10 s,
    100 KB transfer), replicating each point over several seeds. *)

type cell = { size : int; summary : Metrics.Summary.t }
type series = { bad_sec : float; cells : cell list }

val bad_periods_sec : float list
(** 1.0, 2.0, 3.0, 4.0. *)

val compute :
  ?replications:int ->
  ?jobs:int ->
  ?cc:Tcp_tahoe.Tcp_config.cc ->
  ?packet_sizes:int list ->
  ?bad_periods_sec:float list ->
  scheme:Topology.Scenario.scheme ->
  metric:(Run.measurement -> float) ->
  unit ->
  series list
(** One series per bad-period length, over [packet_sizes] (default
    {!Packet_size_advisor.default_candidates}, the paper's 128-byte
    steps).  [jobs] parallelises the replications of each point
    without changing any value.  [cc] overrides the source's
    congestion-control variant (default: the preset's Tahoe). *)

val render_throughput :
  title:string -> note:string -> series list -> string
(** Table of mean throughput (kbit/s) per packet size and bad period,
    with the theoretical maximum [tput_th] row. *)

val render_metric :
  title:string -> note:string -> unit_label:string -> series list -> string
(** Table of an arbitrary metric per packet size and bad period. *)

val best_size : series -> int * float
(** The packet size with the highest mean metric in a series
    ({!Packet_size_advisor.best}). *)

val to_csv : series list -> string
(** The sweep as CSV (one row per packet size, one column per bad
    period; values are the metric means). *)
