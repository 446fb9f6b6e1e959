(** Replicated parameter sweeps.

    Each point is measured over several seeds and summarised; the
    paper reports means whose standard deviation stays below 4%. *)

val seeds : replications:int -> int list
(** The deterministic seed list used for replication ([1000·i + 17]). *)

val seeded_runs :
  replications:int -> Topology.Scenario.t array -> Topology.Scenario.t array
(** Every (scenario, seed) run of a replicated sweep, row-major: run
    [i] is scenario [i / replications] under the [i mod replications]-th
    of {!seeds}.  {!measurements_all} measures exactly these runs. *)

val replicate :
  ?replications:int ->
  ?jobs:int ->
  Topology.Scenario.t ->
  metric:(Run.measurement -> float) ->
  Metrics.Summary.t
(** Run the scenario under each of the [replications] (default 10)
    seeds and summarise the metric.  [jobs] (default 1) fans the
    replications out across that many domains; the seed schedule is
    unchanged, so the summary is bit-identical at any [jobs]. *)

val measurements :
  ?replications:int ->
  ?jobs:int ->
  Topology.Scenario.t ->
  Run.measurement list
(** The raw per-seed measurements, in seed-schedule order at any
    [jobs]. *)

val measurements_all :
  ?replications:int ->
  ?jobs:int ->
  Topology.Scenario.t list ->
  Run.measurement list list
(** Per-seed measurements for several scenarios, fanned out as one
    flat (scenario, seed) array over the persistent domain pool
    ({!Sim_engine.Parallel.Pool}).  Sweep drivers prefer this over
    per-point [measurements]: one pool batch serves the whole matrix,
    so no domain idles at the end of each point.  Result [i] equals
    [measurements scenario_i] exactly, at any [jobs].  Every run goes
    through {!Run.measure_cached}, so the replication cache's mode
    applies. *)

val replicate_all :
  ?replications:int ->
  ?jobs:int ->
  Topology.Scenario.t list ->
  metric:(Run.measurement -> float) ->
  Metrics.Summary.t list
(** [replicate] over one shared pool; result [i] equals
    [replicate scenario_i ~metric]. *)

val throughput : Run.measurement -> float
(** Metric selector: throughput in bits/s. *)

val goodput : Run.measurement -> float
val retransmitted_kbytes : Run.measurement -> float
val timeouts : Run.measurement -> float
