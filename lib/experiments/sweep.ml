open Topology

let default_replications = 10
let seed_of_replication r = (1000 * r) + 17
let seeds ~replications = List.init replications seed_of_replication

let seeded_runs ~replications scenarios =
  Array.init (Array.length scenarios * replications) (fun i ->
      Scenario.with_seed
        scenarios.(i / replications)
        (seed_of_replication (i mod replications)))

(* Every (scenario, seed) pair of a whole sweep fans out as one flat
   array over the persistent domain pool.  [Parallel.map_array] keeps
   each result at its input's index, so the per-scenario measurement
   lists are bit-identical at any [jobs], with the replication cache
   on or off. *)
let measurements_all ?(replications = default_replications) ?(jobs = 1)
    scenarios =
  if replications <= 0 then List.map (fun _ -> []) scenarios
  else begin
    let scenarios = Array.of_list scenarios in
    let out =
      Sim_engine.Parallel.map_array ~jobs Run.measure_cached
        (seeded_runs ~replications scenarios)
    in
    List.init (Array.length scenarios) (fun s ->
        List.init replications (fun r -> out.((s * replications) + r)))
  end

let measurements ?replications ?jobs scenario =
  match measurements_all ?replications ?jobs [ scenario ] with
  | [ ms ] -> ms
  | _ -> assert false

let replicate_all ?replications ?jobs scenarios ~metric =
  List.map
    (fun ms -> Metrics.Summary.of_list (List.map metric ms))
    (measurements_all ?replications ?jobs scenarios)

let replicate ?replications ?jobs scenario ~metric =
  Metrics.Summary.of_list
    (List.map metric (measurements ?replications ?jobs scenario))

let throughput (m : Run.measurement) = m.Run.throughput_bps
let goodput (m : Run.measurement) = m.Run.goodput

let retransmitted_kbytes (m : Run.measurement) =
  m.Run.retransmitted_kbytes

let timeouts (m : Run.measurement) = float_of_int m.Run.source_timeouts
