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
   array over the persistent domain pool: one warm pool serves the
   whole matrix, and the coarse chunks the pool steals span several
   replications each.  The job array is built in deterministic order
   and [Parallel.map_array] preserves it (results merge by index), so
   the per-scenario measurement lists are bit-identical at any
   [jobs].  Array-native end to end: no list↔array copies sit on the
   replication hot path. *)
let measurements_all ?(replications = default_replications) ?(jobs = 1)
    scenarios =
  if replications <= 0 then List.map (fun _ -> []) scenarios
  else begin
    let scenarios = Array.of_list scenarios in
    let n_scenarios = Array.length scenarios in
    let runs = seeded_runs ~replications scenarios in
    let out =
      if not (Repcache.Cache.active ()) then
        Sim_engine.Parallel.map_array ~jobs Run.measure runs
      else begin
        (* Intra-batch dedup: identical cells (the ablation cross
           tables share most of their baseline cells) simulate once
           and fan back out by slot.  The key→slot mapping is built
           before the parallel fan-out, so it is deterministic
           regardless of steal interleaving. *)
        let n = Array.length runs in
        let first = Hashtbl.create (2 * n) in
        let slot = Array.make n 0 in
        let uniq = ref [] in
        let n_uniq = ref 0 in
        for i = 0 to n - 1 do
          let key = Repcache.Fingerprint.key runs.(i) in
          match Hashtbl.find_opt first key with
          | Some j -> slot.(i) <- j
          | None ->
            Hashtbl.add first key !n_uniq;
            slot.(i) <- !n_uniq;
            uniq := i :: !uniq;
            incr n_uniq
        done;
        if n > !n_uniq then Repcache.Cache.note_deduped (n - !n_uniq);
        let uniq = Array.of_list (List.rev !uniq) in
        let measured =
          Sim_engine.Parallel.map_array ~jobs
            (fun i -> Run.measure_cached runs.(i))
            uniq
        in
        Array.init n (fun i -> measured.(slot.(i)))
      end
    in
    List.init n_scenarios (fun s ->
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
let throughput_kbps (m : Run.measurement) = m.Run.throughput_bps /. 1000.0
let goodput (m : Run.measurement) = m.Run.goodput

let retransmitted_kbytes (m : Run.measurement) =
  m.Run.retransmitted_kbytes

let timeouts (m : Run.measurement) = float_of_int m.Run.source_timeouts
