open Topology

type entry = {
  mean_bad_sec : float;
  best_size : int;
  best_throughput_bps : float;
  gain_over_worst : float;
}

let default_candidates =
  [ 128; 256; 384; 512; 640; 768; 896; 1024; 1152; 1280; 1408; 1536 ]

let best sweep =
  List.fold_left
    (fun (bs, bv) (size, v) -> if v > bv then (size, v) else (bs, bv))
    (0, Float.neg_infinity) sweep

let entry_of_sweep ~mean_bad_sec sweep =
  let best_size, best_throughput_bps = best sweep in
  let worst =
    List.fold_left (fun acc (_, v) -> Float.min acc v) Float.infinity sweep
  in
  {
    mean_bad_sec;
    best_size;
    best_throughput_bps;
    gain_over_worst =
      (if worst > 0.0 then (best_throughput_bps /. worst) -. 1.0 else 0.0);
  }

let evaluate ?replications ?jobs ?(candidates = default_candidates) ~mean_bad_sec ()
    =
  if candidates = [] then invalid_arg "Packet_size_advisor: no candidates";
  let summaries =
    Sweep.replicate_all ?replications ?jobs
      (List.map
         (fun size ->
           Scenario.wan ~scheme:Scenario.Basic ~packet_size:size ~mean_bad_sec
             ())
         candidates)
      ~metric:Sweep.throughput
  in
  let sweep =
    List.map2
      (fun size summary -> (size, summary.Metrics.Summary.mean))
      candidates summaries
  in
  (entry_of_sweep ~mean_bad_sec sweep, sweep)

let build_table ?replications ?jobs ?candidates ~mean_bad_secs () =
  List.map
    (fun mean_bad_sec ->
      fst (evaluate ?replications ?jobs ?candidates ~mean_bad_sec ()))
    mean_bad_secs

let lookup table ~mean_bad_sec =
  match table with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun best entry ->
           if
             Float.abs (entry.mean_bad_sec -. mean_bad_sec)
             < Float.abs (best.mean_bad_sec -. mean_bad_sec)
           then entry
           else best)
         (List.hd table) table)
