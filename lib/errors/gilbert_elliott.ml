open Sim_engine

let create ~rng ~mean_good ~mean_bad =
  let duration_of state =
    let mean =
      match state with
      | Channel_state.Good -> Simtime.span_to_sec mean_good
      | Channel_state.Bad -> Simtime.span_to_sec mean_bad
    in
    Simtime.span_sec (Rng.exponential rng ~mean)
  in
  let timeline = State_timeline.create ~duration_of () in
  let description =
    Format.asprintf "gilbert-elliott good=%a bad=%a" Simtime.pp_span mean_good
      Simtime.pp_span mean_bad
  in
  Channel.of_timeline ~description timeline
