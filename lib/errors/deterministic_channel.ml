open Sim_engine

let create ~good ~bad =
  if
    Simtime.span_compare good Simtime.span_zero = 0
    || Simtime.span_compare bad Simtime.span_zero = 0
  then invalid_arg "Deterministic_channel.create: zero period";
  let duration_of = function
    | Channel_state.Good -> good
    | Channel_state.Bad -> bad
  in
  let timeline = State_timeline.create ~duration_of () in
  let description =
    Format.asprintf "deterministic good=%a bad=%a" Simtime.pp_span good
      Simtime.pp_span bad
  in
  Channel.of_timeline ~description timeline
