open Sim_engine

(* An exponential draw can round to 0 ns, or pass the clock's largest
   span when the mean is within a factor ~37 of it; either would be an
   invalid period.  Clamp the draw to the spans the clock holds, which
   leaves every valid draw as [Simtime.span_sec] rounds it.  The
   largest span as a float is 2^62, the first value past it. *)
let span_of_draw sec =
  let ns = Float.round (sec *. 1e9) in
  if ns < 1.0 then Simtime.span_ns 1
  else if ns >= Float.of_int (Simtime.span_to_ns Simtime.max_span) then
    Simtime.max_span
  else Simtime.span_ns (int_of_float ns)

let create ~rng ~mean_good ~mean_bad =
  let duration_of state =
    let mean =
      match state with
      | Channel_state.Good -> Simtime.span_to_sec mean_good
      | Channel_state.Bad -> Simtime.span_to_sec mean_bad
    in
    span_of_draw (Rng.exponential rng ~mean)
  in
  let timeline = State_timeline.create ~duration_of () in
  let description =
    Format.asprintf "gilbert-elliott good=%a bad=%a" Simtime.pp_span mean_good
      Simtime.pp_span mean_bad
  in
  Channel.of_timeline ~description timeline
