open Sim_engine

type result = {
  file_bytes : int;
  start_time : Simtime.t;
  finish_time : Simtime.t;
  duration : Simtime.span;
  throughput_bps : float;
  goodput : float;
  sender_stats : Tcp_stats.t;
  sink_stats : Tcp_sink.stats;
}

let throughput_bps ~config ~file_bytes ~duration =
  let segments =
    (file_bytes + config.Tcp_config.mss - 1) / config.Tcp_config.mss
  in
  let wire_bytes = file_bytes + (segments * config.Tcp_config.header_bytes) in
  let seconds = Simtime.span_to_sec duration in
  if seconds <= 0.0 then 0.0
  else float_of_int (8 * wire_bytes) /. seconds

let result ~config ~sender ~sink ~file_bytes ~start_time =
  match Tcp_sink.completion_time sink with
  | None -> invalid_arg "Bulk_app.result: transfer not complete"
  | Some finish_time ->
    let duration = Simtime.diff finish_time start_time in
    let sender_stats = Tcp_sender.stats sender in
    {
      file_bytes;
      start_time;
      finish_time;
      duration;
      throughput_bps = throughput_bps ~config ~file_bytes ~duration;
      goodput = Tcp_stats.goodput sender_stats ~useful_bytes:file_bytes;
      sender_stats;
      sink_stats = Tcp_sink.stats sink;
    }
