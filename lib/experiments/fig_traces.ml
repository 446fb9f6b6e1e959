open Topology

type trace_result = {
  scheme : Scenario.scheme;
  plot : string;
  timeouts_in_window : int;
  retransmissions_in_window : int;
  measurement : Run.measurement;
}

let window_sec = 60.0

let compute scheme =
  let scenario =
    Scenario.wan ~scheme ~error_mode:Scenario.Deterministic ~mean_bad_sec:4.0
      ~mean_good_sec:10.0 ()
  in
  let obs = { (Obs.Config.default ()) with Obs.Config.trace = true } in
  let outcome = Wiring.run ~obs scenario in
  let until = Sim_engine.Simtime.of_ns (int_of_float (window_sec *. 1e9)) in
  let in_window time = Sim_engine.Simtime.(time <= until) in
  let trace = Option.get outcome.Wiring.obs_trace in
  let sends =
    Tcp_tahoe.Tcp_sender.traced_sends
      ~mss:scenario.Scenario.tcp.Tcp_tahoe.Tcp_config.mss trace
  in
  let timeouts_in_window =
    List.length
      (List.filter in_window (Tcp_tahoe.Tcp_sender.traced_timeouts trace))
  in
  let retransmissions_in_window =
    List.length (List.filter (fun (time, _, retx) -> retx && in_window time) sends)
  in
  {
    scheme;
    plot = Metrics.Timeseq.render ~until sends;
    timeouts_in_window;
    retransmissions_in_window;
    measurement = Run.outcome_measurement outcome;
  }

let figure_title = function
  | Scenario.Basic -> "Figure 3 — Basic TCP (deterministic errors)"
  | Scenario.Local_recovery -> "Figure 4 — Local recovery at the BS"
  | Scenario.Ebsn -> "Figure 5 — Explicit feedback (EBSN)"
  | (Scenario.Quench | Scenario.Snoop | Scenario.Split) as s ->
    "Trace — " ^ Scenario.scheme_name s

let render_one result =
  String.concat "\n"
    [
      Report.heading (figure_title result.scheme);
      result.plot;
      Report.note
        (Printf.sprintf
           "first 60s: %d source timeouts, %d source retransmissions"
           result.timeouts_in_window result.retransmissions_in_window);
      Report.note
        (Printf.sprintf
           "whole transfer: throughput %s kbit/s, goodput %.3f, %d timeouts"
           (Report.kbps result.measurement.Run.throughput_bps)
           result.measurement.Run.goodput
           result.measurement.Run.source_timeouts);
    ]

let render_all () =
  String.concat "\n\n"
    (List.map
       (fun scheme -> render_one (compute scheme))
       [ Scenario.Basic; Scenario.Local_recovery; Scenario.Ebsn ])
