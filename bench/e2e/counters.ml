(* Per-layer work counts read from the public outcome records of
   [Core.Wiring.run].  They are exact: the same cells give the same
   counts on every run, so they show where work moved without timing
   noise. *)

open Core

type t = {
  runs : int;
  events : int;
  q_adds : int;
  q_pops : int;
  q_cancels : int;
  q_near_pops : int;
  q_max : int;  (** largest queue occupancy seen in any run *)
  t_arms : int;
  t_fuses : int;
  t_stale : int;
  frames : int;  (** frames serialised over the air, both directions *)
  frames_lost : int;
  airtime_ns : int;  (** summed serialisation time of those frames *)
  arq_tx : int;
  arq_retx : int;
  arq_failures : int;
  arq_discards : int;
  reasm_failures : int;
  tcp_packets : int;
  tcp_retx : int;
  tcp_timeouts : int;
  tcp_fast_retx : int;
  ebsn_sent : int;
  ebsn_received : int;
  trace_bytes : int;
}

let zero =
  {
    runs = 0;
    events = 0;
    q_adds = 0;
    q_pops = 0;
    q_cancels = 0;
    q_near_pops = 0;
    q_max = 0;
    t_arms = 0;
    t_fuses = 0;
    t_stale = 0;
    frames = 0;
    frames_lost = 0;
    airtime_ns = 0;
    arq_tx = 0;
    arq_retx = 0;
    arq_failures = 0;
    arq_discards = 0;
    reasm_failures = 0;
    tcp_packets = 0;
    tcp_retx = 0;
    tcp_timeouts = 0;
    tcp_fast_retx = 0;
    ebsn_sent = 0;
    ebsn_received = 0;
    trace_bytes = 0;
  }

let of_outcome (o : Wiring.outcome) =
  let q = o.Wiring.queue_stats and tm = o.Wiring.timer_stats in
  let down = o.Wiring.downlink_stats and up = o.Wiring.uplink_stats in
  let w = o.Wiring.scenario.Scenario.wireless in
  let air_bytes = down.Wireless_link.air_bytes + up.Wireless_link.air_bytes in
  let bps = Units.bandwidth_to_bps w.Scenario.raw_bandwidth in
  let arq f = match o.Wiring.arq_stats with Some a -> f a | None -> 0 in
  let s = o.Wiring.sender_stats in
  {
    runs = 1;
    events = o.Wiring.events_executed;
    q_adds = q.Event_queue.adds;
    q_pops = q.Event_queue.pops;
    q_cancels = q.Event_queue.cancels;
    q_near_pops = q.Event_queue.near_pops;
    q_max = q.Event_queue.max_size;
    t_arms = tm.Soft_timer.arms;
    t_fuses = tm.Soft_timer.fuses;
    t_stale = tm.Soft_timer.stale_fires;
    frames = down.Wireless_link.frames_sent + up.Wireless_link.frames_sent;
    frames_lost = down.Wireless_link.frames_lost + up.Wireless_link.frames_lost;
    airtime_ns = int_of_float (float_of_int air_bytes *. 8e9 /. float_of_int bps);
    arq_tx = arq (fun a -> a.Arq.transmissions);
    arq_retx = arq (fun a -> a.Arq.retransmissions);
    arq_failures = arq (fun a -> a.Arq.attempt_failures);
    arq_discards = arq (fun a -> a.Arq.discards);
    reasm_failures =
      o.Wiring.mh_reassembly.Reassembly.failures
      + o.Wiring.bs_reassembly.Reassembly.failures;
    tcp_packets = s.Tcp_stats.packets_sent;
    tcp_retx = s.Tcp_stats.packets_retransmitted;
    tcp_timeouts = s.Tcp_stats.timeouts;
    tcp_fast_retx = s.Tcp_stats.fast_retransmits;
    ebsn_sent = o.Wiring.ebsn_sent;
    ebsn_received = s.Tcp_stats.ebsns_received;
    trace_bytes =
      (match o.Wiring.obs_trace with Some t -> String.length t | None -> 0);
  }

let add a b =
  {
    runs = a.runs + b.runs;
    events = a.events + b.events;
    q_adds = a.q_adds + b.q_adds;
    q_pops = a.q_pops + b.q_pops;
    q_cancels = a.q_cancels + b.q_cancels;
    q_near_pops = a.q_near_pops + b.q_near_pops;
    q_max = max a.q_max b.q_max;
    t_arms = a.t_arms + b.t_arms;
    t_fuses = a.t_fuses + b.t_fuses;
    t_stale = a.t_stale + b.t_stale;
    frames = a.frames + b.frames;
    frames_lost = a.frames_lost + b.frames_lost;
    airtime_ns = a.airtime_ns + b.airtime_ns;
    arq_tx = a.arq_tx + b.arq_tx;
    arq_retx = a.arq_retx + b.arq_retx;
    arq_failures = a.arq_failures + b.arq_failures;
    arq_discards = a.arq_discards + b.arq_discards;
    reasm_failures = a.reasm_failures + b.reasm_failures;
    tcp_packets = a.tcp_packets + b.tcp_packets;
    tcp_retx = a.tcp_retx + b.tcp_retx;
    tcp_timeouts = a.tcp_timeouts + b.tcp_timeouts;
    tcp_fast_retx = a.tcp_fast_retx + b.tcp_fast_retx;
    ebsn_sent = a.ebsn_sent + b.ebsn_sent;
    ebsn_received = a.ebsn_received + b.ebsn_received;
    trace_bytes = a.trace_bytes + b.trace_bytes;
  }
