open Sim_engine
open Topology

(* Bump on any change that can alter simulation output: the salt
   invalidates every existing on-disk entry at once.  The trailing
   component tracks the library version the entries were minted by. *)
let engine_version = "wtcp-engine-1.8.0"

let pf = Printf.bprintf

(* Exact scalar renderings: a float goes through its IEEE-754 bit
   pattern, so distinct values (including infinities and signed
   zeros) never alias. *)
let int_f b name v = pf b " %s=%d" name v
let bool_f b name v = pf b " %s=%b" name v
let float_f b name v = pf b " %s=%Ld" name (Int64.bits_of_float v)
let str_f b name v = pf b " %s=%s" name v
let span_f b name s = pf b " %s=%dns" name (Simtime.span_to_ns s)

let bandwidth_f b name v =
  pf b " %s=%dbps" name (Netsim.Units.bandwidth_to_bps v)

let state_tag = function
  | Error_model.Channel_state.Good -> 'g'
  | Error_model.Channel_state.Bad -> 'b'

let add_error_mode b (mode : Scenario.error_mode) =
  match mode with
  | Scenario.Markov -> str_f b "error_mode" "markov"
  | Scenario.Deterministic -> str_f b "error_mode" "deterministic"
  | Scenario.Replay periods ->
    pf b " error_mode=replay[%d" (List.length periods);
    List.iter
      (fun (state, span) ->
        pf b ";%c%d" (state_tag state) (Simtime.span_to_ns span))
      periods;
    pf b "]"

let add_wired b (w : Scenario.wired) =
  pf b "\nwired";
  bandwidth_f b "bw" w.Scenario.bandwidth;
  span_f b "delay" w.Scenario.delay;
  int_f b "queue" w.Scenario.queue_capacity

let add_wireless b (w : Scenario.wireless) =
  pf b "\nwireless";
  bandwidth_f b "raw_bw" w.Scenario.raw_bandwidth;
  span_f b "delay" w.Scenario.delay;
  (match w.Scenario.mtu with
  | None -> str_f b "mtu" "none"
  | Some m -> int_f b "mtu" m);
  float_f b "overhead" w.Scenario.overhead_factor;
  float_f b "ber_good" w.Scenario.ber.Error_model.Loss.good;
  float_f b "ber_bad" w.Scenario.ber.Error_model.Loss.bad;
  span_f b "mean_good" w.Scenario.mean_good;
  span_f b "mean_bad" w.Scenario.mean_bad;
  add_error_mode b w.Scenario.error_mode

let add_arq b (a : Link_arq.Arq.config) =
  pf b "\narq";
  int_f b "rt_max" a.Link_arq.Arq.rt_max;
  int_f b "window" a.Link_arq.Arq.window;
  span_f b "ack_margin" a.Link_arq.Arq.ack_timeout_margin;
  (match a.Link_arq.Arq.backoff with
  | Link_arq.Backoff.Uniform max ->
    str_f b "backoff" "uniform";
    span_f b "max" max
  | Link_arq.Backoff.Binary_exponential { base; cap } ->
    str_f b "backoff" "binexp";
    span_f b "base" base;
    span_f b "cap" cap);
  str_f b "sched"
    (match a.Link_arq.Arq.scheduler with
    | Link_arq.Sched.Fifo -> "fifo"
    | Link_arq.Sched.Round_robin -> "rr");
  int_f b "queue" a.Link_arq.Arq.queue_capacity;
  bool_f b "defer_on_backoff" a.Link_arq.Arq.defer_on_backoff

let add_tcp b (t : Tcp_tahoe.Tcp_config.t) =
  pf b "\ntcp";
  str_f b "cc" (Tcp_tahoe.Tcp_config.cc_name t.Tcp_tahoe.Tcp_config.cc);
  int_f b "mss" t.Tcp_tahoe.Tcp_config.mss;
  int_f b "header" t.Tcp_tahoe.Tcp_config.header_bytes;
  int_f b "window" t.Tcp_tahoe.Tcp_config.window;
  (match t.Tcp_tahoe.Tcp_config.initial_ssthresh with
  | None -> str_f b "ssthresh" "none"
  | Some v -> int_f b "ssthresh" v);
  span_f b "tick" t.Tcp_tahoe.Tcp_config.tick;
  int_f b "min_rto" t.Tcp_tahoe.Tcp_config.min_rto_ticks;
  int_f b "max_rto" t.Tcp_tahoe.Tcp_config.max_rto_ticks;
  int_f b "initial_rto" t.Tcp_tahoe.Tcp_config.initial_rto_ticks;
  int_f b "dupack" t.Tcp_tahoe.Tcp_config.dupack_threshold;
  int_f b "max_backoff" t.Tcp_tahoe.Tcp_config.max_backoff;
  bool_f b "delack" t.Tcp_tahoe.Tcp_config.delayed_ack;
  span_f b "delack_timeout" t.Tcp_tahoe.Tcp_config.delayed_ack_timeout;
  float_f b "ebsn_rearm" t.Tcp_tahoe.Tcp_config.ebsn_rearm_scale;
  int_f b "vegas_alpha" t.Tcp_tahoe.Tcp_config.vegas_alpha;
  int_f b "vegas_beta" t.Tcp_tahoe.Tcp_config.vegas_beta;
  int_f b "vegas_gamma" t.Tcp_tahoe.Tcp_config.vegas_gamma

let add_snoop b (s : Agents.Snoop.config) =
  pf b "\nsnoop";
  span_f b "rto_initial" s.Agents.Snoop.local_rto_initial;
  span_f b "rto_min" s.Agents.Snoop.local_rto_min;
  int_f b "max_retx" s.Agents.Snoop.max_local_retransmits

let add_cross b name (pattern : Netsim.Cross_traffic.pattern option) =
  match pattern with
  | None -> pf b " %s=none" name
  | Some (Netsim.Cross_traffic.Cbr { rate; packet_bytes }) ->
    pf b " %s=cbr[%dbps,%dB]" name
      (Netsim.Units.bandwidth_to_bps rate)
      packet_bytes
  | Some (Netsim.Cross_traffic.On_off { rate; packet_bytes; mean_on; mean_off })
    ->
    pf b " %s=onoff[%dbps,%dB,%dns,%dns]" name
      (Netsim.Units.bandwidth_to_bps rate)
      packet_bytes
      (Simtime.span_to_ns mean_on)
      (Simtime.span_to_ns mean_off)

let add_fault_action b (action : Faults.Plan.action) =
  match action with
  | Faults.Plan.Bs_crash -> pf b "bs_crash"
  | Faults.Plan.Link_down { target; duration } ->
    pf b "link_down[%s,%dns]"
      (Faults.Plan.target_name target)
      (Simtime.span_to_ns duration)
  | Faults.Plan.Ack_blackout { duration } ->
    pf b "ack_blackout[%dns]" (Simtime.span_to_ns duration)
  | Faults.Plan.Ebsn_loss { count } -> pf b "ebsn_loss[%d]" count
  | Faults.Plan.Ebsn_duplicate -> pf b "ebsn_duplicate"
  | Faults.Plan.Ebsn_delay { delay } ->
    pf b "ebsn_delay[%dns]" (Simtime.span_to_ns delay)
  | Faults.Plan.Queue_squeeze { target; duration } ->
    pf b "queue_squeeze[%s,%dns]"
      (Faults.Plan.target_name target)
      (Simtime.span_to_ns duration)
  | Faults.Plan.Handoff { blackout } ->
    pf b "handoff[%dns]" (Simtime.span_to_ns blackout)

(* The empty plan and "no fault machinery" render identically: tests
   pin that a run under the empty plan is byte-identical to a plain
   run, so the two cells really are the same cell. *)
let add_faults b plan =
  match plan with
  | None -> pf b "\nfaults none"
  | Some p when Faults.Plan.is_empty p -> pf b "\nfaults none"
  | Some p ->
    pf b "\nfaults seed=%d" (Faults.Plan.seed p);
    List.iter
      (fun (e : Faults.Plan.event) ->
        pf b " @%dns:" (Simtime.span_to_ns e.Faults.Plan.after);
        add_fault_action b e.Faults.Plan.action)
      (Faults.Plan.events p)

let canonical ?faults (s : Scenario.t) =
  let b = Buffer.create 768 in
  pf b "engine %s" engine_version;
  pf b "\nscheme %s" (Scenario.scheme_name s.Scenario.scheme);
  add_wired b s.Scenario.wired;
  add_wireless b s.Scenario.wireless;
  add_arq b s.Scenario.arq;
  pf b "\nlink";
  bool_f b "uplink_arq" s.Scenario.uplink_arq;
  int_f b "frame_queue" s.Scenario.frame_queue_capacity;
  span_f b "reassembly_timeout" s.Scenario.reassembly_timeout;
  span_f b "resequence_timeout" s.Scenario.resequence_timeout;
  add_tcp b s.Scenario.tcp;
  add_snoop b s.Scenario.snoop;
  pf b "\nfeedback";
  (match s.Scenario.ebsn_pacing with
  | Feedback.Ebsn.Every_attempt -> str_f b "ebsn_pacing" "every_attempt"
  | Feedback.Ebsn.Min_interval i ->
    str_f b "ebsn_pacing" "min_interval";
    span_f b "interval" i);
  (match s.Scenario.quench_trigger with
  | Feedback.Source_quench.On_attempt_failure ->
    str_f b "quench" "on_attempt_failure"
  | Feedback.Source_quench.On_backlog n ->
    str_f b "quench" "on_backlog";
    int_f b "backlog" n);
  span_f b "quench_min_interval" s.Scenario.quench_min_interval;
  pf b "\ncross";
  add_cross b "up" s.Scenario.cross_up;
  add_cross b "down" s.Scenario.cross_down;
  pf b "\nworkload";
  int_f b "file_bytes" s.Scenario.file_bytes;
  int_f b "seed" s.Scenario.seed;
  bool_f b "nstrace" s.Scenario.collect_nstrace;
  span_f b "horizon" s.Scenario.horizon;
  add_faults b
    (match faults with Some p -> Some p | None -> Faults.Plan.default ());
  Buffer.contents b

let key ?faults s = Digest.to_hex (Digest.string (canonical ?faults s))
