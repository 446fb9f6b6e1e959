open Sim_engine
open Netsim
open Link_arq
open Tcp_tahoe

type outcome = {
  scenario : Scenario.t;
  completed : bool;
  result : Bulk_app.result option;
  sender_stats : Tcp_stats.t;
  sink_stats : Tcp_sink.stats;
  arq_stats : Arq.stats option;
  downlink_stats : Wireless_link.stats;
  uplink_stats : Wireless_link.stats;
  mh_reassembly : Reassembly.stats;
  bs_reassembly : Reassembly.stats;
  snoop_stats : Agents.Snoop.stats option;
  ebsn_sent : int;
  quench_sent : int;
  nstrace : string option;
  obs_trace : string option;
  obs_metrics : string option;
  end_time : Simtime.t;
  events_executed : int;
  queue_stats : Event_queue.stats;
  timer_stats : Soft_timer.counters;
      (* TCP retransmission timer + every ARQ entry timer, summed *)
  fault : Simulator.fault_report option;
  fault_events : Error_model.Fault.event list;
}

let fh_addr = Address.make 0
let bs_addr = Address.make 1
let mh_addr = Address.make 2

let build_channel sim (w : Scenario.wireless) =
  match w.Scenario.error_mode with
  | Scenario.Deterministic ->
    Error_model.Deterministic_channel.create ~good:w.Scenario.mean_good
      ~bad:w.Scenario.mean_bad
  | Scenario.Replay periods -> Error_model.Trace_channel.create periods
  | Scenario.Markov ->
    Error_model.Gilbert_elliott.create
      ~rng:(Rng.split (Simulator.rng sim))
      ~mean_good:w.Scenario.mean_good ~mean_bad:w.Scenario.mean_bad

let run ?obs ?faults (scenario : Scenario.t) =
  let open Scenario in
  let sim = Simulator.create ~seed:scenario.seed () in
  let faults_plan =
    match faults with Some _ as p -> p | None -> Faults.Plan.default ()
  in
  let packet_ids = Ids.create () in
  let alloc_id () = Ids.next packet_ids in
  let frame_ids = Ids.create () in
  let obs_cfg =
    match obs with Some cfg -> cfg | None -> Obs.Config.default ()
  in
  let obs_trace =
    if obs_cfg.Obs.Config.trace then Obs.Trace.create () else Obs.Trace.disabled
  in
  let registry =
    if obs_cfg.Obs.Config.metrics then Obs.Registry.create ()
    else Obs.Registry.disabled
  in

  (* Channel: one state process shared by both wireless directions, so
     acks die in the same fades as data (paper §4.2.1). *)
  let channel = build_channel sim scenario.wireless in
  let decision =
    match scenario.wireless.error_mode with
    | Deterministic | Replay _ -> Error_model.Loss.Threshold
    | Markov -> Error_model.Loss.Stochastic (Rng.split (Simulator.rng sim))
  in
  let wireless_config =
    Wireless_link.
      {
        bandwidth = scenario.wireless.raw_bandwidth;
        delay = scenario.wireless.delay;
        overhead_factor = scenario.wireless.overhead_factor;
        ber = scenario.wireless.ber;
        decision;
      }
  in
  let downlink =
    Wireless_link.create sim ~name:"bs->mh" ~config:wireless_config
      ~channel_for:(fun _ -> channel)
      ~queue_capacity:scenario.frame_queue_capacity
  in
  let uplink =
    Wireless_link.create sim ~name:"mh->bs" ~config:wireless_config
      ~channel_for:(fun _ -> channel)
      ~queue_capacity:scenario.frame_queue_capacity
  in

  (* Nodes and wired links. *)
  let fh = Node.create sim ~name:"fh" ~addr:fh_addr in
  let bs = Node.create sim ~name:"bs" ~addr:bs_addr in
  let mh = Node.create sim ~name:"mh" ~addr:mh_addr in
  let wired_up =
    Link.create sim ~name:"fh->bs" ~bandwidth:scenario.wired.bandwidth
      ~delay:scenario.wired.delay ~queue_capacity:scenario.wired.queue_capacity
  in
  let wired_down =
    Link.create sim ~name:"bs->fh" ~bandwidth:scenario.wired.bandwidth
      ~delay:scenario.wired.delay ~queue_capacity:scenario.wired.queue_capacity
  in
  Link.set_receiver wired_up (Node.receive bs);
  Link.set_receiver wired_down (Node.receive fh);

  (* Optional NS-style per-link event trace. *)
  let nstrace =
    if scenario.collect_nstrace then begin
      let trace = Metrics.Nstrace.create sim in
      Link.set_monitor wired_up
        (Metrics.Nstrace.wired_monitor trace ~link:"fh->bs");
      Link.set_monitor wired_down
        (Metrics.Nstrace.wired_monitor trace ~link:"bs->fh");
      Wireless_link.set_monitor downlink
        (Metrics.Nstrace.wireless_monitor trace ~link:"bs->mh");
      Wireless_link.set_monitor uplink
        (Metrics.Nstrace.wireless_monitor trace ~link:"mh->bs");
      Some trace
    end
    else None
  in

  (* Recovery machinery. *)
  let use_arq =
    match scenario.scheme with
    | Local_recovery | Ebsn | Quench -> true
    | Basic | Snoop | Split -> false
  in
  let downlink_arq =
    if use_arq then
      Some
        (Arq.create sim
           ~rng:(Rng.split (Simulator.rng sim))
           ~config:scenario.arq ~link:downlink)
    else None
  in
  let uplink_arq =
    if use_arq && scenario.uplink_arq then
      Some
        (Arq.create sim
           ~rng:(Rng.split (Simulator.rng sim))
           ~config:scenario.arq ~link:uplink)
    else None
  in
  Wireless_link.set_trace downlink obs_trace;
  Wireless_link.set_trace uplink obs_trace;
  Option.iter
    (fun arq -> Arq.set_obs arq ~trace:obs_trace ~metrics:registry)
    downlink_arq;
  Option.iter
    (fun arq -> Arq.set_obs arq ~trace:obs_trace ~metrics:registry)
    uplink_arq;

  (* Per packet: a loop over the fragment indices, so no payload list
     or iterator closure is built. *)
  let send_frames link arq pkt =
    let count =
      match scenario.wireless.mtu with
      | Some mtu -> Fragmenter.fragment_count ~mtu pkt
      | None -> 1
    in
    for index = 0 to count - 1 do
      let payload =
        match scenario.wireless.mtu with
        | Some mtu -> Fragmenter.nth ~mtu pkt ~count index
        | None -> Frame.Whole pkt
      in
      match arq with
      | Some arq -> ignore (Arq.send arq ~conn:(Packet.conn pkt) payload)
      | None ->
        Wireless_link.send link Frame.{ seq = Ids.next frame_ids; payload }
    done
  in
  let downlink_send pkt = send_frames downlink downlink_arq pkt in
  let uplink_send pkt = send_frames uplink uplink_arq pkt in

  (* Reassembly at both wireless endpoints. *)
  let mh_reasm =
    Reassembly.create sim ~timeout:scenario.reassembly_timeout
      ~deliver:(Node.receive mh)
  in
  let bs_reasm =
    Reassembly.create sim ~timeout:scenario.reassembly_timeout
      ~deliver:(Node.receive bs)
  in
  let deliver_at_mh = function
    | (Frame.Whole pkt | Frame.Fragment { packet = pkt; _ }) as payload ->
      ignore pkt;
      Reassembly.receive mh_reasm payload
    | Frame.Link_ack _ -> ()
  in
  let deliver_at_bs = function
    | (Frame.Whole _ | Frame.Fragment _) as payload ->
      Reassembly.receive bs_reasm payload
    | Frame.Link_ack _ -> ()
  in
  let send_link_ack link ~acked_seq =
    Wireless_link.send link
      Frame.{ seq = Ids.next frame_ids; payload = Link_ack { acked_seq } }
  in
  let resequence =
    Some
      Arq_receiver.{ hole_timeout = scenario.resequence_timeout }
  in
  let mh_receiver =
    Arq_receiver.create sim
      ?send_ack:
        (match downlink_arq with
        | Some _ -> Some (fun ~acked_seq -> send_link_ack uplink ~acked_seq)
        | None -> None)
      ?on_link_ack:
        (Option.map
           (fun arq ~acked_seq -> Arq.handle_link_ack arq ~acked_seq)
           uplink_arq)
      ?resequence:
        (match downlink_arq with Some _ -> resequence | None -> None)
      ~deliver:deliver_at_mh ()
  in
  let bs_receiver =
    Arq_receiver.create sim
      ?send_ack:
        (match uplink_arq with
        | Some _ -> Some (fun ~acked_seq -> send_link_ack downlink ~acked_seq)
        | None -> None)
      ?on_link_ack:
        (Option.map
           (fun arq ~acked_seq -> Arq.handle_link_ack arq ~acked_seq)
           downlink_arq)
      ?resequence:
        (match uplink_arq with Some _ -> resequence | None -> None)
      ~deliver:deliver_at_bs ()
  in
  Wireless_link.set_receiver downlink (Arq_receiver.receive mh_receiver);
  Wireless_link.set_receiver uplink (Arq_receiver.receive bs_receiver);

  (* Routing. *)
  Node.add_route fh ~dst:mh_addr ~via:(Link.send wired_up);
  Node.add_route fh ~dst:bs_addr ~via:(Link.send wired_up);
  Node.add_route bs ~dst:fh_addr ~via:(Link.send wired_down);
  Node.add_route bs ~dst:mh_addr ~via:downlink_send;
  Node.add_route mh ~dst:fh_addr ~via:uplink_send;
  Node.add_route mh ~dst:bs_addr ~via:uplink_send;

  (* Transport endpoints. *)
  let conn = 0 in
  let sender =
    Tcp_sender.create sim ~config:scenario.tcp ~conn ~src:fh_addr
      ~dst:mh_addr ~total_bytes:scenario.file_bytes ~alloc_id
      ~transmit:(Node.send fh)
  in
  let sink_peer =
    match scenario.scheme with Split -> bs_addr | _ -> fh_addr
  in
  let sink =
    Tcp_sink.create sim ~config:scenario.tcp ~conn ~addr:mh_addr
      ~peer:sink_peer ~expected_bytes:scenario.file_bytes ~alloc_id
      ~transmit:(Node.send mh)
  in
  Tcp_sender.set_obs sender ~trace:obs_trace ~metrics:registry;
  if obs_cfg.Obs.Config.check then begin
    Simulator.set_checked sim true;
    Simulator.add_invariant sim (fun () ->
        Tcp_sender.check_invariants sender);
    Simulator.add_invariant sim (fun () ->
        Wireless_link.check_invariants downlink);
    Simulator.add_invariant sim (fun () ->
        Wireless_link.check_invariants uplink);
    Option.iter
      (fun arq ->
        Simulator.add_invariant sim (fun () -> Arq.check_invariants arq))
      downlink_arq;
    Option.iter
      (fun arq ->
        Simulator.add_invariant sim (fun () -> Arq.check_invariants arq))
      uplink_arq
  end;

  (* Agents. *)
  let snoop =
    match scenario.scheme with
    | Snoop ->
      Some
        (Agents.Snoop.create sim ~config:scenario.snoop ~mobile:mh_addr
           ~send_downlink:downlink_send)
    | Basic | Local_recovery | Ebsn | Quench | Split -> None
  in
  let split =
    match scenario.scheme with
    | Split ->
      Some
        (Agents.Split_conn.create sim ~wired_config:scenario.tcp
           ~wireless_config:scenario.tcp ~conn ~fixed:fh_addr ~bs:bs_addr
           ~mobile:mh_addr ~file_bytes:scenario.file_bytes ~alloc_id
           ~send_wired:(Link.send wired_down) ~send_downlink:downlink_send)
    | Basic | Local_recovery | Ebsn | Quench | Snoop -> None
  in
  (match snoop with
  | Some agent -> Node.set_forward_hook bs (Agents.Snoop.on_forward agent)
  | None -> ());
  (match split with
  | Some relay -> Node.set_forward_hook bs (Agents.Split_conn.on_forward relay)
  | None -> ());

  (* Feedback gates (created unconditionally so the fault injector can
     reset them on a BS crash; allocation only, no events or draws). *)
  let ebsn_gate = Feedback.Ebsn.gate ~trace:obs_trace scenario.ebsn_pacing in
  let quench_gate =
    Feedback.Source_quench.gate scenario.quench_trigger
      ~min_interval:scenario.quench_min_interval
  in

  (* Fault injection.  The injector owns no model state: it drives the
     stack through these closures, and draws no randomness, so the
     empty plan leaves the event stream byte-identical to a plain
     run. *)
  let injector =
    match faults_plan with
    | None -> None
    | Some plan ->
      let links_of = function
        | Faults.Plan.Down -> [ downlink ]
        | Faults.Plan.Up -> [ uplink ]
        | Faults.Plan.Both -> [ downlink; uplink ]
      in
      let hooks =
        {
          Faults.Injector.set_blackout =
            (fun target on ->
              List.iter
                (fun l -> Wireless_link.set_blackout l on)
                (links_of target));
          crash_bs =
            (fun () ->
              let arq_dropped =
                match downlink_arq with Some a -> Arq.crash a | None -> 0
              in
              let partials = Reassembly.crash bs_reasm in
              Feedback.Ebsn.reset ebsn_gate;
              Printf.sprintf
                "dropped %d arq frames and %d reassembly partials; feedback \
                 pacing reset"
                arq_dropped partials);
          set_queue_squeeze =
            (fun target on ->
              let apply l =
                let before = Wireless_link.queue_capacity l in
                let cap = if on then 1 else scenario.frame_queue_capacity in
                Wireless_link.set_queue_capacity l cap;
                Printf.sprintf "%s capacity %d->%d" (Wireless_link.name l)
                  before cap
              in
              String.concat "; " (List.map apply (links_of target)));
        }
      in
      Some (Faults.Injector.install sim ~plan ~hooks)
  in
  (* Feedback from the base station. *)
  let ebsn_sent = ref 0 and quench_sent = ref 0 in
  (* A notification the BS believes it sent can be lost, duplicated or
     delayed by the fault plan; the sent counter and pacing state
     update regardless, exactly as a real BS would behave.  [make] is
     [Ebsn.make] or [Source_quench.make]; each packet takes its id when
     it is sent, so a dropped notification consumes none. *)
  let notify make ~dst ~conn =
    Node.send bs
      (make ~alloc_id ~src:bs_addr ~dst ~conn ~now:(Simulator.now sim))
  in
  let send_notification make ~dst ~conn =
    match injector with
    | None -> notify make ~dst ~conn
    | Some inj -> (
      match Faults.Injector.notification_verdict inj with
      | Faults.Injector.Deliver -> notify make ~dst ~conn
      | Faults.Injector.Drop -> ()
      | Faults.Injector.Duplicate ->
        notify make ~dst ~conn;
        notify make ~dst ~conn
      | Faults.Injector.Delay delay ->
        ignore
          (Simulator.schedule_after sim ~delay (fun () ->
               notify make ~dst ~conn)))
  in
  let on_failed_attempt pkt =
    let conn = Packet.conn pkt in
    let now = Simulator.now sim in
    match scenario.scheme with
    | Ebsn ->
      if Feedback.Ebsn.admit ebsn_gate ~conn ~now then begin
        incr ebsn_sent;
        send_notification Feedback.Ebsn.make ~dst:pkt.Packet.src ~conn;
        Feedback.Ebsn.record ebsn_gate ~conn ~now
      end
    | Quench ->
      if Feedback.Source_quench.admit_failure quench_gate ~conn ~now then begin
        incr quench_sent;
        send_notification Feedback.Source_quench.make ~dst:pkt.Packet.src ~conn
      end
    | Basic | Local_recovery | Snoop | Split -> ()
  in
  (match downlink_arq with
  | None -> ()
  | Some arq ->
    Arq.set_on_attempt_failure arq (fun frame ~attempt:_ ->
        match frame.Frame.payload with
        | (Frame.Whole pkt | Frame.Fragment { packet = pkt; _ })
          when Packet.is_data pkt ->
          on_failed_attempt pkt
        | Frame.Whole _ | Frame.Fragment _ | Frame.Link_ack _ -> ()));

  (* Local protocol handlers. *)
  Node.set_local_handler fh (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_ack { ack; sack; _ } ->
        Tcp_sender.handle_ack_sack sender ~ack ~sack
      | Packet.Ebsn _ -> Tcp_sender.handle_ebsn sender
      | Packet.Source_quench _ -> Tcp_sender.handle_quench sender
      | Packet.Tcp_data _ -> ());
  Node.set_local_handler mh (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_data { seq; length; _ } ->
        Tcp_sink.handle_data sink ~seq ~length
      | Packet.Tcp_ack _ | Packet.Ebsn _ | Packet.Source_quench _ -> ());
  Node.set_local_handler bs (fun pkt ->
      match pkt.Packet.kind, split with
      | Packet.Tcp_ack { ack; sack; _ }, Some relay ->
        Agents.Split_conn.handle_wireless_ack relay ~ack ~sack
      | _, _ -> ());

  (* Background wired-network load (the §6 congestion study). *)
  let start_cross pattern ~src ~dst ~conn ~link =
    Option.map
      (fun pattern ->
        Cross_traffic.start sim
          ~rng:(Rng.split (Simulator.rng sim))
          ~pattern ~src ~dst ~conn ~alloc_id ~send:(Link.send link))
      pattern
  in
  let _cross_up =
    start_cross scenario.cross_up ~src:fh_addr ~dst:bs_addr ~conn:9001
      ~link:wired_up
  in
  let _cross_down =
    start_cross scenario.cross_down ~src:bs_addr ~dst:fh_addr ~conn:9002
      ~link:wired_down
  in

  (* Run. *)
  Tcp_sink.set_on_complete sink (fun () -> Simulator.stop sim);
  let start_time = Simulator.now sim in
  Tcp_sender.start sender;
  let fault =
    try
      Simulator.run ~until:(Simtime.add start_time scenario.horizon) sim;
      None
    with Simulator.Fault report ->
      (* Under fault injection a failing component yields a partial
         outcome carrying the report.  Without it, callers (tests, the
         obs mutation canary) expect the original exception — e.g. an
         [Obs.Invariant.Violation] — so unwrap and re-raise it.

         An exhausted event budget is the exception to the exception:
         a deadline is a supervisor-level condition, not a component
         fault, so it must reach the caller even under injection —
         otherwise a chaos campaign could never distinguish "cell hit
         its deadline" from "cell degraded gracefully". *)
      (match report.Simulator.error with
      | Simulator.Budget_exhausted _ ->
        Printexc.raise_with_backtrace report.Simulator.error
          report.Simulator.backtrace
      | _ -> ());
      if Option.is_some injector then Some report
      else
        Printexc.raise_with_backtrace report.Simulator.error
          report.Simulator.backtrace
  in
  let completed = Tcp_sink.completed sink in
  let result =
    if completed then
      Some
        (Bulk_app.result ~config:scenario.tcp ~sender ~sink
           ~file_bytes:scenario.file_bytes ~start_time)
    else None
  in
  (* Fold the run's final counters into the registry, so the metrics
     output carries both histograms (sampled live) and totals. *)
  let obs_metrics =
    if not (Obs.Registry.enabled registry) then None
    else begin
      let c name v = Obs.Registry.add (Obs.Registry.counter registry name) v in
      let qs = Simulator.queue_stats sim in
      c "engine.events_executed" (Simulator.events_executed sim);
      c "engine.queue.adds" qs.Event_queue.adds;
      c "engine.queue.pops" qs.Event_queue.pops;
      c "engine.queue.cancels" qs.Event_queue.cancels;
      c "engine.queue.max_size" qs.Event_queue.max_size;
      c "engine.queue.recycled" qs.Event_queue.recycled;
      (* Soft-timer churn: the TCP retransmission timer plus every ARQ
         entry timer, so cancel-fusion efficacy is visible per run. *)
      let timers name (tc : Soft_timer.counters) =
        c (name ^ ".arms") tc.Soft_timer.arms;
        c (name ^ ".fuses") tc.Soft_timer.fuses;
        c (name ^ ".lazy_cancels") tc.Soft_timer.lazy_cancels;
        c (name ^ ".fires") tc.Soft_timer.fires;
        c (name ^ ".stale_fires") tc.Soft_timer.stale_fires;
        c (name ^ ".chases") tc.Soft_timer.chases
      in
      timers "tcp.timer" (Tcp_sender.timer_counters sender);
      Option.iter
        (fun arq -> timers "arq.down.timer" (Arq.timer_counters arq))
        downlink_arq;
      Option.iter
        (fun arq -> timers "arq.up.timer" (Arq.timer_counters arq))
        uplink_arq;
      let st = Tcp_sender.stats sender in
      c "tcp.packets_sent" st.Tcp_stats.packets_sent;
      c "tcp.bytes_sent" st.Tcp_stats.bytes_sent;
      c "tcp.packets_retransmitted" st.Tcp_stats.packets_retransmitted;
      c "tcp.bytes_retransmitted" st.Tcp_stats.bytes_retransmitted;
      c "tcp.acks_received" st.Tcp_stats.acks_received;
      c "tcp.dupacks_received" st.Tcp_stats.dupacks_received;
      c "tcp.timeouts" st.Tcp_stats.timeouts;
      c "tcp.fast_retransmits" st.Tcp_stats.fast_retransmits;
      c "tcp.rtt_samples" st.Tcp_stats.rtt_samples;
      c "tcp.ebsns_received" st.Tcp_stats.ebsns_received;
      c "tcp.quenches_received" st.Tcp_stats.quenches_received;
      (* Congestion-control variant metrics, namespaced by variant so
         a sweep over variants never aliases one name to two
         meanings. *)
      let g name v = Obs.Registry.set (Obs.Registry.gauge registry name) v in
      let cc_prefix = "tcp.cc." ^ Tcp_sender.cc_name sender in
      g (cc_prefix ^ ".cwnd_bytes")
        (float_of_int (Tcp_sender.cwnd_bytes sender));
      g (cc_prefix ^ ".ssthresh_bytes")
        (float_of_int (Tcp_sender.ssthresh_bytes sender));
      c (cc_prefix ^ ".recovery_entries") (Tcp_sender.recovery_entries sender);
      List.iter
        (fun (name, v) -> g (cc_prefix ^ "." ^ name) v)
        (Tcp_sender.cc_diag sender);
      let link prefix (ls : Wireless_link.stats) =
        c (prefix ^ ".frames_sent") ls.Wireless_link.frames_sent;
        c (prefix ^ ".air_bytes") ls.Wireless_link.air_bytes;
        c (prefix ^ ".frames_lost") ls.Wireless_link.frames_lost;
        c (prefix ^ ".frames_delivered") ls.Wireless_link.frames_delivered;
        c (prefix ^ ".drops") ls.Wireless_link.drops;
        c (prefix ^ ".frames_blackholed") ls.Wireless_link.frames_blackholed
      in
      link "link.down" (Wireless_link.stats downlink);
      link "link.up" (Wireless_link.stats uplink);
      let arq prefix a =
        let s = Arq.stats a in
        c (prefix ^ ".transmissions") s.Arq.transmissions;
        c (prefix ^ ".retransmissions") s.Arq.retransmissions;
        c (prefix ^ ".completions") s.Arq.completions;
        c (prefix ^ ".discards") s.Arq.discards;
        c (prefix ^ ".attempt_failures") s.Arq.attempt_failures;
        c (prefix ^ ".spurious_acks") s.Arq.spurious_acks;
        c (prefix ^ ".sched_drops") s.Arq.sched_drops;
        c (prefix ^ ".crashes") s.Arq.crashes;
        c (prefix ^ ".crash_dropped") s.Arq.crash_dropped
      in
      Option.iter (arq "arq.down") downlink_arq;
      Option.iter (arq "arq.up") uplink_arq;
      c "feedback.ebsn_sent" !ebsn_sent;
      c "feedback.quench_sent" !quench_sent;
      Some (Obs.Registry.to_jsonl registry)
    end
  in
  {
    scenario;
    completed;
    result;
    sender_stats = Tcp_sender.stats sender;
    sink_stats = Tcp_sink.stats sink;
    arq_stats = Option.map Arq.stats downlink_arq;
    downlink_stats = Wireless_link.stats downlink;
    uplink_stats = Wireless_link.stats uplink;
    mh_reassembly = Reassembly.stats mh_reasm;
    bs_reassembly = Reassembly.stats bs_reasm;
    snoop_stats = Option.map Agents.Snoop.stats snoop;
    ebsn_sent = !ebsn_sent;
    quench_sent = !quench_sent;
    nstrace = Option.map Metrics.Nstrace.to_string nstrace;
    obs_trace = Obs.Trace.contents obs_trace;
    obs_metrics;
    end_time = Simulator.now sim;
    events_executed = Simulator.events_executed sim;
    queue_stats = Simulator.queue_stats sim;
    timer_stats =
      (let total = Soft_timer.create_counters () in
       let absorb (c : Soft_timer.counters) =
         total.Soft_timer.arms <- total.Soft_timer.arms + c.Soft_timer.arms;
         total.Soft_timer.fuses <- total.Soft_timer.fuses + c.Soft_timer.fuses;
         total.Soft_timer.lazy_cancels <-
           total.Soft_timer.lazy_cancels + c.Soft_timer.lazy_cancels;
         total.Soft_timer.fires <- total.Soft_timer.fires + c.Soft_timer.fires;
         total.Soft_timer.stale_fires <-
           total.Soft_timer.stale_fires + c.Soft_timer.stale_fires;
         total.Soft_timer.chases <- total.Soft_timer.chases + c.Soft_timer.chases
       in
       absorb (Tcp_sender.timer_counters sender);
       Option.iter (fun arq -> absorb (Arq.timer_counters arq)) downlink_arq;
       Option.iter (fun arq -> absorb (Arq.timer_counters arq)) uplink_arq;
       total);
    fault;
    fault_events =
      (match injector with
      | Some inj -> Faults.Injector.events inj
      | None -> []);
  }

let throughput_bps outcome =
  match outcome.result with
  | Some r -> r.Bulk_app.throughput_bps
  | None -> 0.0

let goodput outcome =
  match outcome.result with Some r -> r.Bulk_app.goodput | None -> 0.0

let retransmitted_kbytes outcome =
  float_of_int outcome.sender_stats.Tcp_stats.bytes_retransmitted /. 1024.0

let source_timeouts outcome = outcome.sender_stats.Tcp_stats.timeouts
