open Sim_engine
open Netsim
open Link_arq
open Tcp_tahoe
open Topology

type policy = Plain | Fast_rtx | Fast_rtx_reroute

let policy_name = function
  | Plain -> "plain"
  | Fast_rtx -> "fast-rtx"
  | Fast_rtx_reroute -> "fast-rtx+reroute"

type result = {
  policy : policy;
  throughput_bps : float;
  duration_sec : float;
  source_timeouts : int;
  fast_retransmits : int;
  handoffs : int;
  completed : bool;
}

let fh_addr = Address.make 0
let bs_addr i = Address.make (1 + i)  (* two base stations: 1 and 2 *)
let mh_addr = Address.make 3

(* Attachment state: which base station (0 or 1) currently serves the
   mobile, or none mid-handoff. *)
type attachment = { mutable current : int option }

let run ?(file_bytes = 51_200) ?(residence_sec = 8.0) ?(blackout_sec = 0.5)
    ?(seed = 1) ?cc ~policy () =
  let base = Scenario.wan () in
  let sim = Simulator.create ~seed () in
  let packet_ids = Ids.create () in
  let alloc_id () = Ids.next packet_ids in
  let frame_ids = Ids.create () in
  (* Whole packets on the air: handoffs, not fragmentation, are under
     study here. *)
  let tcp =
    match cc with
    | None -> base.Scenario.tcp
    | Some cc -> { base.Scenario.tcp with Tcp_config.cc }
  in

  let fh = Node.create sim ~name:"fh" ~addr:fh_addr in
  let mh = Node.create sim ~name:"mh" ~addr:mh_addr in
  let attachment = { current = Some 0 } in
  let handoff_count = ref 0 in

  (* Error-free wireless pairs, one per base station. *)
  let wireless_config =
    Wireless_link.
      {
        bandwidth = base.Scenario.wireless.Scenario.raw_bandwidth;
        delay = base.Scenario.wireless.Scenario.delay;
        overhead_factor = base.Scenario.wireless.Scenario.overhead_factor;
        ber = Error_model.Loss.no_errors;
        decision = Error_model.Loss.Threshold;
      }
  in
  let perfect = Error_model.Uniform_channel.perfect () in

  let sink_ref = ref None in
  let mh_handler pkt =
    match pkt.Packet.kind with
    | Packet.Tcp_data { seq; length; _ } -> (
      match !sink_ref with
      | Some sink -> Tcp_sink.handle_data sink ~seq ~length
      | None -> ())
    | Packet.Tcp_ack _ | Packet.Ebsn _ | Packet.Source_quench _ -> ()
  in
  Node.set_local_handler mh mh_handler;

  let cells =
    Array.init 2 (fun i ->
        let bs = Node.create sim ~name:(Printf.sprintf "bs%d" i) ~addr:(bs_addr i) in
        let wired_up =
          Link.create sim
            ~name:(Printf.sprintf "fh->bs%d" i)
            ~bandwidth:base.Scenario.wired.Scenario.bandwidth
            ~delay:base.Scenario.wired.Scenario.delay
            ~queue_capacity:base.Scenario.wired.Scenario.queue_capacity
        in
        let wired_down =
          Link.create sim
            ~name:(Printf.sprintf "bs%d->fh" i)
            ~bandwidth:base.Scenario.wired.Scenario.bandwidth
            ~delay:base.Scenario.wired.Scenario.delay
            ~queue_capacity:base.Scenario.wired.Scenario.queue_capacity
        in
        Link.set_receiver wired_up (Node.receive bs);
        Link.set_receiver wired_down (Node.receive fh);
        let downlink =
          Wireless_link.create sim
            ~name:(Printf.sprintf "bs%d->mh" i)
            ~config:wireless_config
            ~channel_for:(fun _ -> perfect)
            ~queue_capacity:base.Scenario.frame_queue_capacity
        in
        let uplink =
          Wireless_link.create sim
            ~name:(Printf.sprintf "mh->bs%d" i)
            ~config:wireless_config
            ~channel_for:(fun _ -> perfect)
            ~queue_capacity:base.Scenario.frame_queue_capacity
        in
        (* Attachment gates: a frame only reaches its destination if
           the mobile is attached to this cell when it lands. *)
        Wireless_link.set_receiver downlink (fun frame ->
            if attachment.current = Some i then
              match frame.Frame.payload with
              | Frame.Whole pkt -> Node.receive mh pkt
              | Frame.Fragment _ | Frame.Link_ack _ -> ());
        Wireless_link.set_receiver uplink (fun frame ->
            if attachment.current = Some i then
              match frame.Frame.payload with
              | Frame.Whole pkt -> Node.receive bs pkt
              | Frame.Fragment _ | Frame.Link_ack _ -> ());
        (* The cell transmits to the mobile only while it serves it;
           with rerouting, packets that arrive after the mobile left
           are bounced back through the fixed host (triangle routing,
           as a Mobile-IP home agent would), instead of being lost on
           a dead air interface. *)
        Node.add_route bs ~dst:mh_addr ~via:(fun pkt ->
            if attachment.current = Some i || policy <> Fast_rtx_reroute then
              Wireless_link.send downlink
                Frame.{ seq = Ids.next frame_ids; payload = Whole pkt }
            else Link.send wired_down pkt);
        Node.add_route bs ~dst:fh_addr ~via:(Link.send wired_down);
        Node.set_local_handler bs (fun _ -> ());
        (bs, wired_up, uplink))
  in

  (* The fixed host routes to the mobile through whichever cell the
     home agent currently believes serves it (updated at re-attach);
     the mobile transmits through its current cell, or not at all
     mid-blackout. *)
  let registered = ref 0 in
  Node.add_route fh ~dst:mh_addr ~via:(fun pkt ->
      let _, wired_up, _ = cells.(!registered) in
      Link.send wired_up pkt);
  Node.add_route mh ~dst:fh_addr ~via:(fun pkt ->
      match attachment.current with
      | Some i ->
        let _, _, uplink = cells.(i) in
        Wireless_link.send uplink
          Frame.{ seq = Ids.next frame_ids; payload = Whole pkt }
      | None -> ());

  (* Transport. *)
  let sender =
    Tcp_sender.create sim ~config:tcp ~conn:0 ~src:fh_addr ~dst:mh_addr
      ~total_bytes:file_bytes ~alloc_id ~transmit:(Node.send fh)
  in
  let sink =
    Tcp_sink.create sim ~config:tcp ~conn:0 ~addr:mh_addr ~peer:fh_addr
      ~expected_bytes:file_bytes ~alloc_id ~transmit:(Node.send mh)
  in
  sink_ref := Some sink;
  Node.set_local_handler fh (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_ack { ack; sack; _ } ->
        Tcp_sender.handle_ack_sack sender ~ack ~sack
      | Packet.Tcp_data _ | Packet.Ebsn _ | Packet.Source_quench _ -> ());

  (* Mobility: leave the current cell every [residence_sec]; re-attach
     to the other cell [blackout_sec] later.  With [Fast_rtx] the
     mobile then immediately sends three duplicate acks so the source
     fast-retransmits anything lost in flight ([4]). *)
  let rec schedule_handoff from_cell =
    ignore
      (Simulator.schedule_after sim ~delay:(Simtime.span_sec residence_sec)
         (fun () ->
           incr handoff_count;
           attachment.current <- None;
           ignore
             (Simulator.schedule_after sim
                ~delay:(Simtime.span_sec blackout_sec) (fun () ->
                  let target = 1 - from_cell in
                  attachment.current <- Some target;
                  registered := target;
                  (if (policy = Fast_rtx || policy = Fast_rtx_reroute)
                      && not (Tcp_sink.completed sink)
                   then
                     let ack = Tcp_sink.rcv_nxt sink in
                     for _ = 1 to 3 do
                       Node.send mh
                         (Packet.create ~id:(alloc_id ()) ~src:mh_addr
                            ~dst:fh_addr
                            ~kind:(Packet.Tcp_ack { conn = 0; ack; sack = [] })
                            ~header_bytes:tcp.Tcp_config.header_bytes
                            ~created:(Simulator.now sim))
                     done);
                  schedule_handoff target))))
  in
  schedule_handoff 0;

  let start_time = Simulator.now sim in
  Tcp_sink.set_on_complete sink (fun () -> Simulator.stop sim);
  Tcp_sender.start sender;
  Simulator.run ~until:(Simtime.add start_time base.Scenario.horizon) sim;

  let stats = Tcp_sender.stats sender in
  match Tcp_sink.completion_time sink with
  | Some finish ->
    let duration = Simtime.diff finish start_time in
    {
      policy;
      throughput_bps =
        Bulk_app.throughput_bps ~config:tcp ~file_bytes ~duration;
      duration_sec = Simtime.span_to_sec duration;
      source_timeouts = stats.Tcp_stats.timeouts;
      fast_retransmits = stats.Tcp_stats.fast_retransmits;
      handoffs = !handoff_count;
      completed = true;
    }
  | None ->
    {
      policy;
      throughput_bps = 0.0;
      duration_sec = Float.infinity;
      source_timeouts = stats.Tcp_stats.timeouts;
      fast_retransmits = stats.Tcp_stats.fast_retransmits;
      handoffs = !handoff_count;
      completed = false;
    }

let render ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(jobs = 1) ?cc () =
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let variants =
    [
      (Plain, 0.1); (Fast_rtx, 0.1); (Fast_rtx_reroute, 0.1);
      (Plain, 0.5); (Fast_rtx, 0.5); (Fast_rtx_reroute, 0.5);
      (Plain, 1.0); (Fast_rtx, 1.0); (Fast_rtx_reroute, 1.0);
    ]
  in
  (* One flat (variant × seed) fan-out over the shared domain pool;
     the grouping below only reads indices, so the table is identical
     at any [jobs]. *)
  let seeds_arr = Array.of_list seeds in
  let n_seeds = Array.length seeds_arr in
  let variants_arr = Array.of_list variants in
  let results =
    Sim_engine.Parallel.map_array ~jobs
      (fun i ->
        let policy, blackout = variants_arr.(i / n_seeds) in
        run ?cc ~seed:seeds_arr.(i mod n_seeds) ~blackout_sec:blackout ~policy
          ())
      (Array.init (Array.length variants_arr * n_seeds) Fun.id)
  in
  let row v (policy, blackout) =
    let results =
      List.init n_seeds (fun s -> results.((v * n_seeds) + s))
    in
    [
      Printf.sprintf "%s blackout=%.1fs" (policy_name policy) blackout;
      Report.kbps (mean (List.map (fun r -> r.throughput_bps) results));
      Report.fixed 1
        (mean (List.map (fun r -> float_of_int r.source_timeouts) results));
      Report.fixed 1
        (mean (List.map (fun r -> float_of_int r.fast_retransmits) results));
      Report.fixed 1
        (mean (List.map (fun r -> float_of_int r.handoffs) results));
    ]
  in
  String.concat "\n"
    [
      Report.heading
        "Handoff extension — plain TCP vs fast retransmit on re-attach \
         ([4]/[17])";
      Report.table
        ~columns:
          [ "variant"; "tput kbps"; "timeouts"; "fast retx"; "handoffs" ]
        ~rows:(List.mapi row variants);
      Report.note
        "error-free channels: every loss comes from a handoff; the paper \
         defers this scenario to its companion study [17], which follows \
         Caceres & Iftode's fast-retransmit-on-handoff [4]";
    ]
