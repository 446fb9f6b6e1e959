(* Building a scenario from the substrate directly, without the
   Scenario/Wiring presets: a two-hop wired backbone feeding a base
   station, a satellite-grade bursty wireless hop, and a hand-wired
   TCP connection.  Demonstrates the public API a downstream user
   composes: Simulator, Node, Link, Wireless_link, Channel, Fragmenter,
   Reassembly, Tcp_sender, Tcp_sink.

     dune exec examples/custom_topology.exe *)

open Core

let () =
  let sim = Simulator.create ~seed:11 () in
  let ids = Ids.create () in
  let alloc_id () = Ids.next ids in
  let frame_ids = Ids.create () in

  (* Addresses: server -- router -- base station -- mobile. *)
  let server = Address.make 0
  and router = Address.make 1
  and base = Address.make 2
  and mobile = Address.make 3 in

  (* Nodes. *)
  let n_server = Node.create sim ~name:"server" ~addr:server in
  let n_router = Node.create sim ~name:"router" ~addr:router in
  let n_base = Node.create sim ~name:"base" ~addr:base in
  let n_mobile = Node.create sim ~name:"mobile" ~addr:mobile in

  (* Wired hops: a fast LAN link then a slower leased line. *)
  let wire name bw delay_ms rx =
    let l =
      Link.create sim ~name ~bandwidth:bw ~delay:(Simtime.span_ms delay_ms)
        ~queue_capacity:128
    in
    Link.set_receiver l rx;
    l
  in
  let up1 = wire "server->router" (Units.mbps 10.0) 2 (Node.receive n_router) in
  let up2 = wire "router->base" (Units.kbps 512.0) 15 (Node.receive n_base) in
  let down2 = wire "base->router" (Units.kbps 512.0) 15 (Node.receive n_router) in
  let down1 = wire "router->server" (Units.mbps 10.0) 2 (Node.receive n_server) in

  (* The wireless hop: 64 kbps raw with heavy burst errors, 256-byte
     MTU, shared channel state for both directions. *)
  let channel =
    Gilbert_elliott.create
      ~rng:(Rng.split (Simulator.rng sim))
      ~mean_good:(Simtime.span_sec 6.0) ~mean_bad:(Simtime.span_sec 1.5)
  in
  let wcfg =
    Wireless_link.
      {
        bandwidth = Units.kbps 64.0;
        delay = Simtime.span_ms 10;
        overhead_factor = 1.25;
        ber = Loss.paper_ber;
        decision = Loss.Stochastic (Rng.split (Simulator.rng sim));
      }
  in
  let downlink =
    Wireless_link.create sim ~name:"base->mobile" ~config:wcfg
      ~channel_for:(fun _ -> channel) ~queue_capacity:256
  in
  let uplink =
    Wireless_link.create sim ~name:"mobile->base" ~config:wcfg
      ~channel_for:(fun _ -> channel) ~queue_capacity:256
  in

  (* Link-level local recovery with EBSN on the downlink. *)
  let arq =
    Arq.create sim
      ~rng:(Rng.split (Simulator.rng sim))
      ~config:
        {
          Arq.default_config with
          Arq.backoff =
            Backoff.Binary_exponential
              { base = Simtime.span_ms 60; cap = Simtime.span_sec 1.0 };
        }
      ~link:downlink
  in
  let mtu = 256 in
  let downlink_send pkt =
    List.iter
      (fun payload -> ignore (Arq.send arq ~conn:(Packet.conn pkt) payload))
      (Fragmenter.split ~mtu pkt)
  in
  let uplink_send pkt =
    List.iter
      (fun payload ->
        Wireless_link.send uplink Frame.{ seq = Ids.next frame_ids; payload })
      (Fragmenter.split ~mtu pkt)
  in

  (* Receivers: resequencing + reassembly at the mobile, plain
     reassembly at the base for the ack path. *)
  let mobile_reasm =
    Reassembly.create sim ~timeout:(Simtime.span_sec 30.0)
      ~deliver:(Node.receive n_mobile)
  in
  let mobile_rx =
    Arq_receiver.create sim
      ~send_ack:(fun ~acked_seq ->
        Wireless_link.send uplink
          Frame.{ seq = Ids.next frame_ids; payload = Link_ack { acked_seq } })
      ~resequence:{ Arq_receiver.hole_timeout = Simtime.span_sec 1.5 }
      ~deliver:(function
        | (Frame.Whole _ | Frame.Fragment _) as payload ->
          Reassembly.receive mobile_reasm payload
        | Frame.Link_ack _ -> ())
      ()
  in
  let base_reasm =
    Reassembly.create sim ~timeout:(Simtime.span_sec 30.0)
      ~deliver:(Node.receive n_base)
  in
  let base_rx =
    Arq_receiver.create sim
      ~on_link_ack:(fun ~acked_seq -> Arq.handle_link_ack arq ~acked_seq)
      ~deliver:(function
        | (Frame.Whole _ | Frame.Fragment _) as payload ->
          Reassembly.receive base_reasm payload
        | Frame.Link_ack _ -> ())
      ()
  in
  Wireless_link.set_receiver downlink (Arq_receiver.receive mobile_rx);
  Wireless_link.set_receiver uplink (Arq_receiver.receive base_rx);

  (* Static routing along the chain. *)
  Node.add_route n_server ~dst:mobile ~via:(Link.send up1);
  Node.add_route n_router ~dst:mobile ~via:(Link.send up2);
  Node.add_route n_base ~dst:mobile ~via:downlink_send;
  Node.add_route n_mobile ~dst:server ~via:uplink_send;
  Node.add_route n_base ~dst:server ~via:(Link.send down2);
  Node.add_route n_router ~dst:server ~via:(Link.send down1);

  (* EBSN from the base station back to the server. *)
  let ebsn_count = ref 0 in
  Arq.set_on_attempt_failure arq (fun frame ~attempt:_ ->
      match Frame.packet frame with
      | Some pkt when Packet.is_data pkt ->
        incr ebsn_count;
        Node.send n_base
          (Ebsn.make ~alloc_id ~src:base ~dst:pkt.Packet.src
             ~conn:(Packet.conn pkt) ~now:(Simulator.now sim))
      | Some _ | None -> ());

  (* Transport: a 200 KB transfer. *)
  let file_bytes = 204_800 in
  let tcp = Tcp_config.with_packet_size Tcp_config.default 576 in
  let sender =
    Tcp_sender.create sim ~config:tcp ~conn:0 ~src:server ~dst:mobile
      ~total_bytes:file_bytes ~alloc_id ~transmit:(Node.send n_server)
  in
  let sink =
    Tcp_sink.create sim ~config:tcp ~conn:0 ~addr:mobile ~peer:server
      ~expected_bytes:file_bytes ~alloc_id ~transmit:(Node.send n_mobile)
  in
  Node.set_local_handler n_server (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_ack { ack; _ } -> Tcp_sender.handle_ack sender ~ack
      | Packet.Ebsn _ -> Tcp_sender.handle_ebsn sender
      | Packet.Source_quench _ -> Tcp_sender.handle_quench sender
      | Packet.Tcp_data _ -> ());
  Node.set_local_handler n_mobile (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_data { seq; length; _ } ->
        Tcp_sink.handle_data sink ~seq ~length
      | Packet.Tcp_ack _ | Packet.Ebsn _ | Packet.Source_quench _ -> ());
  Node.set_local_handler n_router (fun _ -> ());
  Node.set_local_handler n_base (fun _ -> ());

  let start = Simulator.now sim in
  Tcp_sink.set_on_complete sink (fun () -> Simulator.stop sim);
  Tcp_sender.start sender;
  Simulator.run ~until:(Simtime.add start (Simtime.span_sec 600.0)) sim;

  match Tcp_sink.completion_time sink with
  | None -> print_endline "transfer did not complete within 600 s"
  | Some finish ->
    let result =
      Bulk_app.result ~config:tcp ~sender ~sink ~file_bytes ~start_time:start
    in
    Printf.printf
      "transferred %d bytes in %.1f s: %.2f kbit/s, goodput %.3f\n" file_bytes
      (Simtime.span_to_sec (Simtime.diff finish start))
      (result.Bulk_app.throughput_bps /. 1e3)
      result.Bulk_app.goodput;
    Printf.printf "EBSNs generated by the base station: %d\n" !ebsn_count;
    Printf.printf "source timeouts: %d\n"
      result.Bulk_app.sender_stats.Tcp_stats.timeouts
