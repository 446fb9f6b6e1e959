open Sim_engine
open Netsim
open Link_arq
open Tcp_tahoe
open Topology

type conn_result = {
  conn : int;
  throughput_bps : float;
  duration_sec : float;
  completed : bool;
}

type result = {
  policy : Sched.policy;
  per_conn : conn_result list;
  aggregate_bps : float;
}

let fh_addr = Address.make 0
let bs_addr = Address.make 1
let mh_addr i = Address.make (2 + i)

let run ?(n_conns = 2) ?(file_bytes = 51_200) ?(seed = 1) ~policy () =
  if n_conns < 1 then invalid_arg "Csdp.run: need at least one connection";
  let base = Scenario.wan () in
  let sim = Simulator.create ~seed () in
  let packet_ids = Ids.create () in
  let alloc_id () = Ids.next packet_ids in
  let frame_ids = Ids.create () in
  let tcp = base.Scenario.tcp in

  (* Connection 0 sees a clean channel; the rest see deep periodic
     fades.  This is the situation where FIFO head-of-line blocking
     bites. *)
  let channels =
    Array.init n_conns (fun i ->
        if i = 0 then Error_model.Uniform_channel.perfect ()
        else
          Error_model.Gilbert_elliott.create
            ~rng:(Rng.split (Simulator.rng sim))
            ~mean_good:(Simtime.span_sec 4.0)
            ~mean_bad:(Simtime.span_sec 4.0))
  in
  let channel_of_frame frame =
    match Frame.conn frame with
    | Some conn when conn >= 0 && conn < n_conns -> channels.(conn)
    | Some _ | None -> channels.(0)
  in
  let wireless_config =
    Wireless_link.
      {
        bandwidth = base.Scenario.wireless.Scenario.raw_bandwidth;
        delay = base.Scenario.wireless.Scenario.delay;
        overhead_factor = base.Scenario.wireless.Scenario.overhead_factor;
        ber = base.Scenario.wireless.Scenario.ber;
        decision = Error_model.Loss.Stochastic (Rng.split (Simulator.rng sim));
      }
  in
  let downlink =
    Wireless_link.create sim ~name:"radio" ~config:wireless_config
      ~channel_for:channel_of_frame
      ~queue_capacity:base.Scenario.frame_queue_capacity
  in
  let arq_config =
    {
      base.Scenario.arq with
      Arq.scheduler = policy;
      Arq.defer_on_backoff = (policy = Sched.Round_robin);
      (* One window slot per connection so a stuck connection cannot
         monopolise the in-flight window. *)
      Arq.window = Stdlib.max n_conns base.Scenario.arq.Arq.window;
    }
  in
  let arq =
    Arq.create sim
      ~rng:(Rng.split (Simulator.rng sim))
      ~config:arq_config ~link:downlink
  in

  let fh = Node.create sim ~name:"fh" ~addr:fh_addr in
  let bs = Node.create sim ~name:"bs" ~addr:bs_addr in
  let wired_up =
    Link.create sim ~name:"fh->bs" ~bandwidth:base.Scenario.wired.Scenario.bandwidth
      ~delay:base.Scenario.wired.Scenario.delay
      ~queue_capacity:base.Scenario.wired.Scenario.queue_capacity
  in
  let wired_down =
    Link.create sim ~name:"bs->fh" ~bandwidth:base.Scenario.wired.Scenario.bandwidth
      ~delay:base.Scenario.wired.Scenario.delay
      ~queue_capacity:base.Scenario.wired.Scenario.queue_capacity
  in
  Link.set_receiver wired_up (Node.receive bs);
  Link.set_receiver wired_down (Node.receive fh);
  Node.add_route bs ~dst:fh_addr ~via:(Link.send wired_down);

  let downlink_send pkt =
    let mtu =
      Option.value base.Scenario.wireless.Scenario.mtu ~default:max_int
    in
    List.iter
      (fun payload -> ignore (Arq.send arq ~conn:(Packet.conn pkt) payload))
      (Fragmenter.split ~mtu pkt)
  in

  let bs_reasm =
    Reassembly.create sim ~timeout:base.Scenario.reassembly_timeout
      ~deliver:(Node.receive bs)
  in

  (* Per-mobile nodes, uplinks and sinks. *)
  let mobiles =
    Array.init n_conns (fun i ->
        let node = Node.create sim ~name:(Printf.sprintf "mh%d" i) ~addr:(mh_addr i) in
        let uplink =
          Wireless_link.create sim ~name:(Printf.sprintf "mh%d->bs" i)
            ~config:wireless_config
            ~channel_for:(fun _ -> channels.(i))
            ~queue_capacity:base.Scenario.frame_queue_capacity
        in
        let reasm =
          Reassembly.create sim ~timeout:base.Scenario.reassembly_timeout
            ~deliver:(Node.receive node)
        in
        let receiver =
          Arq_receiver.create sim
            ~send_ack:(fun ~acked_seq ->
              Wireless_link.send uplink
                Frame.
                  { seq = Ids.next frame_ids; payload = Link_ack { acked_seq } })
            ~dedup:true
            ~deliver:(function
              | (Frame.Whole _ | Frame.Fragment _) as payload ->
                Reassembly.receive reasm payload
              | Frame.Link_ack _ -> ())
            ()
        in
        let bs_side =
          Arq_receiver.create sim
            ~on_link_ack:(fun ~acked_seq -> Arq.handle_link_ack arq ~acked_seq)
            ~deliver:(function
              | (Frame.Whole _ | Frame.Fragment _) as payload ->
                Reassembly.receive bs_reasm payload
              | Frame.Link_ack _ -> ())
            ()
        in
        Wireless_link.set_receiver uplink (Arq_receiver.receive bs_side);
        let uplink_send pkt =
          Wireless_link.send uplink
            Frame.{ seq = Ids.next frame_ids; payload = Whole pkt }
        in
        Node.add_route node ~dst:fh_addr ~via:uplink_send;
        Node.add_route fh ~dst:(mh_addr i) ~via:(Link.send wired_up);
        Node.add_route bs ~dst:(mh_addr i) ~via:downlink_send;
        (node, receiver))
  in
  (* The shared radio broadcasts; each frame reaches the mobile its
     packet addresses. *)
  Wireless_link.set_receiver downlink (fun frame ->
      match Frame.packet frame with
      | Some pkt ->
        let dst = Address.to_int pkt.Packet.dst - 2 in
        if dst >= 0 && dst < n_conns then
          Arq_receiver.receive (snd mobiles.(dst)) frame
      | None -> ());

  (* Transport: one sender/sink pair per connection. *)
  let remaining = ref n_conns in
  let start_time = Simulator.now sim in
  let pairs =
    Array.init n_conns (fun i ->
        let sender =
          Tcp_sender.create sim ~config:tcp ~conn:i ~src:fh_addr
            ~dst:(mh_addr i) ~total_bytes:file_bytes ~alloc_id
            ~transmit:(Node.send fh)
        in
        let sink =
          Tcp_sink.create sim ~config:tcp ~conn:i ~addr:(mh_addr i)
            ~peer:fh_addr ~expected_bytes:file_bytes ~alloc_id
            ~transmit:(Node.send (fst mobiles.(i)))
        in
        Tcp_sink.set_on_complete sink (fun () ->
            decr remaining;
            if !remaining = 0 then Simulator.stop sim);
        (sender, sink))
  in
  let senders_by_conn pkt = fst pairs.(Packet.conn pkt) in
  Node.set_local_handler fh (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Tcp_ack { ack; sack; _ } ->
        Tcp_sender.handle_ack_sack (senders_by_conn pkt) ~ack ~sack
      | Packet.Tcp_data _ | Packet.Ebsn _ | Packet.Source_quench _ -> ());
  Array.iteri
    (fun i (node, _) ->
      Node.set_local_handler node (fun pkt ->
          match pkt.Packet.kind with
          | Packet.Tcp_data { seq; length; _ } ->
            Tcp_sink.handle_data (snd pairs.(i)) ~seq ~length
          | Packet.Tcp_ack _ | Packet.Ebsn _ | Packet.Source_quench _ -> ()))
    mobiles;

  Array.iter (fun (sender, _) -> Tcp_sender.start sender) pairs;
  Simulator.run ~until:(Simtime.add start_time base.Scenario.horizon) sim;

  let per_conn =
    List.init n_conns (fun i ->
        let _, sink = pairs.(i) in
        match Tcp_sink.completion_time sink with
        | Some finish ->
          let duration = Simtime.diff finish start_time in
          {
            conn = i;
            throughput_bps =
              Bulk_app.throughput_bps ~config:tcp ~file_bytes ~duration;
            duration_sec = Simtime.span_to_sec duration;
            completed = true;
          }
        | None ->
          {
            conn = i;
            throughput_bps = 0.0;
            duration_sec = Float.infinity;
            completed = false;
          })
  in
  {
    policy;
    per_conn;
    aggregate_bps =
      List.fold_left (fun acc r -> acc +. r.throughput_bps) 0.0 per_conn;
  }

let policy_name = function
  | Sched.Fifo -> "fifo"
  | Sched.Round_robin -> "round-robin"

let render ?(seeds = [ 17; 1017; 2017; 3017; 4017 ]) ?(jobs = 1) () =
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  (* One flat (policy × seed) fan-out over the shared domain pool;
     regrouping below reads indices only, so the table is identical
     at any [jobs]. *)
  let policies = [| Sched.Fifo; Sched.Round_robin |] in
  let seeds_arr = Array.of_list seeds in
  let n_seeds = Array.length seeds_arr in
  let all =
    Sim_engine.Parallel.map_array ~jobs
      (fun i ->
        run ~seed:seeds_arr.(i mod n_seeds) ~policy:policies.(i / n_seeds) ())
      (Array.init (Array.length policies * n_seeds) Fun.id)
  in
  let row p =
    let results = List.init n_seeds (fun s -> all.((p * n_seeds) + s)) in
    let policy = policies.(p) in
    let conn_mean i =
      mean
        (List.map
           (fun r -> (List.nth r.per_conn i).throughput_bps)
           results)
    in
    [
      policy_name policy;
      Report.kbps (conn_mean 0);
      Report.kbps (conn_mean 1);
      Report.kbps (mean (List.map (fun r -> r.aggregate_bps) results));
    ]
  in
  String.concat "\n"
    [
      Report.heading
        "CSDP ablation — FIFO vs round-robin on a shared radio (2 \
         connections)";
      Report.table
        ~columns:
          [
            "scheduler";
            "conn0 (clean) kbps";
            "conn1 (bursty) kbps";
            "aggregate kbps";
          ]
        ~rows:[ row 0; row 1 ];
      Report.note
        "paper (§2, after [9]): round-robin protects connections on good \
         channels from head-of-line blocking by a connection in a fade";
    ]
