(* Tests for the network substrate: Units, Address, Ids, Packet,
   Queue_drop_tail, Link, Node and static routing over them. *)

open Core

let addr = Address.make
let now0 = Simtime.zero

let mk_data ?(id = 0) ?(src = 0) ?(dst = 2) ?(seq = 0) ?(len = 536)
    ?(retx = false) () =
  Packet.create ~id ~src:(addr src) ~dst:(addr dst)
    ~kind:(Packet.Tcp_data { conn = 0; seq; length = len; is_retransmit = retx })
    ~header_bytes:40 ~created:now0

let mk_ack ?(id = 1) ?(src = 2) ?(dst = 0) ?(ack = 536) () =
  Packet.create ~id ~src:(addr src) ~dst:(addr dst)
    ~kind:(Packet.Tcp_ack { conn = 0; ack; sack = [] }) ~header_bytes:40 ~created:now0

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_units_bandwidth () =
  Alcotest.(check int) "kbps" 19_200 (Units.bandwidth_to_bps (Units.kbps 19.2));
  Alcotest.(check int) "mbps" 2_000_000 (Units.bandwidth_to_bps (Units.mbps 2.0));
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Units.bps: rate must be positive") (fun () ->
      ignore (Units.bps 0))

let test_units_tx_time () =
  (* 19200 bits at 19.2 kbps take exactly one second. *)
  let t = Units.tx_time ~bits:19_200 (Units.kbps 19.2) in
  Alcotest.(check int) "one second" 1_000_000_000 (Simtime.span_to_ns t);
  let t = Units.tx_time ~bits:0 (Units.kbps 19.2) in
  Alcotest.(check int) "zero bits" 0 (Simtime.span_to_ns t);
  (* A 576-byte packet on 56 kbps: 4608 bits / 56000 bps ~= 82.3 ms. *)
  let t = Units.tx_time ~bits:(Units.bits_of_bytes 576) (Units.kbps 56.0) in
  Alcotest.(check int) "576B at 56k" 82_285_714 (Simtime.span_to_ns t)

let test_units_bytes_per_sec () =
  Alcotest.(check (float 1e-9)) "bytes/s" 2_400.0
    (Units.bytes_per_sec (Units.kbps 19.2))

(* ------------------------------------------------------------------ *)
(* Address and Ids                                                     *)
(* ------------------------------------------------------------------ *)

let test_address () =
  Alcotest.(check int) "round trip" 3 (Address.to_int (addr 3));
  Alcotest.(check bool) "equal" true (Address.equal (addr 1) (addr 1));
  Alcotest.(check bool) "not equal" false (Address.equal (addr 1) (addr 2));
  Alcotest.(check bool) "compare" true (Address.compare (addr 1) (addr 2) < 0);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Address.make: negative") (fun () ->
      ignore (Address.make (-1)))

let test_ids () =
  let g = Ids.create () in
  let a = Ids.next g in
  let b = Ids.next g in
  let c = Ids.next g in
  Alcotest.(check (list int)) "sequence" [ 0; 1; 2 ] [ a; b; c ];
  Alcotest.(check int) "issued" 3 (Ids.issued g);
  let g2 = Ids.create ~first:10 () in
  Alcotest.(check int) "custom first" 10 (Ids.next g2)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)
(* ------------------------------------------------------------------ *)

let test_packet_size () =
  let pkt = mk_data ~len:536 () in
  Alcotest.(check int) "size = header + payload" 576 (Packet.size pkt);
  Alcotest.(check int) "payload derived" 536 pkt.Packet.payload_bytes;
  let ack = mk_ack () in
  Alcotest.(check int) "ack has no payload" 40 (Packet.size ack)

let test_packet_predicates () =
  Alcotest.(check bool) "data is data" true (Packet.is_data (mk_data ()));
  Alcotest.(check bool) "ack is not data" false (Packet.is_data (mk_ack ()));
  Alcotest.(check bool) "ack is ack" true (Packet.is_ack (mk_ack ()));
  Alcotest.(check int) "conn of data" 0 (Packet.conn (mk_data ()));
  Alcotest.(check string) "label" "data" (Packet.kind_label (mk_data ()))

let test_packet_retransmit () =
  let pkt = mk_data ~id:7 () in
  let rx = Packet.retransmit pkt ~id:8 ~created:(Simtime.of_ns 5) in
  Alcotest.(check int) "new id" 8 rx.Packet.id;
  (match rx.Packet.kind with
  | Packet.Tcp_data { is_retransmit; seq; _ } ->
    Alcotest.(check bool) "marked" true is_retransmit;
    Alcotest.(check int) "same seq" 0 seq
  | _ -> Alcotest.fail "kind changed");
  Alcotest.check_raises "acks cannot be retransmitted"
    (Invalid_argument "Packet.retransmit: not a data packet") (fun () ->
      ignore (Packet.retransmit (mk_ack ()) ~id:9 ~created:now0))

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

(* Random pushes at either end and pops, against a list model: the ring
   grows while its head sits anywhere in the array. *)
let prop_ring_matches_list =
  QCheck2.Test.make ~name:"ring == list deque under push, push_front, pop"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 2) small_nat))
    (fun ops ->
      let r = Ring.create () in
      let model = ref [] in
      List.for_all
        (fun (op, x) ->
          (match op with
          | 0 ->
            Ring.push r x;
            model := !model @ [ x ]
          | 1 ->
            Ring.push_front r x;
            model := x :: !model
          | _ -> (
            match !model with
            | [] -> ()
            | y :: rest ->
              model := rest;
              if Ring.pop r <> y then raise Exit));
          let seen = ref [] in
          Ring.iter (fun v -> seen := v :: !seen) r;
          Ring.length r = List.length !model && List.rev !seen = !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Queue_drop_tail                                                     *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo () =
  let q = Queue_drop_tail.create ~capacity:3 () in
  Alcotest.(check bool) "enqueue 1" true (Queue_drop_tail.enqueue q 1);
  Alcotest.(check bool) "enqueue 2" true (Queue_drop_tail.enqueue q 2);
  Alcotest.(check (option int)) "peek oldest" (Some 1) (Queue_drop_tail.peek q);
  Alcotest.(check int) "dequeue oldest" 1 (Queue_drop_tail.dequeue q);
  Alcotest.(check int) "length" 1 (Queue_drop_tail.length q)

let test_queue_drops () =
  let q = Queue_drop_tail.create ~capacity:2 () in
  ignore (Queue_drop_tail.enqueue q 1);
  ignore (Queue_drop_tail.enqueue q 2);
  Alcotest.(check bool) "full rejects" false (Queue_drop_tail.enqueue q 3);
  Alcotest.(check int) "drop counted" 1 (Queue_drop_tail.drops q);
  Alcotest.(check int) "peak" 2 (Queue_drop_tail.peak_length q);
  ignore (Queue_drop_tail.dequeue q);
  Alcotest.(check bool) "room again" true (Queue_drop_tail.enqueue q 3)

let test_queue_filter () =
  let q = Queue_drop_tail.create ~capacity:10 () in
  List.iter (fun v -> ignore (Queue_drop_tail.enqueue q v)) [ 1; 2; 3; 4; 5 ];
  let removed = Queue_drop_tail.filter_in_place (fun v -> v mod 2 = 0) q in
  Alcotest.(check int) "removed" 3 removed;
  let remaining = ref [] in
  Queue_drop_tail.iter (fun v -> remaining := v :: !remaining) q;
  Alcotest.(check (list int)) "kept in order" [ 2; 4 ] (List.rev !remaining)

let prop_queue_order =
  QCheck2.Test.make ~name:"drop-tail preserves arrival order of kept items"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 100))
    (fun xs ->
      let q = Queue_drop_tail.create ~capacity:20 () in
      let kept = List.filteri (fun i _ -> i < 20) xs in
      List.iter (fun x -> ignore (Queue_drop_tail.enqueue q x)) xs;
      let rec drain acc =
        if Queue_drop_tail.is_empty q then List.rev acc
        else drain (Queue_drop_tail.dequeue q :: acc)
      in
      drain [] = kept)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)
(* ------------------------------------------------------------------ *)

let test_link_serialisation_and_delay () =
  let sim = Simulator.create () in
  let link =
    Link.create sim ~name:"l" ~bandwidth:(Units.kbps 56.0)
      ~delay:(Simtime.span_ms 50) ~queue_capacity:10
  in
  let arrivals = ref [] in
  Link.set_receiver link (fun pkt ->
      arrivals := (Simtime.to_ns (Simulator.now sim), pkt.Packet.id) :: !arrivals);
  (* 576-byte packet: ~82.3 ms serialisation + 50 ms propagation. *)
  Link.send link (mk_data ~id:1 ());
  Simulator.run sim;
  (match !arrivals with
  | [ (t, 1) ] -> Alcotest.(check int) "arrival time" 132_285_714 t
  | _ -> Alcotest.fail "expected one arrival");
  let stats = Link.stats link in
  Alcotest.(check int) "tx packets" 1 stats.Link.tx_packets;
  Alcotest.(check int) "tx bytes" 576 stats.Link.tx_bytes;
  Alcotest.(check int) "delivered" 1 stats.Link.delivered

let test_link_queueing_serialises () =
  let sim = Simulator.create () in
  let link =
    Link.create sim ~name:"l" ~bandwidth:(Units.kbps 56.0)
      ~delay:Simtime.span_zero ~queue_capacity:10
  in
  let arrivals = ref [] in
  Link.set_receiver link (fun pkt ->
      arrivals := (Simtime.to_ns (Simulator.now sim), pkt.Packet.id) :: !arrivals);
  Link.send link (mk_data ~id:1 ());
  Link.send link (mk_data ~id:2 ());
  Alcotest.(check int) "second waits" 1 (Link.queue_length link);
  Simulator.run sim;
  match List.rev !arrivals with
  | [ (t1, 1); (t2, 2) ] ->
    Alcotest.(check int) "first after one tx time" 82_285_714 t1;
    Alcotest.(check int) "second after two tx times" 164_571_428 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_overflow_drops () =
  let sim = Simulator.create () in
  let link =
    Link.create sim ~name:"l" ~bandwidth:(Units.kbps 56.0)
      ~delay:Simtime.span_zero ~queue_capacity:2
  in
  let count = ref 0 in
  Link.set_receiver link (fun _ -> incr count);
  (* One transmitting + two queued + one dropped. *)
  for i = 1 to 4 do
    Link.send link (mk_data ~id:i ())
  done;
  Simulator.run sim;
  Alcotest.(check int) "three delivered" 3 !count;
  Alcotest.(check int) "one dropped" 1 (Link.stats link).Link.drops

let test_link_requires_receiver () =
  let sim = Simulator.create () in
  let link =
    Link.create sim ~name:"nr" ~bandwidth:(Units.kbps 56.0)
      ~delay:Simtime.span_zero ~queue_capacity:2
  in
  Alcotest.check_raises "no receiver"
    (Failure "Link nr: no receiver installed") (fun () ->
      Link.send link (mk_data ()))

(* ------------------------------------------------------------------ *)
(* Node                                                                *)
(* ------------------------------------------------------------------ *)

let test_node_local_delivery () =
  let sim = Simulator.create () in
  let node = Node.create sim ~name:"n" ~addr:(addr 2) in
  let got = ref [] in
  Node.set_local_handler node (fun pkt -> got := pkt.Packet.id :: !got);
  Node.receive node (mk_data ~id:9 ~dst:2 ());
  Alcotest.(check (list int)) "delivered" [ 9 ] !got;
  Alcotest.(check int) "counter" 1 (Node.delivered_locally node)

let test_node_forwarding () =
  let sim = Simulator.create () in
  let node = Node.create sim ~name:"bs" ~addr:(addr 1) in
  let forwarded = ref [] in
  Node.add_route node ~dst:(addr 2) ~via:(fun pkt ->
      forwarded := pkt.Packet.id :: !forwarded);
  Node.receive node (mk_data ~id:4 ~dst:2 ());
  Alcotest.(check (list int)) "forwarded" [ 4 ] !forwarded;
  Alcotest.(check int) "counter" 1 (Node.forwarded node)

let test_node_forward_hook_consumes () =
  let sim = Simulator.create () in
  let node = Node.create sim ~name:"bs" ~addr:(addr 1) in
  let forwarded = ref 0 in
  Node.add_route node ~dst:(addr 2) ~via:(fun _ -> incr forwarded);
  Node.set_forward_hook node (fun pkt -> pkt.Packet.id = 13);
  Node.receive node (mk_data ~id:13 ~dst:2 ());
  Node.receive node (mk_data ~id:14 ~dst:2 ());
  Alcotest.(check int) "consumed packet not forwarded" 1 !forwarded

let test_node_no_route () =
  let sim = Simulator.create () in
  let node = Node.create sim ~name:"n" ~addr:(addr 1) in
  Alcotest.(check bool) "raises" true
    (try
       Node.send node (mk_data ~dst:9 ());
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Static routing                                                      *)
(* ------------------------------------------------------------------ *)

let test_static_routing_chain () =
  (* Next hops wired by hand over links, as a topology outside the
     presets does it: 0 -- 1 -- 2 -- 3, one route per direction. *)
  let sim = Simulator.create () in
  let nodes =
    Array.init 4 (fun i ->
        Node.create sim ~name:(string_of_int i) ~addr:(addr i))
  in
  let hop a b =
    let l =
      Link.create sim
        ~name:(Printf.sprintf "%d->%d" a b)
        ~bandwidth:(Units.kbps 56.0) ~delay:(Simtime.span_ms 5)
        ~queue_capacity:4
    in
    Link.set_receiver l (Node.receive nodes.(b));
    Link.send l
  in
  for i = 0 to 2 do
    Node.add_route nodes.(i) ~dst:(addr 3) ~via:(hop i (i + 1));
    Node.add_route nodes.(i + 1) ~dst:(addr 0) ~via:(hop (i + 1) i)
  done;
  let arrivals = ref [] in
  let record at pkt =
    let t = Simtime.to_ns (Simulator.now sim) in
    arrivals := (at, pkt.Packet.id, t) :: !arrivals
  in
  Node.set_local_handler nodes.(3) (fun pkt ->
      record 3 pkt;
      Node.send nodes.(3) (mk_ack ~id:2 ~src:3 ~dst:0 ()));
  Node.set_local_handler nodes.(0) (record 0);
  Node.send nodes.(0) (mk_data ~id:1 ~src:0 ~dst:3 ());
  Simulator.run sim;
  (match List.rev !arrivals with
  | [ (3, 1, t); (0, 2, _) ] ->
    (* Three hops of 82.3 ms serialisation + 5 ms propagation. *)
    Alcotest.(check int) "data arrival time" 261_857_142 t
  | _ -> Alcotest.fail "expected the data at 3, then the ack at 0");
  Alcotest.(check (list int)) "each transit node forwards both" [ 2; 2 ]
    [ Node.forwarded nodes.(1); Node.forwarded nodes.(2) ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "units",
        [
          Alcotest.test_case "bandwidth" `Quick test_units_bandwidth;
          Alcotest.test_case "tx_time" `Quick test_units_tx_time;
          Alcotest.test_case "bytes_per_sec" `Quick test_units_bytes_per_sec;
        ] );
      ( "address+ids",
        [
          Alcotest.test_case "address" `Quick test_address;
          Alcotest.test_case "ids" `Quick test_ids;
        ] );
      ( "packet",
        [
          Alcotest.test_case "size" `Quick test_packet_size;
          Alcotest.test_case "predicates" `Quick test_packet_predicates;
          Alcotest.test_case "retransmit" `Quick test_packet_retransmit;
        ] );
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drops" `Quick test_queue_drops;
          Alcotest.test_case "filter" `Quick test_queue_filter;
          qc prop_queue_order;
          qc prop_ring_matches_list;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialisation + delay" `Quick
            test_link_serialisation_and_delay;
          Alcotest.test_case "queueing serialises" `Quick
            test_link_queueing_serialises;
          Alcotest.test_case "overflow drops" `Quick test_link_overflow_drops;
          Alcotest.test_case "requires receiver" `Quick
            test_link_requires_receiver;
        ] );
      ( "node",
        [
          Alcotest.test_case "local delivery" `Quick test_node_local_delivery;
          Alcotest.test_case "forwarding" `Quick test_node_forwarding;
          Alcotest.test_case "forward hook" `Quick
            test_node_forward_hook_consumes;
          Alcotest.test_case "no route" `Quick test_node_no_route;
        ] );
      ( "static routing",
        [ Alcotest.test_case "chain of links" `Quick test_static_routing_chain ]
      );
    ]
