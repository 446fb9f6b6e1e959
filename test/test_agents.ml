(* Tests for the related-work agents: Snoop and Split_conn. *)

open Core

let addr = Address.make
let fh = addr 0
let bs = addr 1
let mh = addr 2

let mk_data ?(id = 0) ?(conn = 0) ~seq ?(len = 536) () =
  Packet.create ~id ~src:fh ~dst:mh
    ~kind:(Packet.Tcp_data { conn; seq; length = len; is_retransmit = false })
    ~header_bytes:40 ~created:Simtime.zero

let mk_ack_from_mh ?(id = 100) ?(conn = 0) ~ack () =
  Packet.create ~id ~src:mh ~dst:fh
    ~kind:(Packet.Tcp_ack { conn; ack; sack = [] })
    ~header_bytes:40 ~created:Simtime.zero

(* ------------------------------------------------------------------ *)
(* Snoop                                                               *)
(* ------------------------------------------------------------------ *)

let make_snoop ?(config = Snoop.default_config) () =
  let sim = Simulator.create () in
  let resent = ref [] in
  let agent =
    Snoop.create sim ~config ~mobile:mh ~send_downlink:(fun pkt ->
        resent := pkt.Packet.id :: !resent)
  in
  (sim, agent, resent)

let test_snoop_caches_data () =
  let _, agent, _ = make_snoop () in
  Alcotest.(check bool) "data passes through" false
    (Snoop.on_forward agent (mk_data ~id:1 ~seq:0 ()));
  Alcotest.(check bool) "second packet" false
    (Snoop.on_forward agent (mk_data ~id:2 ~seq:536 ()));
  Alcotest.(check int) "both cached" 2 (Snoop.cache_size agent)

let test_snoop_new_ack_cleans_cache () =
  let _, agent, _ = make_snoop () in
  ignore (Snoop.on_forward agent (mk_data ~id:1 ~seq:0 ()));
  ignore (Snoop.on_forward agent (mk_data ~id:2 ~seq:536 ()));
  Alcotest.(check bool) "new ack forwarded" false
    (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  Alcotest.(check int) "acked packet dropped from cache" 1
    (Snoop.cache_size agent)

let test_snoop_dupack_triggers_local_retransmit () =
  let _, agent, resent = make_snoop () in
  ignore (Snoop.on_forward agent (mk_data ~id:1 ~seq:0 ()));
  ignore (Snoop.on_forward agent (mk_data ~id:2 ~seq:536 ()));
  ignore (Snoop.on_forward agent (mk_data ~id:3 ~seq:1072 ()));
  ignore (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  (* Segment at 536 lost: duplicate acks for 536. *)
  Alcotest.(check bool) "first dupack suppressed" true
    (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  Alcotest.(check (list int)) "cached packet locally resent" [ 2 ] !resent;
  Alcotest.(check bool) "second dupack suppressed too" true
    (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  Alcotest.(check (list int)) "but only one local retransmit" [ 2 ] !resent;
  let stats = Snoop.stats agent in
  Alcotest.(check int) "suppression count" 2 stats.Snoop.dupacks_suppressed;
  Alcotest.(check int) "local retransmits" 1 stats.Snoop.local_retransmits

let test_snoop_dupack_for_uncached_forwarded () =
  let _, agent, resent = make_snoop () in
  (* Never saw the data: dupacks must flow through to the source. *)
  ignore (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  Alcotest.(check bool) "cache miss forwarded" false
    (Snoop.on_forward agent (mk_ack_from_mh ~ack:536 ()));
  Alcotest.(check (list int)) "nothing resent" [] !resent;
  Alcotest.(check int) "miss counted" 1 (Snoop.stats agent).Snoop.cache_misses

let test_snoop_local_timeout_retransmits () =
  let sim, agent, resent = make_snoop () in
  ignore (Snoop.on_forward agent (mk_data ~id:1 ~seq:0 ()));
  (* No ack ever arrives: the local timer fires and retransmits. *)
  Simulator.run ~until:(Simtime.of_ns 2_000_000_000) sim;
  Alcotest.(check bool) "local timeout retransmit" true
    (List.mem 1 !resent);
  Alcotest.(check bool) "timeouts counted" true
    ((Snoop.stats agent).Snoop.local_timeouts > 0)

let test_snoop_ignores_other_traffic () =
  let _, agent, _ = make_snoop () in
  let ebsn =
    Packet.create ~id:50 ~src:bs ~dst:fh ~kind:(Packet.Ebsn { conn = 0 })
      ~header_bytes:40 ~created:Simtime.zero
  in
  Alcotest.(check bool) "ebsn passes" false (Snoop.on_forward agent ebsn)

(* ------------------------------------------------------------------ *)
(* Split_conn                                                          *)
(* ------------------------------------------------------------------ *)

let make_split ?(file_bytes = 5 * 536) () =
  let sim = Simulator.create () in
  let ids = Ids.create () in
  let wired_out = ref [] in
  let downlink_out = ref [] in
  let cfg = Tcp_config.with_packet_size Tcp_config.default 576 in
  let relay =
    Split_conn.create sim ~wired_config:cfg ~wireless_config:cfg ~conn:0
      ~fixed:fh ~bs ~mobile:mh ~file_bytes
      ~alloc_id:(fun () -> Ids.next ids)
      ~send_wired:(fun pkt -> wired_out := pkt :: !wired_out)
      ~send_downlink:(fun pkt -> downlink_out := pkt :: !downlink_out)
  in
  (sim, relay, wired_out, downlink_out)

let test_split_consumes_and_acks () =
  let _, relay, wired_out, _ = make_split () in
  Alcotest.(check bool) "data consumed" true
    (Split_conn.on_forward relay (mk_data ~id:1 ~seq:0 ()));
  (match !wired_out with
  | [ ack ] -> (
    match ack.Packet.kind with
    | Packet.Tcp_ack { ack = n; _ } ->
      Alcotest.(check int) "acked at the BS" 536 n;
      Alcotest.(check int) "ack goes to the fixed host" 0
        (Address.to_int ack.Packet.dst)
    | _ -> Alcotest.fail "expected an ack")
  | _ -> Alcotest.fail "expected exactly one wired packet")

let test_split_resends_over_wireless () =
  let _, relay, _, downlink_out = make_split () in
  ignore (Split_conn.on_forward relay (mk_data ~id:1 ~seq:0 ()));
  (match !downlink_out with
  | [ pkt ] -> (
    match pkt.Packet.kind with
    | Packet.Tcp_data { seq; _ } ->
      Alcotest.(check int) "wireless copy of byte 0" 0 seq;
      Alcotest.(check int) "src is the BS" 1 (Address.to_int pkt.Packet.src);
      Alcotest.(check int) "dst is the mobile" 2 (Address.to_int pkt.Packet.dst)
    | _ -> Alcotest.fail "expected data")
  | _ -> Alcotest.fail "expected one wireless packet")

let test_split_only_sends_received_bytes () =
  let _, relay, _, downlink_out = make_split () in
  (* Out-of-order arrival: byte 536 before byte 0.  The relay may only
     forward contiguous data. *)
  ignore (Split_conn.on_forward relay (mk_data ~id:2 ~seq:536 ()));
  Alcotest.(check int) "nothing contiguous yet" 0 (List.length !downlink_out);
  ignore (Split_conn.on_forward relay (mk_data ~id:1 ~seq:0 ()));
  (* The wireless sender starts in slow start: one segment in flight. *)
  Alcotest.(check int) "first segment flows once the hole fills" 1
    (List.length !downlink_out);
  Split_conn.handle_wireless_ack relay ~ack:536 ~sack:[];
  Alcotest.(check bool) "window opens after the mobile acks" true
    (List.length !downlink_out >= 2)

let test_split_wireless_ack_progress () =
  let _, relay, _, _ = make_split () in
  ignore (Split_conn.on_forward relay (mk_data ~id:1 ~seq:0 ()));
  Alcotest.(check int) "buffered at the relay" 536
    (Split_conn.buffered_bytes relay);
  Split_conn.handle_wireless_ack relay ~ack:536 ~sack:[];
  Alcotest.(check int) "drained after the mobile acks" 0
    (Split_conn.buffered_bytes relay)

let test_split_ignores_other_conns () =
  let _, relay, _, _ = make_split () in
  Alcotest.(check bool) "other connection passes" false
    (Split_conn.on_forward relay (mk_data ~id:1 ~conn:9 ~seq:0 ()))

let () =
  Alcotest.run "agents"
    [
      ( "snoop",
        [
          Alcotest.test_case "caches data" `Quick test_snoop_caches_data;
          Alcotest.test_case "ack cleans cache" `Quick
            test_snoop_new_ack_cleans_cache;
          Alcotest.test_case "dupack local retransmit" `Quick
            test_snoop_dupack_triggers_local_retransmit;
          Alcotest.test_case "cache miss forwarded" `Quick
            test_snoop_dupack_for_uncached_forwarded;
          Alcotest.test_case "local timeout" `Quick
            test_snoop_local_timeout_retransmits;
          Alcotest.test_case "ignores other traffic" `Quick
            test_snoop_ignores_other_traffic;
        ] );
      ( "split_conn",
        [
          Alcotest.test_case "consumes and acks" `Quick test_split_consumes_and_acks;
          Alcotest.test_case "resends over wireless" `Quick
            test_split_resends_over_wireless;
          Alcotest.test_case "contiguous bytes only" `Quick
            test_split_only_sends_received_bytes;
          Alcotest.test_case "wireless ack progress" `Quick
            test_split_wireless_ack_progress;
          Alcotest.test_case "ignores other conns" `Quick
            test_split_ignores_other_conns;
        ] );
    ]
