(* Tests for the extension features: TCP-Reno fast recovery, delayed
   acknowledgements, cross-traffic generators, the handoff experiment
   and CSV export. *)

open Core

let addr = Address.make

(* ------------------------------------------------------------------ *)
(* Reno fast recovery                                                  *)
(* ------------------------------------------------------------------ *)

let reno_cfg =
  {
    (Tcp_config.with_packet_size Tcp_config.default 576) with
    Tcp_config.cc = Tcp_config.Reno;
    window = 20 * 536;
  }

type harness = {
  sim : Simulator.t;
  sender : Tcp_sender.t;
  sent : (int * bool) list ref;  (* seq, retransmit *)
}

let make_harness ?(config = reno_cfg) () =
  let sim = Simulator.create () in
  let sent = ref [] in
  let ids = Ids.create () in
  let sender =
    Tcp_sender.create sim ~config ~conn:0 ~src:(addr 0) ~dst:(addr 2)
      ~total_bytes:(200 * 536)
      ~alloc_id:(fun () -> Ids.next ids)
      ~transmit:(fun pkt ->
        match pkt.Packet.kind with
        | Packet.Tcp_data { seq; is_retransmit; _ } ->
          sent := (seq, is_retransmit) :: !sent
        | Packet.Tcp_ack _ | Packet.Ebsn _ | Packet.Source_quench _ -> ())
  in
  { sim; sender; sent }

let open_window h n =
  for _ = 1 to n do
    let una = Tcp_sender.snd_una h.sender in
    Tcp_sender.handle_ack h.sender ~ack:(una + 536)
  done

let test_reno_enters_fast_recovery () =
  let h = make_harness () in
  Tcp_sender.start h.sender;
  open_window h 6;
  let una = Tcp_sender.snd_una h.sender in
  h.sent := [];
  (* Three duplicate acks. *)
  for _ = 1 to 3 do
    Tcp_sender.handle_ack h.sender ~ack:una
  done;
  Alcotest.(check bool) "in fast recovery" true
    (Tcp_sender.in_fast_recovery h.sender);
  (* Exactly the missing segment was retransmitted, and snd_nxt did
     not rewind (no go-back-N). *)
  (match !(h.sent) with
  | [ (seq, true) ] -> Alcotest.(check int) "retransmitted una" una seq
  | _ -> Alcotest.fail "expected exactly one retransmission");
  (* cwnd = ssthresh + 3 mss (inflation). *)
  Alcotest.(check int) "inflated window"
    (Tcp_sender.ssthresh_bytes h.sender + (3 * 536))
    (Tcp_sender.cwnd_bytes h.sender)

let test_reno_inflates_per_dupack () =
  let h = make_harness () in
  Tcp_sender.start h.sender;
  open_window h 6;
  let una = Tcp_sender.snd_una h.sender in
  for _ = 1 to 3 do
    Tcp_sender.handle_ack h.sender ~ack:una
  done;
  let before = Tcp_sender.cwnd_bytes h.sender in
  Tcp_sender.handle_ack h.sender ~ack:una;
  Alcotest.(check int) "one mss per further dupack" (before + 536)
    (Tcp_sender.cwnd_bytes h.sender)

let test_reno_deflates_on_new_ack () =
  let h = make_harness () in
  Tcp_sender.start h.sender;
  open_window h 6;
  let una = Tcp_sender.snd_una h.sender in
  for _ = 1 to 4 do
    Tcp_sender.handle_ack h.sender ~ack:una
  done;
  let ssthresh = Tcp_sender.ssthresh_bytes h.sender in
  Tcp_sender.handle_ack h.sender ~ack:(una + 536);
  Alcotest.(check bool) "recovery over" false
    (Tcp_sender.in_fast_recovery h.sender);
  Alcotest.(check int) "deflated to ssthresh" ssthresh
    (Tcp_sender.cwnd_bytes h.sender)

let test_reno_timeout_still_collapses () =
  let h = make_harness () in
  Tcp_sender.start h.sender;
  open_window h 6;
  Simulator.run ~until:(Simtime.of_ns 60_000_000_000) h.sim;
  Alcotest.(check bool) "timeout happened" true
    ((Tcp_sender.stats h.sender).Tcp_stats.timeouts > 0);
  Alcotest.(check int) "slow-start restart" 536
    (Tcp_sender.cwnd_bytes h.sender);
  Alcotest.(check bool) "not in recovery" false
    (Tcp_sender.in_fast_recovery h.sender)

let test_reno_end_to_end () =
  let s = Scenario.wan ~scheme:Scenario.Ebsn ~seed:5 () in
  let s =
    {
      s with
      Scenario.tcp = { s.Scenario.tcp with Tcp_config.cc = Tcp_config.Reno };
    }
  in
  let outcome = Wiring.run s in
  Alcotest.(check bool) "reno completes" true outcome.Wiring.completed

(* ------------------------------------------------------------------ *)
(* SACK                                                                *)
(* ------------------------------------------------------------------ *)

let sack_cfg = { reno_cfg with Tcp_config.cc = Tcp_config.Sack }

let test_sack_sink_reports_blocks () =
  let sim = Simulator.create () in
  let ids = Ids.create () in
  let acks = ref [] in
  let sink =
    Tcp_sink.create sim ~config:sack_cfg ~conn:0 ~addr:(addr 2) ~peer:(addr 0)
      ~expected_bytes:(20 * 536)
      ~alloc_id:(fun () -> Ids.next ids)
      ~transmit:(fun pkt ->
        match pkt.Packet.kind with
        | Packet.Tcp_ack { ack; sack; _ } -> acks := (ack, sack) :: !acks
        | Packet.Tcp_data _ | Packet.Ebsn _ | Packet.Source_quench _ -> ())
  in
  Tcp_sink.handle_data sink ~seq:0 ~length:536;
  (* Segment 1 lost; 2 and 4 arrive out of order. *)
  Tcp_sink.handle_data sink ~seq:(2 * 536) ~length:536;
  Tcp_sink.handle_data sink ~seq:(4 * 536) ~length:536;
  match !acks with
  | (a3, s3) :: (a2, s2) :: (a1, s1) :: _ ->
    Alcotest.(check (pair int (list (pair int int)))) "in-order ack: no blocks"
      (536, []) (a1, s1);
    Alcotest.(check (pair int (list (pair int int)))) "first gap reported"
      (536, [ (2 * 536, 3 * 536) ]) (a2, s2);
    Alcotest.(check (pair int (list (pair int int)))) "two blocks reported"
      (536, [ (2 * 536, 3 * 536); (4 * 536, 5 * 536) ])
      (a3, s3)
  | _ -> Alcotest.fail "expected three acks"

let test_sack_sender_fills_holes_only () =
  let h = make_harness ~config:sack_cfg () in
  Tcp_sender.start h.sender;
  open_window h 8;
  let una = Tcp_sender.snd_una h.sender in
  h.sent := [];
  (* Receiver holds [una+536, una+2*536) and [una+3*536, una+4*536):
     holes are una..una+536 and una+2*536..una+3*536. *)
  let blocks =
    [ (una + 536, una + (2 * 536)); (una + (3 * 536), una + (4 * 536)) ]
  in
  for _ = 1 to 3 do
    Tcp_sender.handle_ack_sack h.sender ~ack:una ~sack:blocks
  done;
  Alcotest.(check bool) "in recovery" true
    (Tcp_sender.in_fast_recovery h.sender);
  (match List.rev !(h.sent) with
  | (first, true) :: _ -> Alcotest.(check int) "first hole resent" una first
  | _ -> Alcotest.fail "expected a retransmission");
  (* The next ack fills the next hole — never the SACKed segments. *)
  Tcp_sender.handle_ack_sack h.sender ~ack:una ~sack:blocks;
  let resent = List.rev_map fst !(h.sent) in
  Alcotest.(check bool) "second hole resent" true
    (List.mem (una + (2 * 536)) resent);
  Alcotest.(check bool) "sacked data never resent" false
    (List.mem (una + 536) resent || List.mem (una + (3 * 536)) resent)

let test_sack_partial_ack_continues_recovery () =
  let h = make_harness ~config:sack_cfg () in
  Tcp_sender.start h.sender;
  open_window h 8;
  let una = Tcp_sender.snd_una h.sender in
  let blocks = [ (una + 536, una + (2 * 536)) ] in
  for _ = 1 to 3 do
    Tcp_sender.handle_ack_sack h.sender ~ack:una ~sack:blocks
  done;
  Alcotest.(check bool) "in recovery" true
    (Tcp_sender.in_fast_recovery h.sender);
  (* The retransmission fills the first hole: partial ack jumps over
     the sacked block but recovery continues (ack < recover point). *)
  Tcp_sender.handle_ack h.sender ~ack:(una + (2 * 536));
  Alcotest.(check bool) "still in recovery on partial ack" true
    (Tcp_sender.in_fast_recovery h.sender);
  (* A full ack ends it. *)
  Tcp_sender.handle_ack h.sender ~ack:(Tcp_sender.snd_nxt h.sender);
  Alcotest.(check bool) "recovery over" false
    (Tcp_sender.in_fast_recovery h.sender)

let test_sack_end_to_end () =
  List.iter
    (fun scheme ->
      let s = Scenario.wan ~scheme ~seed:6 () in
      let s =
        {
          s with
          Scenario.tcp = { s.Scenario.tcp with Tcp_config.cc = Tcp_config.Sack };
        }
      in
      let outcome = Wiring.run s in
      Alcotest.(check bool)
        (Scenario.scheme_name scheme ^ " completes with sack")
        true outcome.Wiring.completed)
    [ Scenario.Basic; Scenario.Ebsn ]

(* ------------------------------------------------------------------ *)
(* Delayed acks                                                        *)
(* ------------------------------------------------------------------ *)

let delack_cfg =
  {
    (Tcp_config.with_packet_size Tcp_config.default 576) with
    Tcp_config.delayed_ack = true;
  }

let make_sink ?(config = delack_cfg) () =
  let sim = Simulator.create () in
  let acks = ref [] in
  let ids = Ids.create () in
  let sink =
    Tcp_sink.create sim ~config ~conn:0 ~addr:(addr 2) ~peer:(addr 0)
      ~expected_bytes:(20 * 536)
      ~alloc_id:(fun () -> Ids.next ids)
      ~transmit:(fun pkt ->
        match pkt.Packet.kind with
        | Packet.Tcp_ack { ack; _ } -> acks := ack :: !acks
        | Packet.Tcp_data _ | Packet.Ebsn _ | Packet.Source_quench _ -> ())
  in
  (sim, sink, acks)

let test_delack_every_second_segment () =
  let _, sink, acks = make_sink () in
  Tcp_sink.handle_data sink ~seq:0 ~length:536;
  Alcotest.(check (list int)) "first held" [] !acks;
  Tcp_sink.handle_data sink ~seq:536 ~length:536;
  Alcotest.(check (list int)) "acked on the second" [ 2 * 536 ] !acks

let test_delack_timeout_fires () =
  let sim, sink, acks = make_sink () in
  Tcp_sink.handle_data sink ~seq:0 ~length:536;
  Alcotest.(check (list int)) "held" [] !acks;
  Simulator.run ~until:(Simtime.of_ns 500_000_000) sim;
  Alcotest.(check (list int)) "acked by the 200ms timer" [ 536 ] !acks

let test_delack_immediate_on_out_of_order () =
  let _, sink, acks = make_sink () in
  Tcp_sink.handle_data sink ~seq:(2 * 536) ~length:536;
  (* Out of order: immediate (duplicate) ack. *)
  Alcotest.(check (list int)) "immediate dupack" [ 0 ] !acks;
  Tcp_sink.handle_data sink ~seq:(3 * 536) ~length:536;
  Alcotest.(check int) "still immediate" 2 (List.length !acks)

let test_delack_off_acks_everything () =
  let _, sink, acks =
    make_sink ~config:(Tcp_config.with_packet_size Tcp_config.default 576) ()
  in
  Tcp_sink.handle_data sink ~seq:0 ~length:536;
  Tcp_sink.handle_data sink ~seq:536 ~length:536;
  Alcotest.(check int) "one ack per segment" 2 (List.length !acks)

let test_delack_end_to_end () =
  let s = Scenario.wan ~scheme:Scenario.Basic ~seed:5 () in
  let s =
    {
      s with
      Scenario.tcp = { s.Scenario.tcp with Tcp_config.delayed_ack = true };
    }
  in
  let outcome = Wiring.run s in
  Alcotest.(check bool) "completes with delayed acks" true
    outcome.Wiring.completed;
  (* Roughly half the acks of the per-segment sink. *)
  let plain = Wiring.run (Scenario.wan ~scheme:Scenario.Basic ~seed:5 ()) in
  Alcotest.(check bool) "fewer acks" true
    (outcome.Wiring.sink_stats.Tcp_sink.acks_sent
    < (plain.Wiring.sink_stats.Tcp_sink.acks_sent * 3 / 4))

(* ------------------------------------------------------------------ *)
(* Cross traffic                                                       *)
(* ------------------------------------------------------------------ *)

let test_cbr_rate () =
  let sim = Simulator.create () in
  let ids = Ids.create () in
  let count = ref 0 in
  let gen =
    Cross_traffic.start sim
      ~rng:(Rng.split (Simulator.rng sim))
      ~pattern:(Cross_traffic.Cbr { rate = Units.kbps 56.0; packet_bytes = 700 })
      ~src:(addr 0) ~dst:(addr 1) ~conn:900
      ~alloc_id:(fun () -> Ids.next ids)
      ~send:(fun _ -> incr count)
  in
  Simulator.run ~until:(Simtime.of_ns 10_000_000_000) sim;
  Cross_traffic.stop gen;
  (* 56 kbps / 5600 bits per packet = 10 packets/s over 10 s. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d packets near 100" !count)
    true
    (abs (!count - 100) <= 2);
  Alcotest.(check int) "bytes accounted" (!count * 700)
    (Cross_traffic.bytes_sent gen)

let test_cbr_stop () =
  let sim = Simulator.create () in
  let ids = Ids.create () in
  let count = ref 0 in
  let gen =
    Cross_traffic.start sim
      ~rng:(Rng.split (Simulator.rng sim))
      ~pattern:(Cross_traffic.Cbr { rate = Units.kbps 56.0; packet_bytes = 700 })
      ~src:(addr 0) ~dst:(addr 1) ~conn:900
      ~alloc_id:(fun () -> Ids.next ids)
      ~send:(fun _ -> incr count)
  in
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 1_000_000_000) (fun () ->
         Cross_traffic.stop gen));
  Simulator.run ~until:(Simtime.of_ns 10_000_000_000) sim;
  Alcotest.(check bool) "stops near 10 packets" true (!count <= 12)

let test_onoff_produces_less_than_cbr () =
  let run_pattern pattern =
    let sim = Simulator.create ~seed:9 () in
    let ids = Ids.create () in
    let count = ref 0 in
    let _gen =
      Cross_traffic.start sim
        ~rng:(Rng.split (Simulator.rng sim))
        ~pattern ~src:(addr 0) ~dst:(addr 1) ~conn:900
        ~alloc_id:(fun () -> Ids.next ids)
        ~send:(fun _ -> incr count)
    in
    Simulator.run ~until:(Simtime.of_ns 50_000_000_000) sim;
    !count
  in
  let cbr =
    run_pattern (Cross_traffic.Cbr { rate = Units.kbps 56.0; packet_bytes = 700 })
  in
  let onoff =
    run_pattern
      (Cross_traffic.On_off
         {
           rate = Units.kbps 56.0;
           packet_bytes = 700;
           mean_on = Simtime.span_sec 1.0;
           mean_off = Simtime.span_sec 1.0;
         })
  in
  Alcotest.(check bool)
    (Printf.sprintf "on/off (%d) < cbr (%d)" onoff cbr)
    true (onoff < cbr)

let test_congested_run_completes () =
  let s = Scenario.wan ~scheme:Scenario.Ebsn ~seed:5 () in
  let s =
    {
      s with
      Scenario.cross_down =
        Some (Cross_traffic.Cbr { rate = Units.kbps 28.0; packet_bytes = 576 });
    }
  in
  let outcome = Wiring.run s in
  Alcotest.(check bool) "completes under 50% reverse load" true
    outcome.Wiring.completed

(* ------------------------------------------------------------------ *)
(* Handoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_handoff_both_policies_complete () =
  List.iter
    (fun policy ->
      let r = Handoff.run ~seed:2 ~policy () in
      Alcotest.(check bool)
        (Handoff.policy_name policy ^ " completes")
        true r.Handoff.completed;
      Alcotest.(check bool) "handoffs happened" true (r.Handoff.handoffs > 0))
    [ Handoff.Plain; Handoff.Fast_rtx ]

let test_handoff_fast_rtx_beats_plain () =
  let mean policy =
    let xs =
      List.map
        (fun seed -> (Handoff.run ~seed ~policy ()).Handoff.throughput_bps)
        [ 1; 2; 3 ]
    in
    List.fold_left ( +. ) 0.0 xs /. 3.0
  in
  let plain = mean Handoff.Plain and fast = mean Handoff.Fast_rtx in
  Alcotest.(check bool)
    (Printf.sprintf "fast-rtx %.0f > plain %.0f" fast plain)
    true (fast > plain *. 1.2)

let test_handoff_reroute_completes () =
  let r = Handoff.run ~seed:2 ~policy:Handoff.Fast_rtx_reroute () in
  Alcotest.(check bool) "completes" true r.Handoff.completed;
  Alcotest.(check int) "no timeouts" 0 r.Handoff.source_timeouts

let test_handoff_plain_times_out () =
  let plain = Handoff.run ~seed:1 ~policy:Handoff.Plain () in
  let fast = Handoff.run ~seed:1 ~policy:Handoff.Fast_rtx () in
  Alcotest.(check bool) "plain loses to the timer" true
    (plain.Handoff.source_timeouts > 0);
  Alcotest.(check int) "fast-rtx avoids timeouts" 0
    fast.Handoff.source_timeouts;
  Alcotest.(check bool) "fast-rtx uses fast retransmit" true
    (fast.Handoff.fast_retransmits > 0)

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_basic () =
  let out = Report.csv ~columns:[ "a"; "b" ] ~rows:[ [ "1"; "2" ] ] in
  Alcotest.(check string) "plain" "a,b\n1,2\n" out

let test_csv_escaping () =
  let out =
    Report.csv ~columns:[ "name" ] ~rows:[ [ "has,comma" ]; [ "has\"quote" ] ]
  in
  Alcotest.(check string) "quoted" "name\n\"has,comma\"\n\"has\"\"quote\"\n" out

let test_csv_wan_sweep () =
  let series =
    Wan_sweep.compute ~replications:1 ~packet_sizes:[ 512 ]
      ~bad_periods_sec:[ 1.0 ] ~scheme:Scenario.Basic
      ~metric:Sweep.throughput ()
  in
  let out = Wan_sweep.to_csv series in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "header + one row" 2 (List.length lines);
  Alcotest.(check bool) "header names the bad period" true
    (String.length (List.hd lines) > 0)

let () =
  Alcotest.run "extensions"
    [
      ( "reno",
        [
          Alcotest.test_case "enters fast recovery" `Quick
            test_reno_enters_fast_recovery;
          Alcotest.test_case "inflates per dupack" `Quick
            test_reno_inflates_per_dupack;
          Alcotest.test_case "deflates on new ack" `Quick
            test_reno_deflates_on_new_ack;
          Alcotest.test_case "timeout collapses" `Quick
            test_reno_timeout_still_collapses;
          Alcotest.test_case "end to end" `Quick test_reno_end_to_end;
        ] );
      ( "sack",
        [
          Alcotest.test_case "sink reports blocks" `Quick
            test_sack_sink_reports_blocks;
          Alcotest.test_case "fills holes only" `Quick
            test_sack_sender_fills_holes_only;
          Alcotest.test_case "partial ack continues" `Quick
            test_sack_partial_ack_continues_recovery;
          Alcotest.test_case "end to end" `Quick test_sack_end_to_end;
        ] );
      ( "delayed_ack",
        [
          Alcotest.test_case "every second segment" `Quick
            test_delack_every_second_segment;
          Alcotest.test_case "timeout fires" `Quick test_delack_timeout_fires;
          Alcotest.test_case "immediate when out of order" `Quick
            test_delack_immediate_on_out_of_order;
          Alcotest.test_case "off acks everything" `Quick
            test_delack_off_acks_everything;
          Alcotest.test_case "end to end" `Quick test_delack_end_to_end;
        ] );
      ( "cross_traffic",
        [
          Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
          Alcotest.test_case "stop" `Quick test_cbr_stop;
          Alcotest.test_case "on/off bursts" `Quick
            test_onoff_produces_less_than_cbr;
          Alcotest.test_case "congested run" `Quick test_congested_run_completes;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "both policies complete" `Quick
            test_handoff_both_policies_complete;
          Alcotest.test_case "fast-rtx beats plain" `Slow
            test_handoff_fast_rtx_beats_plain;
          Alcotest.test_case "plain times out" `Quick test_handoff_plain_times_out;
          Alcotest.test_case "reroute completes" `Quick
            test_handoff_reroute_completes;
        ] );
      ( "csv",
        [
          Alcotest.test_case "basic" `Quick test_csv_basic;
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "wan sweep" `Quick test_csv_wan_sweep;
        ] );
    ]
