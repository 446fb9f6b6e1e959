(* Tests for scenarios and the full FH-BS-MH wiring. *)

open Core

let run = Wiring.run

(* A run that records the source-side trace, as figures 3-5 do. *)
let traced = { (Obs.Config.default ()) with Obs.Config.trace = true }
let trace_of outcome = Option.get outcome.Wiring.trace

(* ------------------------------------------------------------------ *)
(* Scenario presets                                                    *)
(* ------------------------------------------------------------------ *)

let test_wan_preset () =
  let s = Scenario.wan () in
  Alcotest.(check int) "wired 56k" 56_000
    (Units.bandwidth_to_bps s.Scenario.wired.Scenario.bandwidth);
  Alcotest.(check int) "wireless raw 19.2k" 19_200
    (Units.bandwidth_to_bps s.Scenario.wireless.Scenario.raw_bandwidth);
  Alcotest.(check (option int)) "mtu 128" (Some 128)
    s.Scenario.wireless.Scenario.mtu;
  Alcotest.(check (float 1e-9)) "overhead 1.5" 1.5
    s.Scenario.wireless.Scenario.overhead_factor;
  Alcotest.(check (float 1e-9)) "effective 12.8k" 12_800.0
    (Scenario.effective_wireless_bps s);
  Alcotest.(check int) "4KB window" 4096 s.Scenario.tcp.Tcp_config.window;
  Alcotest.(check int) "576B packets" 576 (Tcp_config.packet_size s.Scenario.tcp);
  Alcotest.(check int) "100KB file" 102_400 s.Scenario.file_bytes;
  Alcotest.(check int) "100ms tick" 100_000_000
    (Simtime.span_to_ns s.Scenario.tcp.Tcp_config.tick);
  Alcotest.(check int) "RTmax 13" 13 s.Scenario.arq.Arq.rt_max

let test_lan_preset () =
  let s = Scenario.lan () in
  Alcotest.(check int) "wired 10M" 10_000_000
    (Units.bandwidth_to_bps s.Scenario.wired.Scenario.bandwidth);
  Alcotest.(check int) "wireless 2M" 2_000_000
    (Units.bandwidth_to_bps s.Scenario.wireless.Scenario.raw_bandwidth);
  Alcotest.(check (option int)) "no fragmentation" None
    s.Scenario.wireless.Scenario.mtu;
  Alcotest.(check (float 1e-9)) "tput_max 2M" 2_000_000.0
    (Scenario.effective_wireless_bps s);
  Alcotest.(check int) "64KB window" 65_536 s.Scenario.tcp.Tcp_config.window;
  Alcotest.(check int) "4MB file" 4_194_304 s.Scenario.file_bytes

let test_scenario_helpers () =
  let s = Scenario.wan () in
  let s2 = Scenario.with_scheme s Scenario.Ebsn in
  Alcotest.(check string) "scheme changed" "ebsn"
    (Scenario.scheme_name s2.Scenario.scheme);
  let s3 = Scenario.with_seed s 42 in
  Alcotest.(check int) "seed changed" 42 s3.Scenario.seed;
  Alcotest.(check int) "six schemes" 6 (List.length Scenario.all_schemes);
  Alcotest.(check bool) "describe mentions scheme" true
    (String.length (Scenario.describe s) > 10)

(* ------------------------------------------------------------------ *)
(* Wiring: end-to-end runs                                             *)
(* ------------------------------------------------------------------ *)

let near_perfect_wan ?(scheme = Scenario.Basic) () =
  (* Mean bad period of 1 ms every ~3 hours: effectively error-free. *)
  Scenario.wan ~scheme ~mean_bad_sec:0.001 ~mean_good_sec:10_000.0 ()

let test_perfect_channel_reaches_capacity () =
  let outcome = run (near_perfect_wan ()) in
  Alcotest.(check bool) "completed" true outcome.Wiring.completed;
  let tput = Wiring.throughput_bps outcome in
  (* Effective wireless capacity is 12.8 kbps; with ack traffic and
     slow start the transfer should still exceed 95% of it. *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f near 12800" tput)
    true
    (tput > 12_200.0 && tput <= 12_800.0);
  Alcotest.(check (float 1e-9)) "goodput 1.0" 1.0 (Wiring.goodput outcome);
  Alcotest.(check int) "no timeouts" 0 (Wiring.source_timeouts outcome)

let test_deterministic_same_seed_same_outcome () =
  let s = Scenario.wan ~scheme:Scenario.Ebsn ~seed:7 () in
  let a = run ~obs:traced s and b = run ~obs:traced s in
  Alcotest.(check (float 1e-12)) "same throughput"
    (Wiring.throughput_bps a) (Wiring.throughput_bps b);
  Alcotest.(check int) "same timeouts" (Wiring.source_timeouts a)
    (Wiring.source_timeouts b);
  Alcotest.(check int) "same ebsn count" a.Wiring.ebsn_sent b.Wiring.ebsn_sent;
  Alcotest.(check int) "same trace length"
    (Trace.length (trace_of a))
    (Trace.length (trace_of b))

let test_different_seed_different_outcome () =
  let a = run (Scenario.wan ~seed:1 ()) in
  let b = run (Scenario.wan ~seed:2 ()) in
  Alcotest.(check bool) "different realisations" true
    (Wiring.throughput_bps a <> Wiring.throughput_bps b)

let test_all_schemes_complete () =
  List.iter
    (fun scheme ->
      let outcome = run (Scenario.wan ~scheme ~seed:3 ()) in
      Alcotest.(check bool)
        (Scenario.scheme_name scheme ^ " completes")
        true outcome.Wiring.completed;
      Alcotest.(check bool)
        (Scenario.scheme_name scheme ^ " delivers the file")
        true
        (outcome.Wiring.sink_stats.Tcp_sink.bytes_delivered = 102_400))
    Scenario.all_schemes

let test_ebsn_beats_basic_wan () =
  let mean scheme =
    Summary.mean
      (List.map
         (fun seed ->
           Wiring.throughput_bps (run (Scenario.wan ~scheme ~seed ())))
         [ 11; 22; 33; 44; 55 ])
  in
  let basic = mean Scenario.Basic and ebsn = mean Scenario.Ebsn in
  Alcotest.(check bool)
    (Printf.sprintf "ebsn %.0f > basic %.0f by >20%%" ebsn basic)
    true
    (ebsn > basic *. 1.2)

let test_ebsn_suppresses_timeouts () =
  let totals scheme =
    List.fold_left
      (fun acc seed ->
        acc + Wiring.source_timeouts (run (Scenario.wan ~scheme ~seed ())))
      0 [ 11; 22; 33 ]
  in
  let basic = totals Scenario.Basic in
  let ebsn = totals Scenario.Ebsn in
  Alcotest.(check bool) "basic times out" true (basic > 5);
  Alcotest.(check bool)
    (Printf.sprintf "ebsn (%d) nearly eliminates timeouts vs basic (%d)" ebsn
       basic)
    true
    (ebsn <= basic / 5)

let test_local_recovery_reduces_source_retransmissions () =
  let retx scheme =
    Summary.mean
      (List.map
         (fun seed ->
           Wiring.retransmitted_kbytes (run (Scenario.wan ~scheme ~seed ())))
         [ 11; 22; 33 ])
  in
  let basic = retx Scenario.Basic in
  let local = retx Scenario.Local_recovery in
  Alcotest.(check bool)
    (Printf.sprintf "local recovery %.1fKB < basic %.1fKB" local basic)
    true (local < basic)

let test_ebsn_messages_flow () =
  let outcome = run ~obs:traced (Scenario.wan ~scheme:Scenario.Ebsn ~seed:5 ()) in
  Alcotest.(check bool) "BS sent EBSNs" true (outcome.Wiring.ebsn_sent > 0);
  let received =
    outcome.Wiring.sender_stats.Tcp_stats.ebsns_received
  in
  Alcotest.(check bool) "source received most of them" true
    (received > outcome.Wiring.ebsn_sent / 2);
  Alcotest.(check bool) "trace recorded them" true
    (Trace.count (trace_of outcome) (fun e -> e = Trace.Ebsn_received) > 0)

let test_no_ebsn_outside_ebsn_scheme () =
  List.iter
    (fun scheme ->
      let outcome = run (Scenario.wan ~scheme ~seed:5 ()) in
      Alcotest.(check int)
        (Scenario.scheme_name scheme ^ " sends no ebsn")
        0 outcome.Wiring.ebsn_sent)
    [ Scenario.Basic; Scenario.Local_recovery; Scenario.Quench; Scenario.Snoop ]

let test_quench_messages_flow () =
  let outcome = run (Scenario.wan ~scheme:Scenario.Quench ~seed:5 ()) in
  Alcotest.(check bool) "quenches sent" true (outcome.Wiring.quench_sent > 0);
  Alcotest.(check bool) "source received quenches" true
    (outcome.Wiring.sender_stats.Tcp_stats.quenches_received > 0)

let test_arq_stats_presence () =
  let with_arq = run (Scenario.wan ~scheme:Scenario.Local_recovery ~seed:5 ()) in
  Alcotest.(check bool) "arq stats present" true
    (with_arq.Wiring.arq_stats <> None);
  let without = run (Scenario.wan ~scheme:Scenario.Basic ~seed:5 ()) in
  Alcotest.(check bool) "no arq stats for basic" true
    (without.Wiring.arq_stats = None)

let test_snoop_agent_active () =
  let outcome = run (Scenario.wan ~scheme:Scenario.Snoop ~seed:5 ()) in
  match outcome.Wiring.snoop_stats with
  | Some stats ->
    Alcotest.(check bool) "cached packets" true (stats.Snoop.cached > 0);
    Alcotest.(check bool) "did local retransmissions" true
      (stats.Snoop.local_retransmits > 0)
  | None -> Alcotest.fail "snoop stats missing"

let test_split_goodput_is_one () =
  let outcome = run (Scenario.wan ~scheme:Scenario.Split ~seed:5 ()) in
  (* The fixed-host source never retransmits: the BS absorbs all
     wireless losses (the end-to-end semantics violation). *)
  Alcotest.(check (float 1e-9)) "source goodput 1.0" 1.0
    (Wiring.goodput outcome);
  Alcotest.(check int) "no source timeouts" 0 (Wiring.source_timeouts outcome)

let test_uplink_arq_variant_completes () =
  let s = Scenario.wan ~scheme:Scenario.Local_recovery ~seed:5 () in
  let s = { s with Scenario.uplink_arq = true } in
  let outcome = run s in
  Alcotest.(check bool) "completes with symmetric ARQ" true
    outcome.Wiring.completed

let test_deterministic_mode_threshold_losses () =
  (* Under the deterministic model with the paper's BERs, every frame
     sent wholly inside a good period survives, so a perfect-channel
     equivalent (bad period tiny) gives zero wireless losses. *)
  let s =
    Scenario.wan ~error_mode:Scenario.Deterministic ~mean_bad_sec:0.0001
      ~mean_good_sec:10_000.0 ()
  in
  let outcome = run s in
  Alcotest.(check int) "no downlink losses" 0
    outcome.Wiring.downlink_stats.Wireless_link.frames_lost

let test_replay_mode_deterministic () =
  let periods =
    [
      (Channel_state.Good, Simtime.span_sec 5.0);
      (Channel_state.Bad, Simtime.span_sec 1.0);
    ]
  in
  let s =
    Scenario.wan ~scheme:Scenario.Basic
      ~error_mode:(Scenario.Replay periods) ~file_bytes:20_480 ()
  in
  let a = run s and b = run s in
  Alcotest.(check bool) "completed" true a.Wiring.completed;
  Alcotest.(check (float 1e-12)) "replay exactly reproducible"
    (Wiring.throughput_bps a) (Wiring.throughput_bps b);
  Alcotest.(check bool) "fades actually lose frames" true
    (a.Wiring.downlink_stats.Wireless_link.frames_lost > 0)

let test_lan_completes_quickly () =
  let outcome = run (Scenario.lan ~scheme:Scenario.Ebsn ~seed:5 ()) in
  Alcotest.(check bool) "completed" true outcome.Wiring.completed;
  Alcotest.(check bool) "throughput above 1 Mbps" true
    (Wiring.throughput_bps outcome > 1_000_000.0)

(* The source-side trace exists iff the run traces, and a traced run
   records exactly the events it recorded when every run kept it: the
   count and MD5 of each rendering were taken at the commit before the
   trace became optional. *)
let render_trace trace =
  String.concat ""
    (List.map
       (fun (time, event) ->
         Printf.sprintf "%d %s\n" (Simtime.to_ns time)
           (match event with
           | Trace.Send { packet_number; seq; retransmit } ->
             Printf.sprintf "send %d %d %b" packet_number seq retransmit
           | Trace.Timeout -> "timeout"
           | Trace.Ebsn_received -> "ebsn"
           | Trace.Quench_received -> "quench"
           | Trace.Custom s -> s))
       (Trace.events trace))

let test_source_trace_only_when_tracing () =
  List.iter
    (fun (scheme, seed, events, md5) ->
      let s = Scenario.wan ~scheme ~seed () in
      let name = Printf.sprintf "%s seed %d" (Scenario.scheme_name scheme) seed in
      Alcotest.(check bool) (name ^ ": no trace when off") true
        (Option.is_none (run ~obs:Obs.Config.off s).Wiring.trace);
      match (run ~obs:{ Obs.Config.off with trace = true } s).Wiring.trace with
      | None -> Alcotest.fail (name ^ ": no trace when tracing")
      | Some trace ->
        Alcotest.(check int) (name ^ ": events") events (Trace.length trace);
        Alcotest.(check string) (name ^ ": MD5") md5
          (Digest.to_hex (Digest.string (render_trace trace))))
    [
      (Scenario.Ebsn, 1, 597, "c3ba5a8c251d6a3ca8330d252e5f1fed");
      (Scenario.Quench, 5, 431, "d7e10f6a30eb20810b192488b73ab7f9");
      (Scenario.Basic, 6, 347, "85585bbdccd2912f95e122e09f551a52");
    ]

(* Minor-heap words per executed event for one run, after a warm-up
   run of the same scenario.  Exact counts depend on the compiler, so
   whole runs get a ceiling, about 10% above what the packet path
   reaches with OCaml 5.1 in the dev profile (4.99 WAN, 5.00 LAN),
   rather than an equality.  What is left is mostly the packets,
   frames, link acks, reassembly entries and EBSN packets
   themselves. *)
let check_words_per_event scenario ~ceiling =
  ignore (run scenario);
  let before = Gc.minor_words () in
  let outcome = run scenario in
  let words = Gc.minor_words () -. before in
  let per_event = words /. float_of_int outcome.Wiring.events_executed in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/event <= %.1f" per_event ceiling)
    true (per_event <= ceiling)

let test_wan_words_per_event () =
  check_words_per_event (Scenario.wan ~scheme:Scenario.Ebsn ~seed:1 ())
    ~ceiling:5.5

let test_lan_words_per_event () =
  check_words_per_event (Scenario.lan ~seed:1 ()) ~ceiling:5.5

let () =
  Alcotest.run "topology"
    [
      ( "scenario",
        [
          Alcotest.test_case "wan preset" `Quick test_wan_preset;
          Alcotest.test_case "lan preset" `Quick test_lan_preset;
          Alcotest.test_case "helpers" `Quick test_scenario_helpers;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "perfect channel capacity" `Quick
            test_perfect_channel_reaches_capacity;
          Alcotest.test_case "determinism" `Quick
            test_deterministic_same_seed_same_outcome;
          Alcotest.test_case "seed sensitivity" `Quick
            test_different_seed_different_outcome;
          Alcotest.test_case "all schemes complete" `Slow
            test_all_schemes_complete;
          Alcotest.test_case "ebsn beats basic" `Slow test_ebsn_beats_basic_wan;
          Alcotest.test_case "ebsn suppresses timeouts" `Slow
            test_ebsn_suppresses_timeouts;
          Alcotest.test_case "local recovery cuts retx" `Slow
            test_local_recovery_reduces_source_retransmissions;
          Alcotest.test_case "ebsn messages flow" `Quick test_ebsn_messages_flow;
          Alcotest.test_case "no ebsn elsewhere" `Slow
            test_no_ebsn_outside_ebsn_scheme;
          Alcotest.test_case "quench messages flow" `Quick
            test_quench_messages_flow;
          Alcotest.test_case "arq stats presence" `Quick test_arq_stats_presence;
          Alcotest.test_case "snoop active" `Quick test_snoop_agent_active;
          Alcotest.test_case "split goodput 1.0" `Quick test_split_goodput_is_one;
          Alcotest.test_case "uplink arq" `Quick test_uplink_arq_variant_completes;
          Alcotest.test_case "deterministic losses" `Quick
            test_deterministic_mode_threshold_losses;
          Alcotest.test_case "replay mode" `Quick test_replay_mode_deterministic;
          Alcotest.test_case "lan run" `Slow test_lan_completes_quickly;
          Alcotest.test_case "wan ebsn words per event" `Quick
            test_wan_words_per_event;
          Alcotest.test_case "lan words per event" `Quick
            test_lan_words_per_event;
          Alcotest.test_case "source trace only when tracing" `Quick
            test_source_trace_only_when_tracing;
        ] );
    ]
