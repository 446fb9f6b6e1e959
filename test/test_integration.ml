(* Cross-module integration tests: whole-system invariants that only
   hold when every layer cooperates. *)

open Core

(* Naive substring search, enough for printer smoke tests. *)
module Astring_contains = struct
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    n = 0 || at 0
end

let run = Wiring.run

(* The source-side trace is recorded only when the run traces. *)
let traced_sends scenario =
  let obs = { (Obs.Config.default ()) with Obs.Config.trace = true } in
  Trace.sends (Option.get (Wiring.run ~obs scenario).Wiring.trace)

(* ------------------------------------------------------------------ *)
(* Conservation invariants                                             *)
(* ------------------------------------------------------------------ *)

let check_conservation scheme seed =
  let outcome = run (Scenario.wan ~scheme ~seed ()) in
  Alcotest.(check bool) "completed" true outcome.Wiring.completed;
  let sender = outcome.Wiring.sender_stats in
  let sink = outcome.Wiring.sink_stats in
  (* The sink never delivers more than the source emitted. *)
  Alcotest.(check bool) "delivered <= sent" true
    (sink.Tcp_sink.bytes_delivered <= sender.Tcp_stats.bytes_sent);
  (* Retransmitted payload is part of total payload sent. *)
  Alcotest.(check bool) "retx <= sent" true
    (sender.Tcp_stats.bytes_retransmitted <= sender.Tcp_stats.bytes_sent);
  (* The file arrived exactly. *)
  Alcotest.(check int) "file delivered" 102_400 sink.Tcp_sink.bytes_delivered;
  (* Wireless accounting: delivered + lost <= sent frames. *)
  let d = outcome.Wiring.downlink_stats in
  Alcotest.(check bool) "downlink frames conserve" true
    (d.Wireless_link.frames_delivered + d.Wireless_link.frames_lost
    <= d.Wireless_link.frames_sent);
  (* Goodput is a proper fraction. *)
  let g = Wiring.goodput outcome in
  Alcotest.(check bool) "goodput in (0,1]" true (g > 0.0 && g <= 1.0)

let test_conservation_all_schemes () =
  List.iter (fun scheme -> check_conservation scheme 9) Scenario.all_schemes

let test_arq_accounting () =
  let outcome = run (Scenario.wan ~scheme:Scenario.Local_recovery ~seed:4 ()) in
  match outcome.Wiring.arq_stats with
  | None -> Alcotest.fail "arq stats missing"
  | Some a ->
    Alcotest.(check bool) "retransmissions < transmissions" true
      (a.Arq.retransmissions < a.Arq.transmissions);
    Alcotest.(check bool) "completions + discards bounded" true
      (a.Arq.completions + a.Arq.discards
      <= a.Arq.transmissions);
    Alcotest.(check int) "nothing left waiting" 0 (a.Arq.sched_drops)

(* ------------------------------------------------------------------ *)
(* Ordering invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_send_times_monotonic () =
  let sends = traced_sends (Scenario.wan ~scheme:Scenario.Basic ~seed:6 ()) in
  let times = List.map (fun (t, _, _) -> t) sends in
  let rec monotone = function
    | a :: (b :: _ as rest) -> Simtime.(a <= b) && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sends in time order" true (monotone times)

let test_first_send_covers_first_byte () =
  match traced_sends (Scenario.wan ~seed:6 ()) with
  | (_, packet_number, retx) :: _ ->
    Alcotest.(check int) "first packet number 0" 0 packet_number;
    Alcotest.(check bool) "first send not a retransmission" false retx
  | [] -> Alcotest.fail "no sends traced"

(* ------------------------------------------------------------------ *)
(* Paper-shape invariants (WAN)                                        *)
(* ------------------------------------------------------------------ *)

let mean_over seeds f =
  Summary.mean (List.map f seeds)

let test_throughput_monotone_in_bad_period () =
  (* Figure 7's first observation: for a fixed packet size, throughput
     falls as the mean bad period grows. *)
  let seeds = [ 11; 22; 33; 44; 55 ] in
  let tput bad =
    mean_over seeds (fun seed ->
        Wiring.throughput_bps
          (run (Scenario.wan ~mean_bad_sec:bad ~seed ())))
  in
  let t1 = tput 1.0 and t4 = tput 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "tput(bad=1s)=%.0f > tput(bad=4s)=%.0f" t1 t4)
    true (t1 > t4)

let test_throughput_below_theory () =
  let seeds = [ 11; 22; 33 ] in
  List.iter
    (fun scheme ->
      let s = Scenario.wan ~scheme ~mean_bad_sec:2.0 () in
      let th = Theory.tput_th_scenario s in
      let tput =
        mean_over seeds (fun seed ->
            Wiring.throughput_bps (run (Scenario.with_seed s seed)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f <= tput_th %.0f (+5%% slack)"
           (Scenario.scheme_name scheme) tput th)
        true
        (tput <= th *. 1.05))
    [ Scenario.Basic; Scenario.Local_recovery; Scenario.Ebsn ]

let test_ebsn_close_to_theory_large_packets () =
  (* Figure 8: with EBSN and large packets, throughput is close to
     tput_th. *)
  let seeds = [ 11; 22; 33; 44; 55 ] in
  let s = Scenario.wan ~scheme:Scenario.Ebsn ~packet_size:1536 ~mean_bad_sec:2.0 () in
  let th = Theory.tput_th_scenario s in
  let tput =
    mean_over seeds (fun seed ->
        Wiring.throughput_bps (run (Scenario.with_seed s seed)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "ebsn %.0f within 15%% of tput_th %.0f" tput th)
    true
    (tput > th *. 0.85)

let test_basic_fragmentation_penalty () =
  (* Figure 7 vs Figure 8: under basic TCP large packets lose more data
     per wireless loss event, so the source retransmits more than with
     small packets; with EBSN the volume is small either way. *)
  let seeds = [ 11; 22; 33; 44; 55 ] in
  let retx scheme size =
    mean_over seeds (fun seed ->
        Wiring.retransmitted_kbytes
          (run (Scenario.wan ~scheme ~packet_size:size ~mean_bad_sec:4.0 ~seed ())))
  in
  let basic_large = retx Scenario.Basic 1536 in
  let basic_small = retx Scenario.Basic 256 in
  let ebsn_large = retx Scenario.Ebsn 1536 in
  Alcotest.(check bool)
    (Printf.sprintf "basic: retx grows with size (%.1f > %.1f)" basic_large
       basic_small)
    true (basic_large > basic_small);
  Alcotest.(check bool)
    (Printf.sprintf "ebsn large-packet retx (%.1f) far below basic (%.1f)"
       ebsn_large basic_large)
    true
    (ebsn_large < basic_large /. 2.0)

(* ------------------------------------------------------------------ *)
(* Paper-shape invariants (LAN)                                        *)
(* ------------------------------------------------------------------ *)

let test_lan_ebsn_improvement () =
  let seeds = [ 11; 22; 33 ] in
  let tput scheme =
    mean_over seeds (fun seed ->
        Wiring.throughput_bps
          (run (Scenario.lan ~scheme ~mean_bad_sec:1.2 ~seed ())))
  in
  let basic = tput Scenario.Basic and ebsn = tput Scenario.Ebsn in
  Alcotest.(check bool)
    (Printf.sprintf "lan ebsn %.0f > basic %.0f by >15%%" ebsn basic)
    true
    (ebsn > basic *. 1.15)

let test_lan_ebsn_goodput_near_one () =
  let outcome = run (Scenario.lan ~scheme:Scenario.Ebsn ~seed:11 ()) in
  Alcotest.(check bool) "goodput ~1 (paper: 100%)" true
    (Wiring.goodput outcome > 0.97)

(* ------------------------------------------------------------------ *)
(* Timer-granularity claim (§6)                                        *)
(* ------------------------------------------------------------------ *)

let test_granularity_hurts_local_recovery_not_ebsn () =
  let seeds = [ 11; 22; 33 ] in
  let timeouts scheme tick_ms =
    List.fold_left
      (fun acc seed ->
        let s = Scenario.wan ~scheme ~seed () in
        let s =
          {
            s with
            Scenario.tcp =
              { s.Scenario.tcp with Tcp_config.tick = Simtime.span_ms tick_ms };
          }
        in
        acc + Wiring.source_timeouts (run s))
      0 seeds
  in
  let local_fine = timeouts Scenario.Local_recovery 100 in
  let ebsn_fine = timeouts Scenario.Ebsn 100 in
  Alcotest.(check bool)
    (Printf.sprintf "fine timers: local recovery %d timeouts vs ebsn %d"
       local_fine ebsn_fine)
    true
    (ebsn_fine < local_fine)

(* ------------------------------------------------------------------ *)
(* Horizon safety                                                      *)
(* ------------------------------------------------------------------ *)

let test_horizon_reports_incomplete () =
  let s = Scenario.wan ~seed:1 () in
  let s = { s with Scenario.horizon = Simtime.span_sec 5.0 } in
  let outcome = run s in
  Alcotest.(check bool) "not completed in 5s" false outcome.Wiring.completed;
  Alcotest.(check bool) "no result" true (outcome.Wiring.result = None);
  Alcotest.(check (float 1e-9)) "throughput 0" 0.0
    (Wiring.throughput_bps outcome)

(* ------------------------------------------------------------------ *)
(* Printers (smoke: non-empty, mention the key fields)                 *)
(* ------------------------------------------------------------------ *)

let test_printers () =
  let pkt =
    Packet.create ~id:7 ~src:(Address.make 0) ~dst:(Address.make 2)
      ~kind:(Packet.Tcp_ack { conn = 1; ack = 42; sack = [ (100, 200) ] })
      ~header_bytes:40 ~created:Simtime.zero
  in
  let s = Format.asprintf "%a" Packet.pp pkt in
  Alcotest.(check bool) "packet pp mentions ack" true
    (Astring_contains.contains s "ack=42");
  Alcotest.(check bool) "packet pp mentions sack" true
    (Astring_contains.contains s "100-200");
  let stats = Tcp_stats.create () in
  stats.Tcp_stats.timeouts <- 3;
  let s = Format.asprintf "%a" Tcp_stats.pp stats in
  Alcotest.(check bool) "stats pp mentions timeouts" true
    (Astring_contains.contains s "timeouts: 3");
  let summary = Summary.of_list [ 1.0; 2.0; 3.0 ] in
  let s = Format.asprintf "%a" Summary.pp summary in
  Alcotest.(check bool) "summary pp mentions n" true
    (Astring_contains.contains s "n=3");
  let s =
    Scenario.describe
      (Scenario.wan
         ~error_mode:
           (Scenario.Replay [ (Channel_state.Good, Simtime.span_sec 1.0) ])
         ())
  in
  Alcotest.(check bool) "describe mentions replay" true
    (Astring_contains.contains s "replay(1)");
  let s =
    Format.asprintf "%a" Units.pp_bandwidth (Units.kbps 19.2)
  in
  Alcotest.(check string) "bandwidth pp" "19.2kbps" s

let () =
  Alcotest.run "integration"
    [
      ( "conservation",
        [
          Alcotest.test_case "all schemes" `Slow test_conservation_all_schemes;
          Alcotest.test_case "arq accounting" `Quick test_arq_accounting;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "sends monotone" `Quick
            test_trace_send_times_monotonic;
          Alcotest.test_case "first send" `Quick test_first_send_covers_first_byte;
        ] );
      ( "paper shape wan",
        [
          Alcotest.test_case "tput falls with bad period" `Slow
            test_throughput_monotone_in_bad_period;
          Alcotest.test_case "below theory" `Slow test_throughput_below_theory;
          Alcotest.test_case "ebsn near theory" `Slow
            test_ebsn_close_to_theory_large_packets;
          Alcotest.test_case "fragmentation penalty" `Slow
            test_basic_fragmentation_penalty;
        ] );
      ( "paper shape lan",
        [
          Alcotest.test_case "ebsn improvement" `Slow test_lan_ebsn_improvement;
          Alcotest.test_case "ebsn goodput" `Slow test_lan_ebsn_goodput_near_one;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "fine timers hurt local recovery" `Slow
            test_granularity_hurts_local_recovery_not_ebsn;
        ] );
      ( "printers", [ Alcotest.test_case "smoke" `Quick test_printers ] );
      ( "horizon",
        [
          Alcotest.test_case "incomplete reported" `Quick
            test_horizon_reports_incomplete;
        ] );
    ]
