(* A laptop on a 2 Mbps wireless LAN synchronises a 4 MB dataset from
   a wired server while walking through patchy coverage — the paper's
   §4.2.4 local-area scenario, where the tiny round-trip time makes
   TCP especially timeout-prone during local recovery.

   Prints the throughput across fade intensities and a packet trace of
   the worst case, with and without EBSN.

     dune exec examples/wireless_lan_sync.exe *)

let sync scheme ~mean_bad_sec ~seed =
  let scenario = Core.Scenario.lan ~scheme ~mean_bad_sec ~seed () in
  (scenario, Core.Wiring.run scenario)

let () =
  print_endline "4 MB sync over a 2 Mbps wireless LAN (mean good period 4 s)";
  print_endline "";
  Printf.printf "%-10s %14s %14s %10s\n" "fade (s)" "basic (Mbps)"
    "ebsn (Mbps)" "ceiling";
  List.iter
    (fun bad ->
      let _, basic = sync Core.Scenario.Basic ~mean_bad_sec:bad ~seed:3 in
      let s, ebsn = sync Core.Scenario.Ebsn ~mean_bad_sec:bad ~seed:3 in
      Printf.printf "%-10.1f %14.2f %14.2f %10.2f\n" bad
        (Core.Wiring.throughput_bps basic /. 1e6)
        (Core.Wiring.throughput_bps ebsn /. 1e6)
        (Core.Theory.tput_th_scenario s /. 1e6))
    [ 0.4; 0.8; 1.2; 1.6 ];

  (* Show what the source actually does during the fades: the first
     20 seconds of a deterministic-fade run, with and without EBSN. *)
  let trace scheme =
    let scenario =
      Core.Scenario.lan ~scheme ~mean_bad_sec:1.0
        ~error_mode:Core.Scenario.Deterministic ~file_bytes:(1 lsl 20) ~seed:3
        ()
    in
    (* The source-side trace is recorded only when the run traces. *)
    let obs =
      { (Core.Obs.Config.default ()) with Core.Obs.Config.trace = true }
    in
    let outcome = Core.Wiring.run ~obs scenario in
    Core.Timeseq.render
      ~config:{ Core.Timeseq.default_config with Core.Timeseq.modulo = 720 }
      ~until:(Core.Simtime.of_ns 10_000_000_000)
      (Core.Trace.sends (Option.get outcome.Core.Wiring.trace))
  in
  print_endline "\nsource trace, basic TCP (fades at 4-5s and 9-10s; R = retransmission):";
  print_endline (trace Core.Scenario.Basic);
  print_endline "source trace, TCP with EBSN (no source retransmissions):";
  print_endline (trace Core.Scenario.Ebsn)
