(* Tests for the experiments layer: Theory, Sweep, Report, the figure
   modules (with the fig7/fig10 byte pins), the CSDP experiment and the
   packet-size advisor. *)

open Core

(* ------------------------------------------------------------------ *)
(* Theory                                                              *)
(* ------------------------------------------------------------------ *)

let test_theory_good_fraction () =
  Alcotest.(check (float 1e-9)) "10/(10+4)" (10.0 /. 14.0)
    (Theory.good_fraction ~mean_good_sec:10.0 ~mean_bad_sec:4.0);
  Alcotest.check_raises "zero mean rejected"
    (Invalid_argument "Theory.good_fraction: means must be positive")
    (fun () ->
      ignore (Theory.good_fraction ~mean_good_sec:0.0 ~mean_bad_sec:1.0))

let test_theory_tput_th_values () =
  (* The paper's WAN numbers: tput_max 12.8 kbps, good 10 s. *)
  let th bad =
    Theory.tput_th ~tput_max_bps:12_800.0 ~mean_good_sec:10.0
      ~mean_bad_sec:bad
  in
  Alcotest.(check (float 1.0)) "bad=1s" 11_636.4 (th 1.0);
  Alcotest.(check (float 1.0)) "bad=4s" 9_142.9 (th 4.0);
  (* LAN: tput_max 2 Mbps, good 4 s. *)
  let lan bad =
    Theory.tput_th ~tput_max_bps:2_000_000.0 ~mean_good_sec:4.0
      ~mean_bad_sec:bad
  in
  Alcotest.(check (float 100.0)) "lan bad=0.4" 1_818_181.8 (lan 0.4);
  Alcotest.(check (float 100.0)) "lan bad=1.6" 1_428_571.4 (lan 1.6)

let test_theory_scenario () =
  let s = Scenario.wan ~mean_bad_sec:4.0 () in
  Alcotest.(check (float 1.0)) "wan scenario" 9_142.9
    (Theory.tput_th_scenario s)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_replicates () =
  let s = Scenario.wan ~scheme:Scenario.Basic () in
  let summary = Sweep.replicate ~replications:3 s ~metric:Sweep.throughput in
  Alcotest.(check int) "three runs" 3 summary.Summary.count;
  Alcotest.(check bool) "positive throughput" true (summary.Summary.mean > 0.0)

let test_sweep_seed_list_deterministic () =
  Alcotest.(check (list int)) "seeds" [ 17; 1017; 2017 ]
    (Sweep.seeds ~replications:3)

let test_sweep_measurements_use_distinct_seeds () =
  let s = Scenario.wan () in
  let ms = Sweep.measurements ~replications:3 s in
  Alcotest.(check int) "three measurements" 3 (List.length ms);
  (* Distinct seeds should give at least two distinct durations. *)
  let durations = List.map (fun m -> m.Run.duration_sec) ms in
  Alcotest.(check bool) "not all identical" true
    (List.exists (fun d -> d <> List.hd durations) (List.tl durations))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_table_alignment () =
  let t =
    Report.table ~columns:[ "name"; "v1" ]
      ~rows:[ [ "a"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines are equally wide. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l ->
        Alcotest.(check int) "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty table"

let test_report_formatting () =
  Alcotest.(check string) "kbps" "8.71" (Report.kbps 8_712.3);
  Alcotest.(check string) "mbps" "1.54" (Report.mbps 1_544_660.0);
  Alcotest.(check string) "fixed" "3.14" (Report.fixed 2 3.14159);
  Alcotest.(check bool) "heading has bars" true
    (String.length (Report.heading "x") > 5)

let test_report_pads_short_rows () =
  let t = Report.table ~columns:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] in
  Alcotest.(check bool) "no exception, row padded" true (String.length t > 0)

(* ------------------------------------------------------------------ *)
(* Figures (reduced grids to keep tests fast)                          *)
(* ------------------------------------------------------------------ *)

let test_wan_sweep_reduced () =
  let series =
    Wan_sweep.compute ~replications:2 ~packet_sizes:[ 512; 1536 ]
      ~bad_periods_sec:[ 1.0 ] ~scheme:Scenario.Basic
      ~metric:Sweep.throughput ()
  in
  match series with
  | [ { Wan_sweep.bad_sec; cells } ] ->
    Alcotest.(check (float 1e-9)) "bad period" 1.0 bad_sec;
    Alcotest.(check int) "two cells" 2 (List.length cells);
    List.iter
      (fun c ->
        Alcotest.(check bool) "positive" true
          (c.Wan_sweep.summary.Summary.mean > 0.0))
      cells
  | _ -> Alcotest.fail "expected one series"

let test_wan_sweep_best_size () =
  let series =
    {
      Wan_sweep.bad_sec = 1.0;
      cells =
        [
          { Wan_sweep.size = 128; summary = Summary.of_list [ 5.0 ] };
          { Wan_sweep.size = 512; summary = Summary.of_list [ 9.0 ] };
          { Wan_sweep.size = 1536; summary = Summary.of_list [ 7.0 ] };
        ];
    }
  in
  let size, value = Wan_sweep.best_size series in
  Alcotest.(check int) "best" 512 size;
  Alcotest.(check (float 1e-9)) "value" 9.0 value

let test_lan_sweep_reduced () =
  let series =
    Lan_sweep.compute ~replications:1 ~bad_periods_sec:[ 0.8 ]
      ~scheme:Scenario.Basic ~metric:Sweep.throughput ()
  in
  Alcotest.(check int) "one point" 1 (List.length series.Lan_sweep.points);
  let p = List.hd series.Lan_sweep.points in
  Alcotest.(check bool) "positive" true (p.Lan_sweep.summary.Summary.mean > 0.0)

let test_fig_traces_deterministic_example () =
  let basic = Fig_traces.compute Scenario.Basic in
  let ebsn = Fig_traces.compute Scenario.Ebsn in
  (* The paper's headline for Figures 3 vs 5: basic TCP suffers
     timeouts and retransmissions in the plotted window; EBSN has
     none. *)
  Alcotest.(check bool) "basic times out in the window" true
    (basic.Fig_traces.timeouts_in_window > 0);
  Alcotest.(check bool) "basic retransmits in the window" true
    (basic.Fig_traces.retransmissions_in_window > 0);
  Alcotest.(check int) "ebsn: no timeouts" 0 ebsn.Fig_traces.timeouts_in_window;
  Alcotest.(check int) "ebsn: no retransmissions" 0
    ebsn.Fig_traces.retransmissions_in_window;
  Alcotest.(check bool) "plots render" true
    (String.length basic.Fig_traces.plot > 100)

let test_fig_traces_local_recovery_beats_basic () =
  let basic = Fig_traces.compute Scenario.Basic in
  let local = Fig_traces.compute Scenario.Local_recovery in
  Alcotest.(check bool) "fewer retransmissions with local recovery" true
    (local.Fig_traces.measurement.Run.retransmitted_kbytes
    < basic.Fig_traces.measurement.Run.retransmitted_kbytes);
  Alcotest.(check bool) "higher throughput with local recovery" true
    (local.Fig_traces.measurement.Run.throughput_bps
    > basic.Fig_traces.measurement.Run.throughput_bps)

(* ------------------------------------------------------------------ *)
(* Figure byte pins                                                    *)
(* ------------------------------------------------------------------ *)

(* MD5 of the fig7 and fig10 CSVs at reps=3, the bytes behind the
   paper's two headline results (an interior packet size wins; EBSN
   removes source timeouts during local recovery), captured at commit
   17ccb7b.  Any change to event order, a loss draw or a float moves
   them. *)
let fig7_md5 = "5964875618a07db07de4f4b01357197f"
let fig10_md5 = "6a785698082a6381fa59aac6710439b5"

let md5 s = Digest.to_hex (Digest.string s)

let fig7_csv ~jobs = Wan_sweep.to_csv (Fig7.compute ~replications:3 ~jobs ())

let fig10_csv ~jobs =
  let basic, ebsn = Fig10.compute ~replications:3 ~jobs () in
  Lan_sweep.to_csv [ basic; ebsn ]

let test_figure_pins () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fig7 at jobs=%d" jobs)
        fig7_md5
        (md5 (fig7_csv ~jobs));
      Alcotest.(check string)
        (Printf.sprintf "fig10 at jobs=%d" jobs)
        fig10_md5
        (md5 (fig10_csv ~jobs)))
    [ 1; 4 ];
  (* The empty fault plan as the process default reaches every run of
     the sweep; an injector that injects nothing must change nothing. *)
  Fault_plan.set_default (Some Fault_plan.empty);
  Fun.protect
    ~finally:(fun () -> Fault_plan.set_default None)
    (fun () ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "fig7 under the empty default plan at jobs=%d" jobs)
            fig7_md5
            (md5 (fig7_csv ~jobs)))
        [ 1; 4 ])

(* Figures 3-5 read the source-side trace: its sends, their
   retransmission marks and its timeouts.  MD5 and length of the
   rendered text, so a change in what the trace records, or in whether
   it records at all, fails here. *)
let fig_traces_md5 = "de85b1cc2fde8d00194ddd8d596230bd"
let fig_traces_bytes = 10958

let test_fig_traces_pin () =
  let text = Fig_traces.render_all () in
  Alcotest.(check int) "figs 3-5 length" fig_traces_bytes (String.length text);
  Alcotest.(check string) "figs 3-5 MD5" fig_traces_md5 (md5 text)

(* ------------------------------------------------------------------ *)
(* CSDP                                                                *)
(* ------------------------------------------------------------------ *)

let test_csdp_runs_both_policies () =
  let fifo = Csdp.run ~seed:3 ~policy:Sched.Fifo () in
  let rr = Csdp.run ~seed:3 ~policy:Sched.Round_robin () in
  Alcotest.(check int) "two connections" 2 (List.length fifo.Csdp.per_conn);
  List.iter
    (fun r ->
      Alcotest.(check bool) "completed" true r.Csdp.completed)
    (fifo.Csdp.per_conn @ rr.Csdp.per_conn)

let test_csdp_rr_protects_clean_connection () =
  (* Average over a few seeds: round-robin must give the clean
     connection more throughput than FIFO does. *)
  let mean policy =
    Summary.mean
      (List.map
         (fun seed ->
           let r = Csdp.run ~seed ~policy () in
           (List.hd r.Csdp.per_conn).Csdp.throughput_bps)
         [ 1; 2; 3; 4; 5 ])
  in
  let fifo = mean Sched.Fifo in
  let rr = mean Sched.Round_robin in
  Alcotest.(check bool)
    (Printf.sprintf "rr %.0f > fifo %.0f for the clean connection" rr fifo)
    true (rr > fifo)

(* ------------------------------------------------------------------ *)
(* Packet-size advisor                                                 *)
(* ------------------------------------------------------------------ *)

let test_advisor_evaluate () =
  let entry, sweep =
    Packet_size_advisor.evaluate ~replications:2
      ~candidates:[ 256; 512; 1536 ] ~mean_bad_sec:1.0 ()
  in
  Alcotest.(check int) "sweep size" 3 (List.length sweep);
  Alcotest.(check bool) "best is one of the candidates" true
    (List.mem entry.Packet_size_advisor.best_size [ 256; 512; 1536 ]);
  Alcotest.(check bool) "positive throughput" true
    (entry.Packet_size_advisor.best_throughput_bps > 0.0)

let test_advisor_lookup () =
  let table =
    [
      {
        Packet_size_advisor.mean_bad_sec = 1.0;
        best_size = 512;
        best_throughput_bps = 9_000.0;
        gain_over_worst = 0.2;
      };
      {
        Packet_size_advisor.mean_bad_sec = 4.0;
        best_size = 384;
        best_throughput_bps = 5_000.0;
        gain_over_worst = 0.3;
      };
    ]
  in
  (match Packet_size_advisor.lookup table ~mean_bad_sec:1.2 with
  | Some e -> Alcotest.(check int) "nearest is 1s entry" 512
      e.Packet_size_advisor.best_size
  | None -> Alcotest.fail "expected entry");
  (match Packet_size_advisor.lookup table ~mean_bad_sec:3.0 with
  | Some e -> Alcotest.(check int) "nearest is 4s entry" 384
      e.Packet_size_advisor.best_size
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "empty table" true
    (Packet_size_advisor.lookup [] ~mean_bad_sec:1.0 = None)

let () =
  Alcotest.run "experiments"
    [
      ( "theory",
        [
          Alcotest.test_case "good fraction" `Quick test_theory_good_fraction;
          Alcotest.test_case "tput_th values" `Quick test_theory_tput_th_values;
          Alcotest.test_case "scenario" `Quick test_theory_scenario;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "replicates" `Quick test_sweep_replicates;
          Alcotest.test_case "seed list" `Quick test_sweep_seed_list_deterministic;
          Alcotest.test_case "distinct seeds" `Quick
            test_sweep_measurements_use_distinct_seeds;
        ] );
      ( "report",
        [
          Alcotest.test_case "alignment" `Quick test_report_table_alignment;
          Alcotest.test_case "formatting" `Quick test_report_formatting;
          Alcotest.test_case "short rows" `Quick test_report_pads_short_rows;
        ] );
      ( "figures",
        [
          Alcotest.test_case "wan sweep reduced" `Quick test_wan_sweep_reduced;
          Alcotest.test_case "best size" `Quick test_wan_sweep_best_size;
          Alcotest.test_case "lan sweep reduced" `Slow test_lan_sweep_reduced;
          Alcotest.test_case "figs 3-5 example" `Quick
            test_fig_traces_deterministic_example;
          Alcotest.test_case "fig 4 vs 3" `Quick
            test_fig_traces_local_recovery_beats_basic;
          Alcotest.test_case "fig7/fig10 MD5 pins at jobs=1 and jobs=4" `Quick
            test_figure_pins;
          Alcotest.test_case "figs 3-5 MD5 pin" `Quick test_fig_traces_pin;
        ] );
      ( "csdp",
        [
          Alcotest.test_case "both policies run" `Quick test_csdp_runs_both_policies;
          Alcotest.test_case "rr protects clean conn" `Slow
            test_csdp_rr_protects_clean_connection;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "evaluate" `Quick test_advisor_evaluate;
          Alcotest.test_case "lookup" `Quick test_advisor_lookup;
        ] );
    ]
