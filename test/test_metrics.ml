(* Tests for the metrics library: Summary, Timeseq, Nstrace. *)

open Core

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let test_summary_single () =
  let s = Summary.of_list [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Summary.stddev;
  Alcotest.(check int) "count" 1 s.Summary.count

let test_summary_known_values () =
  let s = Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Summary.mean;
  (* Sample stddev (n-1): sqrt(32/7). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32.0 /. 7.0)) s.Summary.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Summary.max;
  Alcotest.(check (float 1e-9)) "rel stddev" (sqrt (32.0 /. 7.0) /. 5.0)
    s.Summary.rel_stddev

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty")
    (fun () -> ignore (Summary.of_list []))

let test_summary_matches_reference_formulas () =
  (* Pin of_list to the textbook multi-pass formulas it replaced, so
     the single-pass implementation cannot drift numerically. *)
  let xs = [ 3.25; -17.5; 0.0; 1024.125; 3.25; 99.9; -0.001 ] in
  let n = List.length xs in
  let mu = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let sq_err = List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs in
  let stddev = sqrt (sq_err /. float_of_int (n - 1)) in
  let s = Summary.of_list xs in
  Alcotest.(check int) "count" n s.Summary.count;
  Alcotest.(check (float 0.0)) "mean bit-identical" mu s.Summary.mean;
  Alcotest.(check (float 0.0)) "stddev bit-identical" stddev s.Summary.stddev;
  Alcotest.(check (float 0.0)) "stderr"
    (stddev /. sqrt (float_of_int n))
    s.Summary.stderr;
  Alcotest.(check (float 0.0)) "rel stddev" (stddev /. Float.abs mu)
    s.Summary.rel_stddev;
  Alcotest.(check (float 0.0)) "min"
    (List.fold_left Float.min Float.infinity xs)
    s.Summary.min;
  Alcotest.(check (float 0.0)) "max"
    (List.fold_left Float.max Float.neg_infinity xs)
    s.Summary.max

let prop_summary_mean_within_range =
  QCheck2.Test.make ~name:"mean lies within [min,max]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.of_list xs in
      s.Summary.min <= s.Summary.mean +. 1e-9
      && s.Summary.mean <= s.Summary.max +. 1e-9)

let prop_summary_stddev_nonneg =
  QCheck2.Test.make ~name:"stddev is non-negative" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-100.) 100.))
    (fun xs -> (Summary.of_list xs).Summary.stddev >= 0.0)

(* ------------------------------------------------------------------ *)
(* Timeseq                                                             *)
(* ------------------------------------------------------------------ *)

let test_timeseq_marks () =
  let sends =
    [
      (Simtime.of_ns 0, 0, false);
      (Simtime.of_ns 30_000_000_000, 45, false);
      (Simtime.of_ns 45_000_000_000, 45, true);
    ]
  in
  let plot = Timeseq.render ~until:(Simtime.of_ns 60_000_000_000) sends in
  Alcotest.(check bool) "has a first-transmission mark" true
    (String.contains plot '.');
  Alcotest.(check bool) "has a retransmission mark" true
    (String.contains plot 'R');
  Alcotest.(check bool) "axis present" true
    (String.length plot > 0 && String.contains plot '+')

let test_timeseq_wraps_modulo () =
  (* Packet 95 mod 90 = 5: must plot on a low row, like packet 5. *)
  let plot_for n =
    Timeseq.render ~until:(Simtime.of_ns 1_000_000_000)
      [ (Simtime.of_ns 500_000_000, n, false) ]
  in
  Alcotest.(check string) "wrapped row equals unwrapped row" (plot_for 5)
    (plot_for 95)

let test_timeseq_out_of_window_ignored () =
  let plot =
    Timeseq.render ~until:(Simtime.of_ns 1_000_000_000)
      [ (Simtime.of_ns 2_000_000_000, 1, false) ]
  in
  Alcotest.(check bool) "no marks" false (String.contains plot '.')

let test_timeseq_bad_config_rejected () =
  Alcotest.check_raises "bad config"
    (Invalid_argument "Timeseq.render: bad config") (fun () ->
      ignore
        (Timeseq.render
           ~config:{ Timeseq.width = 0; modulo = 90; rows = 10 }
           ~until:(Simtime.of_ns 1) []))

(* ------------------------------------------------------------------ *)
(* Nstrace                                                             *)
(* ------------------------------------------------------------------ *)

let test_nstrace_wired_events () =
  let sim = Simulator.create () in
  let trace = Nstrace.create sim in
  let link =
    Link.create sim ~name:"l" ~bandwidth:(Units.kbps 56.0)
      ~delay:(Simtime.span_ms 10) ~queue_capacity:1
  in
  Link.set_receiver link (fun _ -> ());
  Link.set_monitor link (Nstrace.wired_monitor trace ~link:"l");
  let mk id =
    Packet.create ~id ~src:(Address.make 0) ~dst:(Address.make 1)
      ~kind:(Packet.Tcp_data { conn = 0; seq = 0; length = 100; is_retransmit = false })
      ~header_bytes:40 ~created:Simtime.zero
  in
  Link.send link (mk 1);  (* tx start *)
  Link.send link (mk 2);  (* enqueued *)
  Link.send link (mk 3);  (* dropped: queue capacity 1 *)
  Simulator.run sim;
  let out = Nstrace.to_string trace in
  let has prefix =
    List.exists
      (fun line -> String.length line > 0 && String.sub line 0 1 = prefix)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "tx line" true (has "-");
  Alcotest.(check bool) "enqueue line" true (has "+");
  Alcotest.(check bool) "receive line" true (has "r");
  Alcotest.(check bool) "drop line" true (has "d");
  Alcotest.(check bool) "non-empty" true (Nstrace.length trace >= 6)

let test_nstrace_from_wiring () =
  let s = Scenario.wan ~scheme:Scenario.Ebsn ~seed:3 ~file_bytes:10_240 () in
  let s = { s with Scenario.collect_nstrace = true } in
  let outcome = Wiring.run s in
  match outcome.Wiring.nstrace with
  | None -> Alcotest.fail "expected a trace"
  | Some trace ->
    Alcotest.(check bool) "has wireless loss lines" true
      (String.length trace > 1000);
    (* Every line starts with a known op code. *)
    List.iter
      (fun line ->
        if line <> "" then
          Alcotest.(check bool) "valid op" true
            (List.mem (String.sub line 0 1) [ "+"; "-"; "r"; "d"; "x" ]))
      (String.split_on_char '\n' trace)

let test_nstrace_off_by_default () =
  let outcome = Wiring.run (Scenario.wan ~seed:3 ~file_bytes:10_240 ()) in
  Alcotest.(check bool) "absent" true (outcome.Wiring.nstrace = None)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "summary",
        [
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "known values" `Quick test_summary_known_values;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
          Alcotest.test_case "reference formulas" `Quick
            test_summary_matches_reference_formulas;
          qc prop_summary_mean_within_range;
          qc prop_summary_stddev_nonneg;
        ] );
      ( "nstrace",
        [
          Alcotest.test_case "wired events" `Quick test_nstrace_wired_events;
          Alcotest.test_case "from wiring" `Quick test_nstrace_from_wiring;
          Alcotest.test_case "off by default" `Quick test_nstrace_off_by_default;
        ] );
      ( "timeseq",
        [
          Alcotest.test_case "marks" `Quick test_timeseq_marks;
          Alcotest.test_case "wraps modulo" `Quick test_timeseq_wraps_modulo;
          Alcotest.test_case "window" `Quick test_timeseq_out_of_window_ignored;
          Alcotest.test_case "bad config" `Quick test_timeseq_bad_config_rejected;
        ] );
    ]
