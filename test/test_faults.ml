(* Tests for the fault-injection subsystem: plan generation, the
   empty-plan byte-identity guarantee, graceful degradation through
   Wiring.run, the simulator's fault report and chaos campaigns. *)

open Core

let sec = Simtime.span_sec

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let window = sec 60.0 in
  let a = Fault_plan.generate ~seed:42 ~window in
  let b = Fault_plan.generate ~seed:42 ~window in
  Alcotest.(check string) "same seed, same plan" (Fault_plan.to_string a)
    (Fault_plan.to_string b);
  Alcotest.(check bool) "structurally equal" true
    (Fault_plan.events a = Fault_plan.events b)

let test_plan_shape () =
  for seed = 1 to 50 do
    let window = sec 60.0 in
    let plan = Fault_plan.generate ~seed ~window in
    Alcotest.(check int) "seed recorded" seed (Fault_plan.seed plan);
    let n = List.length (Fault_plan.events plan) in
    Alcotest.(check bool) "1-4 events" true (n >= 1 && n <= 4);
    let sorted = ref Simtime.span_zero in
    List.iter
      (fun e ->
        let after = e.Fault_plan.after in
        Alcotest.(check bool) "sorted by time" true
          (Simtime.span_compare !sorted after <= 0);
        sorted := after;
        let frac = Simtime.span_to_sec after /. Simtime.span_to_sec window in
        Alcotest.(check bool) "lands inside the window" true
          (frac >= 0.02 && frac <= 0.80))
      (Fault_plan.events plan)
  done

let test_plan_empty_window_rejected () =
  Alcotest.check_raises "zero window"
    (Invalid_argument "Plan.generate: empty window") (fun () ->
      ignore (Fault_plan.generate ~seed:1 ~window:Simtime.span_zero))

let test_plan_make_sorts () =
  let plan =
    Fault_plan.make
      [
        { Fault_plan.after = sec 9.0; action = Fault_plan.Bs_crash };
        { Fault_plan.after = sec 2.0; action = Fault_plan.Ebsn_duplicate };
      ]
  in
  match Fault_plan.events plan with
  | [ first; second ] ->
    Alcotest.(check bool) "earlier event first" true
      (first.Fault_plan.action = Fault_plan.Ebsn_duplicate
      && second.Fault_plan.action = Fault_plan.Bs_crash)
  | _ -> Alcotest.fail "expected both events"

(* ------------------------------------------------------------------ *)
(* Empty-plan byte identity                                            *)
(* ------------------------------------------------------------------ *)

let obs_all = Obs.Config.{ check = true; trace = true; metrics = true }

let test_empty_plan_byte_identical () =
  let scenario () = Scenario.wan ~scheme:Scenario.Ebsn ~seed:11 () in
  let plain = Wiring.run ~obs:obs_all (scenario ()) in
  let injected = Wiring.run ~obs:obs_all ~faults:Fault_plan.empty (scenario ()) in
  Alcotest.(check int) "same event count" plain.Wiring.events_executed
    injected.Wiring.events_executed;
  Alcotest.(check (float 0.0)) "same throughput"
    (Wiring.throughput_bps plain)
    (Wiring.throughput_bps injected);
  Alcotest.(check (option string)) "byte-identical trace"
    plain.Wiring.obs_trace injected.Wiring.obs_trace;
  Alcotest.(check (option string)) "byte-identical metrics"
    plain.Wiring.obs_metrics injected.Wiring.obs_metrics;
  Alcotest.(check bool) "no faults recorded" true
    (injected.Wiring.fault_events = [] && injected.Wiring.fault = None)

let test_default_plan_threads_through () =
  let scenario () = Scenario.wan ~scheme:Scenario.Basic ~seed:3 () in
  let plain = Wiring.run ~obs:obs_all (scenario ()) in
  Fault_plan.set_default (Some Fault_plan.empty);
  let defaulted =
    Fun.protect
      ~finally:(fun () -> Fault_plan.set_default None)
      (fun () -> Wiring.run ~obs:obs_all (scenario ()))
  in
  Alcotest.(check (option string)) "default empty plan is invisible"
    plain.Wiring.obs_trace defaulted.Wiring.obs_trace

(* ------------------------------------------------------------------ *)
(* Graceful degradation through Wiring.run                             *)
(* ------------------------------------------------------------------ *)

let run_with_plan ?(scheme = Scenario.Ebsn) ?(seed = 11) events =
  let scenario = Scenario.wan ~scheme ~seed () in
  let obs = Obs.Config.{ check = true; trace = false; metrics = false } in
  Wiring.run ~obs ~faults:(Fault_plan.make events) scenario

let kinds outcome =
  List.map (fun (k, _) -> k) (Fault.summarize outcome.Wiring.fault_events)

let test_bs_crash_recovers () =
  let outcome =
    run_with_plan [ { Fault_plan.after = sec 20.0; action = Fault_plan.Bs_crash } ]
  in
  Alcotest.(check bool) "transfer still completes" true
    outcome.Wiring.completed;
  Alcotest.(check bool) "no component fault" true (outcome.Wiring.fault = None);
  Alcotest.(check (list int)) "crash recorded" [ 1 ]
    (List.filter_map
       (fun (k, n) -> if k = Fault.Crash then Some n else None)
       (Fault.summarize outcome.Wiring.fault_events))

let test_disconnection_recovers () =
  let outcome =
    run_with_plan
      [
        {
          Fault_plan.after = sec 15.0;
          action = Fault_plan.Link_down { target = Fault_plan.Both; duration = sec 3.0 };
        };
      ]
  in
  Alcotest.(check bool) "transfer survives a 3s disconnection" true
    outcome.Wiring.completed;
  Alcotest.(check bool) "disconnection recorded" true
    (List.mem Fault.Disconnection (kinds outcome));
  Alcotest.(check bool) "frames were blackholed" true
    (outcome.Wiring.downlink_stats.Wireless_link.frames_blackholed
     + outcome.Wiring.uplink_stats.Wireless_link.frames_blackholed
    > 0)

let test_ebsn_loss_recovers () =
  (* EBSN notifications vanish in flight; the TCP source must fall
     back to its own RTO rather than stall forever. *)
  let outcome =
    run_with_plan
      [ { Fault_plan.after = sec 10.0; action = Fault_plan.Ebsn_loss { count = 4 } } ]
  in
  Alcotest.(check bool) "transfer completes without the feedback" true
    outcome.Wiring.completed;
  Alcotest.(check bool) "losses recorded" true
    (List.mem Fault.Notification_loss (kinds outcome))

let test_handoff_recovers () =
  let outcome =
    run_with_plan
      [
        {
          Fault_plan.after = sec 25.0;
          action = Fault_plan.Handoff { blackout = sec 1.0 };
        };
      ]
  in
  Alcotest.(check bool) "transfer completes after the handoff" true
    outcome.Wiring.completed;
  Alcotest.(check bool) "handoff and its blackout recorded" true
    (List.mem Fault.Handoff (kinds outcome)
    && List.mem Fault.Disconnection (kinds outcome))

let test_queue_squeeze_recovers () =
  let outcome =
    run_with_plan
      [
        {
          Fault_plan.after = sec 12.0;
          action =
            Fault_plan.Queue_squeeze { target = Fault_plan.Down; duration = sec 4.0 };
        };
      ]
  in
  Alcotest.(check bool) "transfer completes despite the overflow" true
    outcome.Wiring.completed;
  Alcotest.(check bool) "overflow recorded" true
    (List.mem Fault.Queue_overflow (kinds outcome))

(* ------------------------------------------------------------------ *)
(* Simulator fault reports                                            *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_simulator_fault_report () =
  let sim = Simulator.create () in
  ignore (Simulator.schedule_after sim ~delay:(sec 1.0) (fun () -> ()));
  ignore (Simulator.schedule_after sim ~delay:(sec 2.0) (fun () -> raise Boom));
  ignore (Simulator.schedule_after sim ~delay:(sec 3.0) (fun () -> ()));
  (match Simulator.run sim with
  | () -> Alcotest.fail "expected Simulator.Fault"
  | exception Simulator.Fault report ->
    Alcotest.(check bool) "original exception preserved" true
      (report.Simulator.error = Boom);
    Alcotest.(check int) "events executed before the fault" 1
      report.Simulator.events_executed;
    Alcotest.(check int) "pending events reported" 1
      report.Simulator.pending_events;
    Alcotest.(check bool) "rendering names the fault" true
      (let s = Printexc.to_string (Simulator.Fault report) in
       String.length s > 0 && s.[0] = 'S'))

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

(* The campaign's cells, run checked over [jobs] domains in spec
   order, as [wtcp chaos] runs them. *)
let campaign ?(jobs = 1) ~plans () =
  Parallel.map ~jobs (Chaos.run_spec ~check:true)
    (Chaos.specs ~plans ~base_seed:1 ())

let test_campaign_clean () =
  let results = campaign ~plans:6 () in
  Alcotest.(check int) "one result per plan" 6 (List.length results);
  Alcotest.(check bool) "all runs clean" true
    (List.for_all
       (fun r -> match r.Chaos.status with Chaos.Clean _ -> true | _ -> false)
       results);
  Alcotest.(check bool) "faults were actually injected" true
    (List.exists (fun r -> r.Chaos.injected <> []) results)

let test_campaign_deterministic_across_jobs () =
  let render results =
    String.concat "\n"
      (List.map
         (fun r ->
           Printf.sprintf "%s %d %.3f" r.Chaos.spec.Chaos.label
             r.Chaos.events_executed r.Chaos.throughput_bps)
         results)
  in
  let seq = campaign ~plans:4 ~jobs:1 () in
  let par = campaign ~plans:4 ~jobs:4 () in
  Alcotest.(check string) "jobs=1 and jobs=4 identical" (render seq)
    (render par)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "shape" `Quick test_plan_shape;
          Alcotest.test_case "empty window" `Quick test_plan_empty_window_rejected;
          Alcotest.test_case "make sorts" `Quick test_plan_make_sorts;
        ] );
      ( "identity",
        [
          Alcotest.test_case "empty plan byte-identical" `Quick
            test_empty_plan_byte_identical;
          Alcotest.test_case "default plan threads through" `Quick
            test_default_plan_threads_through;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "bs crash" `Quick test_bs_crash_recovers;
          Alcotest.test_case "disconnection" `Quick test_disconnection_recovers;
          Alcotest.test_case "ebsn loss" `Quick test_ebsn_loss_recovers;
          Alcotest.test_case "handoff" `Quick test_handoff_recovers;
          Alcotest.test_case "queue squeeze" `Quick test_queue_squeeze_recovers;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "fault report" `Quick test_simulator_fault_report;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean" `Quick test_campaign_clean;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_campaign_deterministic_across_jobs;
        ] );
    ]
