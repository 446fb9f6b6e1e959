(* wtcp — command-line front end for the wireless-TCP simulator.

   Subcommands:
     run      one bulk-transfer simulation, print the metrics
     trace    deterministic-error packet trace (Figures 3-5 style)
     advisor  the paper's base-station packet-size table (§4.1)
     theory   theoretical maximum throughput for an error profile
     compare  all recovery schemes side by side on one scenario
     chaos    campaign of seeded fault plans (graceful degradation)
     resume   restart an interrupted supervised campaign from its manifest
     cache    replication-cache maintenance (stats/clear/prune) *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

type preset = Wan | Lan

let preset_conv =
  let parse = function
    | "wan" -> Ok Wan
    | "lan" -> Ok Lan
    | s -> Error (`Msg (Printf.sprintf "unknown preset %S (wan|lan)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (match p with Wan -> "wan" | Lan -> "lan")
  in
  Arg.conv (parse, print)

let scheme_conv =
  let parse s =
    match
      List.find_opt
        (fun scheme -> Core.Scenario.scheme_name scheme = s)
        Core.Scenario.all_schemes
    with
    | Some scheme -> Ok scheme
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scheme %S (%s)" s
             (String.concat "|"
                (List.map Core.Scenario.scheme_name Core.Scenario.all_schemes))))
  in
  let print ppf s =
    Format.pp_print_string ppf (Core.Scenario.scheme_name s)
  in
  Arg.conv (parse, print)

let preset_arg =
  Arg.(
    value
    & opt preset_conv Wan
    & info [ "p"; "preset" ] ~docv:"PRESET"
        ~doc:"Topology preset: $(b,wan) (56kbps/19.2kbps, 128B MTU) or \
              $(b,lan) (10Mbps/2Mbps, no fragmentation).")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Core.Scenario.Basic
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:"Recovery scheme: basic, local-recovery, ebsn, quench, snoop \
              or split.")

let packet_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "packet-size" ] ~docv:"BYTES"
        ~doc:"Wired-network packet size incl. 40-byte header (default: \
              576 WAN, 1536 LAN).")

let bad_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "bad" ] ~docv:"SEC"
        ~doc:"Mean bad-period length in seconds (default: 4 WAN, 1 LAN).")

let good_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "good" ] ~docv:"SEC"
        ~doc:"Mean good-period length in seconds (default: 10 WAN, 4 LAN).")

let file_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "file" ] ~docv:"BYTES"
        ~doc:"Transfer size in bytes (default: 100KB WAN, 4MB LAN).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Core.Parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan replications across (default: the host's \
           recommended domain count minus one, at least 1).  The seed \
           schedule is unchanged, so results are identical at any $(docv).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log simulator events (timeouts, EBSNs, source sends) to \
              stderr while running.")

let cache_dir_arg =
  Arg.(
    value
    & opt string "_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Location of the on-disk replication cache.")

let cache_mode_arg =
  Arg.(
    value
    & vflag None
        [
          ( Some Core.Cache.On,
            info [ "cache" ]
              ~doc:
                "Serve replications from the content-addressed cache: \
                 cells whose fingerprint (complete scenario + engine \
                 version) was measured before are not re-simulated." );
          ( Some Core.Cache.Off,
            info [ "no-cache" ]
              ~doc:"Disable the replication cache (the default)." );
          ( Some Core.Cache.Verify,
            info [ "cache-verify" ]
              ~doc:
                "Use the cache but re-simulate every hit and fail \
                 (exit 1) on any byte divergence — a standing \
                 determinism regression oracle." );
        ])

(* Evaluates before the command body: flags become process cache
   state, which Sweep and the advisor consult transparently. *)
let cache_setup_term =
  let setup mode dir =
    Core.Cache.set_dir dir;
    match mode with Some m -> Core.Cache.set_mode m | None -> ()
  in
  Term.(const setup $ cache_mode_arg $ cache_dir_arg)

(* Run a command body under the configured cache mode: print the hit
   statistics afterwards, and turn a verify divergence into exit 1. *)
let with_cache f =
  match f () with
  | () ->
    if Core.Cache.active () then begin
      let s = Core.Cache.stats () in
      Printf.printf
        "cache:      %d memo hits, %d disk hits, %d misses, %d deduped%s\n"
        s.Core.Cache.memo_hits s.Core.Cache.disk_hits s.Core.Cache.misses
        s.Core.Cache.deduped
        (match Core.Cache.mode () with
        | Core.Cache.Verify ->
          Printf.sprintf ", %d verified" s.Core.Cache.verify_ok
        | _ -> "")
    end
  | exception Core.Cache.Verify_mismatch { key; _ } ->
    Printf.eprintf
      "wtcp: cache verify FAILED: entry %s diverges from a fresh \
       simulation\n"
      key;
    exit 1

let cc_conv =
  let parse s =
    match Core.Tcp_config.cc_of_name s with
    | Some cc -> Ok cc
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown congestion control %S (%s)" s
             (String.concat "|"
                (List.map Core.Tcp_config.cc_name Core.Tcp_config.all_ccs))))
  in
  let print ppf cc = Format.pp_print_string ppf (Core.Tcp_config.cc_name cc) in
  Arg.conv (parse, print)

let cc_arg =
  Arg.(
    value
    & opt cc_conv Core.Tcp_config.Tahoe
    & info [ "cc"; "flavor" ] ~docv:"CC"
        ~doc:"TCP congestion-control variant: tahoe (the paper's), reno, \
              newreno, sack or vegas.")

let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:"Use constant good/bad period lengths (the paper's Figures \
              3-5 model) instead of the two-state Markov model.")

let build_scenario ?(cc = Core.Tcp_config.Tahoe) ?(verbose = false) preset
    scheme packet_size bad good file seed deterministic =
  if verbose then Core.Slog.set_level (Some Logs.Debug);
  let error_mode =
    if deterministic then Core.Scenario.Deterministic else Core.Scenario.Markov
  in
  let s =
    match preset with
    | Wan ->
      Core.Scenario.wan ~scheme ?packet_size ?mean_bad_sec:bad
        ?mean_good_sec:good ?file_bytes:file ~seed ~error_mode ()
    | Lan ->
      Core.Scenario.lan ~scheme ?packet_size ?mean_bad_sec:bad
        ?mean_good_sec:good ?file_bytes:file ~seed ~error_mode ()
  in
  Core.Scenario.with_cc s cc

let scenario_term =
  let assemble cc verbose preset scheme packet_size bad good file seed
      deterministic =
    build_scenario ~cc ~verbose preset scheme packet_size bad good file
      seed deterministic
  in
  Term.(
    const assemble $ cc_arg $ verbose_arg $ preset_arg $ scheme_arg
    $ packet_size_arg $ bad_arg $ good_arg $ file_arg $ seed_arg
    $ deterministic_arg)

(* ------------------------------------------------------------------ *)
(* Supervised-campaign flags (compare / advisor / chaos / resume)      *)
(* ------------------------------------------------------------------ *)

(* Strict-flag convention: a custom conv makes a malformed or
   out-of-range value a cmdliner parse error, which exits 124 like an
   unknown flag. *)
let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let supervised_arg =
  Arg.(
    value & flag
    & info [ "supervised" ]
        ~doc:
          "Run the campaign under the supervisor: completed cells are \
           checkpointed through the replication cache plus a campaign \
           manifest, SIGINT/SIGTERM flushes a partial report (exit 130), \
           and $(b,wtcp resume) restarts from the manifest re-simulating \
           only the missing cells.  Implied by $(b,--deadline), \
           $(b,--retries) and $(b,--resume).")

let deadline_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "deadline" ] ~docv:"EVENTS"
        ~doc:
          "Per-cell deadline as a simulated-event budget, enforced \
           cooperatively inside the engine so determinism is untouched.  \
           A cell that exhausts it is retried with backoff at a relaxed \
           budget, then quarantined.")

let retries_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts per cell before it is quarantined (default 3).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reuse the campaign's surviving manifest: cells it checkpointed \
           are restored from the cache, only the rest re-simulate.  \
           Without this flag a fresh run deletes any old manifest.")

let supervise_term =
  let assemble supervised deadline retries resume =
    if supervised || resume || deadline <> None || retries <> None then
      Some
        {
          Core.Campaigns.deadline;
          retries =
            Option.value retries
              ~default:Core.Campaigns.default_options.Core.Campaigns.retries;
          backoff_ms = Core.Campaigns.default_options.Core.Campaigns.backoff_ms;
          resume;
        }
    else None
  in
  Term.(
    const assemble $ supervised_arg $ deadline_arg $ retries_arg $ resume_arg)

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the campaign report as JSON to $(docv) (atomic \
              temp-file + rename).")

(* SIGINT/SIGTERM set a flag the supervisor polls between waves, so an
   interrupt flushes the manifest and partial report instead of
   killing the process mid-write. *)
let install_interrupt () =
  let stop = Atomic.make false in
  let arm signal =
    try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop true))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  arm Sys.sigint;
  arm Sys.sigterm;
  fun ~completed:_ -> Atomic.get stop

let run_supervised ?(exit_on_fail = false) ?manifest_dir ~jobs ~json options
    kind =
  let should_stop = install_interrupt () in
  match Core.Campaigns.run ~jobs ?manifest_dir ~should_stop ~options kind with
  | exception Core.Cache.Verify_mismatch { key; _ } ->
    Printf.eprintf
      "wtcp: campaign verify FAILED: entry %s diverges from a fresh \
       simulation\n"
      key;
    exit 1
  | report ->
    print_string report.Core.Campaigns.rendered;
    (match (json, report.Core.Campaigns.json) with
    | Some path, Some doc ->
      Core.Report.write_atomic ~path doc;
      Printf.printf "json: %s\n" path
    | _ -> ());
    Printf.printf "supervisor: %d/%d cells settled (%d resumed, %d \
                   quarantined)\n"
      (report.Core.Campaigns.completed + report.Core.Campaigns.resumed)
      report.Core.Campaigns.total report.Core.Campaigns.resumed
      report.Core.Campaigns.quarantined;
    if report.Core.Campaigns.interrupted then begin
      (match report.Core.Campaigns.manifest_path with
      | Some path -> Printf.printf "interrupted; resume with: wtcp resume %s\n" path
      | None -> ());
      exit 130
    end;
    if exit_on_fail && not report.Core.Campaigns.ok then exit 1

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_engine_stats outcome =
  let open Core in
  let qs = outcome.Wiring.queue_stats in
  Printf.printf "engine:     %d events executed\n"
    outcome.Wiring.events_executed;
  Printf.printf
    "queue:      %d adds (%d recycled), %d pops, %d cancels; peak %d pending\n"
    qs.Event_queue.adds qs.Event_queue.recycled qs.Event_queue.pops
    qs.Event_queue.cancels qs.Event_queue.max_size;
  let ts = outcome.Wiring.timer_stats in
  Printf.printf
    "timers:     %d arms (%d fused), %d lazy cancels, %d fires (%d stale), %d \
     chases\n"
    ts.Soft_timer.arms ts.Soft_timer.fuses ts.Soft_timer.lazy_cancels
    ts.Soft_timer.fires ts.Soft_timer.stale_fires ts.Soft_timer.chases

let print_outcome scenario outcome =
  let open Core in
  Printf.printf "scenario: %s\n" (Scenario.describe scenario);
  if not outcome.Wiring.completed then
    print_endline "transfer did NOT complete within the horizon"
  else begin
    let m = Run.outcome_measurement outcome in
    Printf.printf "throughput: %.2f kbit/s (tput_th %.2f kbit/s)\n"
      (m.Run.throughput_bps /. 1e3)
      (Theory.tput_th_scenario scenario /. 1e3);
    Printf.printf "goodput:    %.3f\n" m.Run.goodput;
    Printf.printf "duration:   %.1f s\n" m.Run.duration_sec;
    Printf.printf "source:     %d timeouts, %d fast retransmits, %.1f KB \
                   retransmitted\n"
      m.Run.source_timeouts m.Run.fast_retransmits m.Run.retransmitted_kbytes;
    Printf.printf "feedback:   %d EBSN sent, %d received; %d quench sent\n"
      outcome.Wiring.ebsn_sent m.Run.ebsn_received outcome.Wiring.quench_sent;
    (match outcome.Wiring.arq_stats with
    | Some a ->
      Printf.printf
        "link ARQ:   %d transmissions (%d retx), %d discards, %d attempt \
         failures\n"
        a.Arq.transmissions a.Arq.retransmissions a.Arq.discards
        a.Arq.attempt_failures
    | None -> ());
    match outcome.Wiring.snoop_stats with
    | Some s ->
      Printf.printf "snoop:      %d cached, %d local retx, %d dupacks \
                     suppressed\n"
        s.Snoop.cached s.Snoop.local_retransmits s.Snoop.dupacks_suppressed
    | None -> ()
  end

let run_cmd =
  let nstrace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "nstrace" ] ~docv:"FILE"
          ~doc:"Write an NS-style per-link event trace to $(docv).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Run the runtime invariant checkers after every simulated \
                event; abort on the first violation.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the structured JSONL event trace to $(docv).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the metrics registry (JSONL, sorted by name) to \
                $(docv).")
  in
  let engine_stats_arg =
    Arg.(
      value & flag
      & info [ "engine-stats" ]
          ~doc:"Also print simulator-engine counters: events executed, \
                the pending-event set's adds, pops, cancels, recycled \
                slots and peak size, and the soft-timer counters.")
  in
  let action scenario nstrace_path check trace_path metrics_path engine_stats =
    let scenario =
      match nstrace_path with
      | Some _ -> { scenario with Core.Scenario.collect_nstrace = true }
      | None -> scenario
    in
    let obs =
      Core.Obs.Config.
        {
          check;
          trace = Option.is_some trace_path;
          metrics = Option.is_some metrics_path;
        }
    in
    let outcome = Core.Wiring.run ~obs scenario in
    print_outcome scenario outcome;
    if engine_stats then print_engine_stats outcome;
    let write_file label path contents =
      match path, contents with
      | Some path, Some data ->
        Core.Report.write_atomic ~path data;
        Printf.printf "%-11s %s\n" (label ^ ":") path
      | _ -> ()
    in
    write_file "nstrace" nstrace_path outcome.Core.Wiring.nstrace;
    write_file "trace" trace_path outcome.Core.Wiring.obs_trace;
    write_file "metrics" metrics_path outcome.Core.Wiring.obs_metrics
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one bulk-transfer simulation")
    Term.(
      const action $ scenario_term $ nstrace_arg $ check_arg $ trace_arg
      $ metrics_arg $ engine_stats_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let window_arg =
    Arg.(
      value & opt float 60.0
      & info [ "window" ] ~docv:"SEC" ~doc:"Plotted window in seconds.")
  in
  let action preset scheme packet_size bad good file seed window =
    let scenario =
      build_scenario preset scheme packet_size bad good file seed true
    in
    let outcome = Core.Wiring.run scenario in
    let until = Core.Simtime.of_ns (int_of_float (window *. 1e9)) in
    print_endline (Core.Scenario.describe scenario);
    print_endline
      (Core.Timeseq.render ~until (Core.Trace.sends outcome.Core.Wiring.trace));
    print_outcome scenario outcome
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Packet trace under deterministic errors (Figures 3-5 style)")
    Term.(
      const action $ preset_arg $ scheme_arg $ packet_size_arg $ bad_arg
      $ good_arg $ file_arg $ seed_arg $ window_arg)

(* ------------------------------------------------------------------ *)
(* advisor                                                             *)
(* ------------------------------------------------------------------ *)

let advisor_cmd =
  let bads_arg =
    Arg.(
      value
      & opt (list float) [ 1.0; 2.0; 3.0; 4.0 ]
      & info [ "bad-periods" ] ~docv:"SECS"
          ~doc:"Comma-separated mean bad-period lengths to tabulate.")
  in
  let reps_arg =
    Arg.(
      value & opt int 5
      & info [ "replications" ] ~docv:"N" ~doc:"Runs per data point.")
  in
  let action () bads replications jobs supervise =
    match supervise with
    | Some options ->
      run_supervised ~jobs ~json:None options
        (Core.Campaigns.Advisor { bads; replications })
    | None ->
      with_cache @@ fun () ->
      let table =
        Core.Packet_size_advisor.build_table ~replications ~jobs
          ~mean_bad_secs:bads ()
      in
      print_endline "bad(s)  best packet size  throughput";
      List.iter
        (fun e ->
          Printf.printf "%-7.1f %-17d %.2f kbit/s (%+.0f%% vs worst)\n"
            e.Core.Packet_size_advisor.mean_bad_sec
            e.Core.Packet_size_advisor.best_size
            (e.Core.Packet_size_advisor.best_throughput_bps /. 1e3)
            (100.0 *. e.Core.Packet_size_advisor.gain_over_worst))
        table
  in
  Cmd.v
    (Cmd.info "advisor"
       ~doc:"Build the base station's packet-size table (paper §4.1)")
    Term.(
      const action $ cache_setup_term $ bads_arg $ reps_arg $ jobs_arg
      $ supervise_term)

(* ------------------------------------------------------------------ *)
(* theory                                                              *)
(* ------------------------------------------------------------------ *)

let theory_cmd =
  let action preset bad good =
    let scenario =
      build_scenario preset Core.Scenario.Basic None bad good None 1 false
    in
    Printf.printf "tput_max: %.2f kbit/s\n"
      (Core.Scenario.effective_wireless_bps scenario /. 1e3);
    Printf.printf "tput_th:  %.2f kbit/s\n"
      (Core.Theory.tput_th_scenario scenario /. 1e3)
  in
  Cmd.v
    (Cmd.info "theory"
       ~doc:"Theoretical maximum throughput for an error profile")
    Term.(const action $ preset_arg $ bad_arg $ good_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let reps_arg =
    Arg.(
      value & opt int 5
      & info [ "replications" ] ~docv:"N" ~doc:"Runs per scheme.")
  in
  let action () cc preset packet_size bad good file seed replications jobs
      supervise =
    match supervise with
    | Some options ->
      let preset =
        match preset with
        | Wan -> Core.Campaigns.Wan
        | Lan -> Core.Campaigns.Lan
      in
      run_supervised ~jobs ~json:None options
        (Core.Campaigns.Compare
           { preset; packet_size; bad; good; file; seed; replications; cc })
    | None ->
      with_cache @@ fun () ->
      Printf.printf "%-16s %10s %9s %9s %9s\n" "scheme" "tput kbps" "goodput"
        "retx KB" "timeouts";
      List.iter
        (fun scheme ->
          let scenario =
            build_scenario ~cc preset scheme packet_size bad good file seed
              false
          in
          let measurements =
            Core.Sweep.measurements ~replications ~jobs scenario
          in
          let metric f =
            (Core.Summary.of_list (List.map f measurements)).Core.Summary.mean
          in
          Printf.printf "%-16s %10.2f %9.3f %9.1f %9.1f\n"
            (Core.Scenario.scheme_name scheme)
            (metric Core.Sweep.throughput /. 1e3)
            (metric Core.Sweep.goodput)
            (metric Core.Sweep.retransmitted_kbytes)
            (metric Core.Sweep.timeouts))
        Core.Scenario.all_schemes
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"All recovery schemes side by side")
    Term.(
      const action $ cache_setup_term $ cc_arg $ preset_arg
      $ packet_size_arg $ bad_arg $ good_arg $ file_arg $ seed_arg
      $ reps_arg $ jobs_arg $ supervise_term)

(* ------------------------------------------------------------------ *)
(* handoff                                                             *)
(* ------------------------------------------------------------------ *)

let handoff_cmd =
  let blackout_arg =
    Arg.(
      value & opt float 0.5
      & info [ "blackout" ] ~docv:"SEC" ~doc:"Handoff blackout length.")
  in
  let residence_arg =
    Arg.(
      value & opt float 8.0
      & info [ "residence" ] ~docv:"SEC" ~doc:"Cell residence time.")
  in
  let action cc blackout residence seed jobs =
    Printf.printf "%-18s %10s %9s %10s %9s\n" "policy" "tput kbps" "timeouts"
      "fast retx" "handoffs";
    let results =
      Core.Parallel.map ~jobs
        (fun policy ->
          ( policy,
            Core.Handoff.run ~cc ~blackout_sec:blackout
              ~residence_sec:residence ~seed ~policy () ))
        [
          Core.Handoff.Plain; Core.Handoff.Fast_rtx;
          Core.Handoff.Fast_rtx_reroute;
        ]
    in
    List.iter
      (fun (policy, r) ->
        Printf.printf "%-18s %10.2f %9d %10d %9d\n"
          (Core.Handoff.policy_name policy)
          (r.Core.Handoff.throughput_bps /. 1e3)
          r.Core.Handoff.source_timeouts r.Core.Handoff.fast_retransmits
          r.Core.Handoff.handoffs)
      results
  in
  Cmd.v
    (Cmd.info "handoff"
       ~doc:"Handoff experiment: plain TCP vs fast retransmit on re-attach")
    Term.(
      const action $ cc_arg $ blackout_arg $ residence_arg $ seed_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* csdp                                                                *)
(* ------------------------------------------------------------------ *)

let csdp_cmd =
  let conns_arg =
    Arg.(
      value & opt int 2
      & info [ "connections" ] ~docv:"N" ~doc:"Connections sharing the radio.")
  in
  let action n_conns seed jobs =
    let results =
      Core.Parallel.map ~jobs
        (fun policy -> (policy, Core.Csdp.run ~n_conns ~seed ~policy ()))
        [ Core.Sched.Fifo; Core.Sched.Round_robin ]
    in
    List.iter
      (fun (policy, r) ->
        Printf.printf "%s:\n"
          (match policy with
          | Core.Sched.Fifo -> "fifo"
          | Core.Sched.Round_robin -> "round-robin");
        List.iter
          (fun c ->
            Printf.printf "  conn %d: %.2f kbps%s\n" c.Core.Csdp.conn
              (c.Core.Csdp.throughput_bps /. 1e3)
              (if c.Core.Csdp.completed then "" else " (incomplete)"))
          r.Core.Csdp.per_conn;
        Printf.printf "  aggregate: %.2f kbps\n" (r.Core.Csdp.aggregate_bps /. 1e3))
      results
  in
  Cmd.v
    (Cmd.info "csdp"
       ~doc:"Shared-radio scheduling: FIFO vs round-robin (CSDP)")
    Term.(const action $ conns_arg $ seed_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let plans_arg =
    Arg.(
      value & opt int 50
      & info [ "plans" ] ~docv:"N"
          ~doc:"Number of seeded fault plans in the campaign.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Run the runtime invariant checkers after every simulated \
                event (recommended; the campaign fails on any violation).")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:"Disable the invariant checkers (campaign still fails on \
                uncaught exceptions).")
  in
  let action () cc plans base_seed jobs check no_check json_path supervise =
    let check = check || not no_check in
    match supervise with
    | Some options ->
      run_supervised ~exit_on_fail:true ~jobs ~json:json_path options
        (Core.Campaigns.Chaos { plans; base_seed; cc = Some cc; check })
    | None ->
      let results = Core.Chaos.campaign ~plans ~base_seed ~jobs ~check ~cc () in
      print_string (Core.Chaos.render results);
      (match json_path with
      | Some path ->
        Core.Report.write_atomic ~path (Core.Chaos.to_json results);
        Printf.printf "json: %s\n" path
      | None -> ());
      if not (Core.Chaos.ok results) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Campaign of seeded fault plans: BS crashes, disconnections, \
             EBSN loss, queue overflow, handoffs — every plan must end in \
             a well-defined state")
    Term.(
      const action $ cache_setup_term $ cc_arg $ plans_arg $ seed_arg
      $ jobs_arg $ check_arg $ no_check_arg $ json_arg $ supervise_term)

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let resume_cmd =
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "Path to the campaign manifest an interrupted supervised run \
             left behind (printed on interrupt, under \
             $(b,<cache-dir>/campaigns/) by default).")
  in
  let action () manifest jobs deadline retries json_path =
    match Core.Campaign_manifest.load ~path:manifest with
    | Error msg ->
      Printf.eprintf "wtcp: cannot resume %s: %s\n" manifest msg;
      exit 1
    | Ok m -> (
      let spec = m.Core.Campaign_manifest.header.Core.Campaign_manifest.spec in
      match Core.Campaigns.kind_of_spec spec with
      | Error msg ->
        Printf.eprintf "wtcp: cannot resume %s: %s\n" manifest msg;
        exit 1
      | Ok kind ->
        let options =
          {
            Core.Campaigns.default_options with
            Core.Campaigns.deadline;
            retries =
              Option.value retries
                ~default:
                  Core.Campaigns.default_options.Core.Campaigns.retries;
            resume = true;
          }
        in
        let exit_on_fail =
          match kind with Core.Campaigns.Chaos _ -> true | _ -> false
        in
        run_supervised ~exit_on_fail
          ~manifest_dir:(Filename.dirname manifest)
          ~jobs ~json:json_path options kind)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Restart an interrupted supervised campaign from its manifest, \
          re-simulating only the cells it had not checkpointed.  The \
          finished report is byte-identical to an uninterrupted run at \
          any $(b,--jobs).")
    Term.(
      const action $ cache_setup_term $ manifest_arg $ jobs_arg
      $ deadline_arg $ retries_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let stats_action dir =
    let s = Core.Cache_store.stats ~dir in
    Printf.printf "dir:     %s\n" dir;
    Printf.printf "engine:  %s\n" Core.Fingerprint.engine_version;
    Printf.printf "entries: %d (%d bytes)\n" s.Core.Cache_store.entries
      s.Core.Cache_store.bytes;
    Printf.printf "stale:   %d (other engine versions)\n"
      s.Core.Cache_store.stale;
    Printf.printf "corrupt: %d\n" s.Core.Cache_store.corrupt
  in
  let report_skipped (s : Core.Cache_store.sweep) =
    if s.Core.Cache_store.skipped > 0 then
      Printf.printf "skipped %d undeletable entries (damaged tree)\n"
        s.Core.Cache_store.skipped
  in
  let clear_action dir =
    let s = Core.Cache_store.clear ~dir in
    Printf.printf "removed %d entries from %s\n" s.Core.Cache_store.removed dir;
    report_skipped s
  in
  let prune_action dir =
    let s = Core.Cache_store.prune ~dir in
    Printf.printf "pruned %d stale/corrupt entries from %s\n"
      s.Core.Cache_store.removed dir;
    report_skipped s
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats" ~doc:"Entry counts and sizes of the on-disk cache")
      Term.(const stats_action $ cache_dir_arg)
  in
  let clear_cmd =
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cache entry")
      Term.(const clear_action $ cache_dir_arg)
  in
  let prune_cmd =
    Cmd.v
      (Cmd.info "prune"
         ~doc:
           "Remove only stale (other engine version) and corrupt entries, \
            keeping valid ones")
      Term.(const prune_action $ cache_dir_arg)
  in
  Cmd.group
    ~default:Term.(const stats_action $ cache_dir_arg)
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain the content-addressed replication cache \
          (see $(b,--cache) on $(b,compare) and $(b,advisor))")
    [ stats_cmd; clear_cmd; prune_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "wtcp" ~version:"1.0.0"
      ~doc:
        "Simulator for TCP over wireless links: packet-size selection, \
         local recovery and EBSN (Bakshi et al., ICDCS 1997)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; trace_cmd; advisor_cmd; theory_cmd; compare_cmd;
            handoff_cmd; csdp_cmd; chaos_cmd; resume_cmd; cache_cmd;
          ]))
