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

(* Strict-flag convention: a custom conv makes a malformed or
   out-of-range value a cmdliner parse error, which exits 124 like an
   unknown flag, instead of an engine [Invalid_argument] later. *)
let checked_conv of_string print ~expected ok =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, print)

let positive_int_conv =
  checked_conv int_of_string_opt Format.pp_print_int
    ~expected:"a positive integer" (fun n -> n >= 1)

let finite_float_conv ~expected ok =
  checked_conv float_of_string_opt Format.pp_print_float ~expected (fun x ->
      Float.is_finite x && ok x)

let positive_float_conv =
  finite_float_conv ~expected:"a finite positive number" (fun x -> x > 0.0)

(* Ranges across flags, from [Campaigns.check_inputs]: the packet-size
   limit depends on the preset's TCP window, which no one-flag conv
   sees, and a resumed campaign spec is held to the same ranges.  Out
   of range is a usage error (exit 124), like a bad flag; each term
   that takes such inputs ends in [Term.ret]. *)
let in_range ~preset ~packet_size periods k =
  match Core.Campaigns.check_inputs ~preset ~packet_size ~periods with
  | Ok () -> `Ok (k ())
  | Error msg -> `Error (false, msg)

(* A closed set of named values: an unknown name is a parse error that
   lists the set. *)
let named_conv ~what name all =
  let parse s =
    match List.find_opt (fun v -> name v = s) all with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (%s)" what s
             (String.concat "|" (List.map name all))))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let preset_conv =
  named_conv ~what:"preset" Core.Campaigns.preset_name
    Core.Campaigns.[ Wan; Lan ]

let scheme_conv =
  named_conv ~what:"scheme" Core.Scenario.scheme_name Core.Scenario.all_schemes

let preset_arg =
  Arg.(
    value
    & opt preset_conv Core.Campaigns.Wan
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
    & opt
        (some
           (checked_conv int_of_string_opt Format.pp_print_int
              ~expected:"more than the 40-byte header" (fun n -> n > 40)))
        None
    & info [ "packet-size" ] ~docv:"BYTES"
        ~doc:"Wired-network packet size incl. 40-byte header (default: \
              576 WAN, 1536 LAN).")

let bad_arg =
  Arg.(
    value
    & opt (some positive_float_conv) None
    & info [ "bad" ] ~docv:"SEC"
        ~doc:"Mean bad-period length in seconds (default: 4 WAN, 1 LAN).")

let good_arg =
  Arg.(
    value
    & opt (some positive_float_conv) None
    & info [ "good" ] ~docv:"SEC"
        ~doc:"Mean good-period length in seconds (default: 10 WAN, 4 LAN).")

let file_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "file" ] ~docv:"BYTES"
        ~doc:"Transfer size in bytes (default: 100KB WAN, 4MB LAN).")

let reps_arg ~doc =
  Arg.(value & opt positive_int_conv 5 & info [ "replications" ] ~docv:"N" ~doc)

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

(* The hit statistics, printed after a campaign's report when the
   cache is on. *)
let print_cache_stats () =
  if Core.Cache.active () then begin
    let s = Core.Cache.stats () in
    Printf.printf "cache:      %d disk hits, %d misses%s\n"
      s.Core.Cache.disk_hits s.Core.Cache.misses
      (match Core.Cache.mode () with
      | Core.Cache.Verify ->
        Printf.sprintf ", %d verified" s.Core.Cache.verify_ok
      | _ -> "")
  end

let cc_conv =
  named_conv ~what:"congestion control" Core.Tcp_config.cc_name
    Core.Tcp_config.all_ccs

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
  Core.Scenario.with_cc
    (Core.Campaigns.scenario preset ?packet_size ?bad ?good ?file ~seed
       ~error_mode scheme)
    cc

let scenario_term =
  let assemble cc verbose preset scheme packet_size bad good file seed
      deterministic =
    in_range ~preset ~packet_size [ ("--bad", bad); ("--good", good) ]
    @@ fun () ->
    build_scenario ~cc ~verbose preset scheme packet_size bad good file
      seed deterministic
  in
  Term.(
    ret
      (const assemble $ cc_arg $ verbose_arg $ preset_arg $ scheme_arg
     $ packet_size_arg $ bad_arg $ good_arg $ file_arg $ seed_arg
     $ deterministic_arg))

(* ------------------------------------------------------------------ *)
(* Campaigns (compare / advisor / chaos / resume)                      *)
(* ------------------------------------------------------------------ *)

let supervised_arg =
  Arg.(
    value & flag
    & info [ "supervised" ]
        ~doc:
          "Run the same cells under the supervisor, which prints the same \
           report plus a $(b,supervisor:) line: each completed cell's \
           result is checkpointed in one campaign manifest under \
           $(b,<cache-dir>/campaigns/), SIGINT/SIGTERM flushes a partial \
           report (exit 130), and $(b,wtcp resume) restarts from that \
           manifest alone, re-simulating only the missing cells.  \
           Implied by $(b,--deadline), $(b,--retries) and $(b,--resume).")

let deadline_arg =
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "deadline" ] ~docv:"EVENTS"
        ~doc:
          "Per-cell deadline as a simulated-event budget, enforced \
           cooperatively inside the engine so determinism is untouched.  \
           A cell that exhausts it is retried at once with an 8x larger \
           budget per attempt, then quarantined.  A cell under a deadline \
           always simulates: $(b,--cache) does not serve it.")

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
           are restored from it, only the rest re-simulate.  Without \
           this flag a fresh run deletes any old manifest.")

let supervise_options ~resume deadline retries =
  {
    Core.Campaigns.deadline;
    retries =
      Option.value retries
        ~default:Core.Campaigns.default_options.Core.Campaigns.retries;
    resume;
  }

let supervise_term =
  let assemble supervised deadline retries resume =
    if supervised || resume || deadline <> None || retries <> None then
      Some (supervise_options ~resume deadline retries)
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

(* Every file the CLI writes goes through here: an unwritable path is
   a user error (exit 1 with a message), not an uncaught [Sys_error]. *)
let write_output ~path contents =
  try Core.Report.write_atomic ~path contents
  with Sys_error msg ->
    Printf.eprintf "wtcp: cannot write %s: %s\n" path msg;
    exit 1

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

(* The one runner behind compare, advisor, chaos and resume.  Plain
   ([supervise = None]) the cells run once each; [Some options] adds
   the manifest, deadlines, retries and resume, and the
   [supervisor:] line after the same report.  A verify divergence,
   from the cache or a restored checkpoint, exits 1, and so does a
   chaos campaign that is not [ok]. *)
let run_campaign ?manifest_dir ~jobs ~json supervise kind =
  let checkpoint = Option.is_some supervise in
  let should_stop = if checkpoint then Some (install_interrupt ()) else None in
  match
    Core.Campaigns.run ~jobs ?options:supervise ?manifest_dir ?should_stop kind
  with
  | exception Sys_error msg when checkpoint ->
    Printf.eprintf "wtcp: cannot checkpoint campaign: %s\n" msg;
    exit 1
  | exception Core.Cache.Verify_mismatch { key; _ } ->
    Printf.eprintf
      "wtcp: verify FAILED: entry %s diverges from a fresh simulation\n" key;
    exit 1
  | report ->
    print_string report.Core.Campaigns.rendered;
    (match (json, report.Core.Campaigns.json) with
    | Some path, Some doc ->
      write_output ~path doc;
      Printf.printf "json: %s\n" path
    | _ -> ());
    print_cache_stats ();
    if checkpoint then
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
    if not report.Core.Campaigns.ok then exit 1

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
        write_output ~path data;
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
      value & opt positive_float_conv 60.0
      & info [ "window" ] ~docv:"SEC" ~doc:"Plotted window in seconds.")
  in
  let action preset scheme packet_size bad good file seed window =
    in_range ~preset ~packet_size
      [ ("--bad", bad); ("--good", good); ("--window", Some window) ]
    @@ fun () ->
    let scenario =
      build_scenario preset scheme packet_size bad good file seed true
    in
    let outcome = Core.Wiring.run scenario in
    let until = Core.Simtime.(add zero (span_sec window)) in
    print_endline (Core.Scenario.describe scenario);
    print_endline
      (Core.Timeseq.render ~until (Core.Trace.sends outcome.Core.Wiring.trace));
    print_outcome scenario outcome
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Packet trace under deterministic errors (Figures 3-5 style)")
    Term.(
      ret
        (const action $ preset_arg $ scheme_arg $ packet_size_arg $ bad_arg
       $ good_arg $ file_arg $ seed_arg $ window_arg))

(* ------------------------------------------------------------------ *)
(* advisor                                                             *)
(* ------------------------------------------------------------------ *)

let advisor_cmd =
  let bads_arg =
    Arg.(
      value
      & opt (list positive_float_conv) [ 1.0; 2.0; 3.0; 4.0 ]
      & info [ "bad-periods" ] ~docv:"SECS"
          ~doc:"Comma-separated mean bad-period lengths to tabulate.")
  in
  let action () bads replications jobs supervise =
    in_range ~preset:Core.Campaigns.Wan ~packet_size:None
      (List.map (fun bad -> ("--bad-periods", Some bad)) bads)
    @@ fun () ->
    run_campaign ~jobs ~json:None supervise
      (Core.Campaigns.Advisor { bads; replications })
  in
  Cmd.v
    (Cmd.info "advisor"
       ~doc:"Build the base station's packet-size table (paper §4.1)")
    Term.(
      ret
        (const action $ cache_setup_term $ bads_arg
        $ reps_arg ~doc:"Runs per data point." $ jobs_arg $ supervise_term))

(* ------------------------------------------------------------------ *)
(* theory                                                              *)
(* ------------------------------------------------------------------ *)

let theory_cmd =
  let action preset bad good =
    in_range ~preset ~packet_size:None [ ("--bad", bad); ("--good", good) ]
    @@ fun () ->
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
    Term.(ret (const action $ preset_arg $ bad_arg $ good_arg))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let action () cc preset packet_size bad good file seed replications jobs
      supervise =
    in_range ~preset ~packet_size [ ("--bad", bad); ("--good", good) ]
    @@ fun () ->
    run_campaign ~jobs ~json:None supervise
      (Core.Campaigns.Compare
         { preset; packet_size; bad; good; file; seed; replications; cc })
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"All recovery schemes side by side")
    Term.(
      ret
        (const action $ cache_setup_term $ cc_arg $ preset_arg
       $ packet_size_arg $ bad_arg $ good_arg $ file_arg $ seed_arg
       $ reps_arg ~doc:"Runs per scheme; run $(i,r) uses seed 1000$(i,r)+16+N."
       $ jobs_arg $ supervise_term))

(* ------------------------------------------------------------------ *)
(* handoff                                                             *)
(* ------------------------------------------------------------------ *)

let handoff_cmd =
  let blackout_arg =
    Arg.(
      value
      & opt
          (finite_float_conv ~expected:"a finite non-negative number"
             (fun x -> x >= 0.0))
          0.5
      & info [ "blackout" ] ~docv:"SEC" ~doc:"Handoff blackout length.")
  in
  let residence_arg =
    Arg.(
      value & opt positive_float_conv 8.0
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
      value & opt positive_int_conv 2
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
      value & opt positive_int_conv 50
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
    run_campaign ~jobs ~json:json_path supervise
      (Core.Campaigns.Chaos { plans; base_seed; cc = Some cc; check })
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
    let refuse msg =
      Printf.eprintf "wtcp: cannot resume %s: %s\n" manifest msg;
      exit 1
    in
    match Core.Campaign_manifest.load ~path:manifest with
    | Error msg -> refuse msg
    | Ok m -> (
      let header = m.Core.Campaign_manifest.header in
      match Core.Campaigns.kind_of_spec header.Core.Campaign_manifest.spec with
      | Error msg -> refuse msg
      | Ok kind
        when Core.Campaigns.cell_count kind
             <> header.Core.Campaign_manifest.cells ->
        refuse
          (Printf.sprintf "header says %d cells, its spec builds %d"
             header.Core.Campaign_manifest.cells
             (Core.Campaigns.cell_count kind))
      | Ok kind ->
        run_campaign
          ~manifest_dir:(Filename.dirname manifest)
          ~jobs ~json:json_path
          (Some (supervise_options ~resume:true deadline retries))
          kind)
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
  let module S = Core.Cache_store in
  let stats_action dir =
    let s = S.stats ~dir in
    Printf.printf
      "dir:     %s\nengine:  %s\nentries: %d (%d bytes)\n\
       stale:   %d (other engine versions)\ncorrupt: %d\n"
      dir Core.Fingerprint.engine_version s.S.entries s.S.bytes s.S.stale
      s.S.corrupt
  in
  let sweep_action sweep message dir =
    let s : S.sweep = sweep ~dir in
    Printf.printf message s.S.removed dir;
    if s.S.skipped > 0 then
      Printf.printf "skipped %d undeletable segments\n" s.S.skipped
  in
  let cmd name doc action =
    Cmd.v (Cmd.info name ~doc) Term.(const action $ cache_dir_arg)
  in
  Cmd.group
    ~default:Term.(const stats_action $ cache_dir_arg)
    (Cmd.info "cache"
       ~doc:
         "Inspect or maintain the content-addressed replication cache \
          (see $(b,--cache) on $(b,compare) and $(b,advisor))")
    [
      cmd "stats" "Entry counts and sizes of the on-disk cache" stats_action;
      cmd "clear" "Delete every cache segment"
        (sweep_action S.clear "removed %d records from %s\n");
      cmd "prune"
        "Compact the cache into one segment of its valid records, dropping \
         stale (other engine version), corrupt and duplicate ones"
        (sweep_action S.prune
           "pruned %d stale, corrupt or duplicate records from %s\n");
    ]

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
