(** Assembles and runs one scenario.

    Builds the FH—BS—MH network of the paper's Figure 2 — nodes,
    wired links, the two wireless link directions sharing one channel
    state process, fragmentation/reassembly, the scheme's recovery
    machinery — runs the bulk transfer to completion (or the safety
    horizon) and collects every statistic the experiments need. *)

type outcome = {
  scenario : Scenario.t;
  completed : bool;  (** [false] if the safety horizon was hit *)
  result : Tcp_tahoe.Bulk_app.result option;  (** present iff completed *)
  trace : Metrics.Trace.t option;
      (** source-side sends, timeouts, EBSN and quench arrivals (the
          events of figures 3-5), iff the run enabled tracing
          ([Obs.Config.trace]) *)
  sender_stats : Tcp_tahoe.Tcp_stats.t;
  sink_stats : Tcp_tahoe.Tcp_sink.stats;
  arq_stats : Link_arq.Arq.stats option;  (** present iff the scheme runs ARQ *)
  downlink_stats : Link_arq.Wireless_link.stats;
  uplink_stats : Link_arq.Wireless_link.stats;
  mh_reassembly : Link_arq.Reassembly.stats;
  bs_reassembly : Link_arq.Reassembly.stats;
  snoop_stats : Agents.Snoop.stats option;  (** present iff scheme = Snoop *)
  ebsn_sent : int;  (** notifications emitted by the base station *)
  quench_sent : int;
  nstrace : string option;
      (** NS-style per-link event trace, iff the scenario asked for
          one *)
  obs_trace : string option;
      (** structured JSONL event trace, iff the run enabled tracing *)
  obs_metrics : string option;
      (** metrics registry rendered as JSONL, iff the run enabled
          metrics *)
  end_time : Sim_engine.Simtime.t;
  events_executed : int;
      (** simulator events the run executed (the denominator of the
          benchmark's events/sec) *)
  queue_stats : Sim_engine.Event_queue.stats;
      (** lifetime pending-event-set counters, for the engine stats
          surface ([wtcp run --engine-stats]) *)
  timer_stats : Sim_engine.Soft_timer.counters;
      (** soft-timer operation counters summed over the TCP
          retransmission timer and every ARQ entry timer: how many
          re-arms fused, how many cancels were lazy, how many physical
          events surfaced stale or chased a moved deadline *)
  fault : Sim_engine.Simulator.fault_report option;
      (** present when fault injection was active and a component
          raised: the run ended early and this outcome is partial *)
  fault_events : Error_model.Fault.event list;
      (** faults the plan actually applied, in application order
          (empty without fault injection) *)
}

val run : ?obs:Obs.Config.t -> ?faults:Faults.Plan.t -> Scenario.t -> outcome
(** Execute the scenario.  Deterministic: equal scenarios (including
    seed) produce equal outcomes — including the observability
    output, which is byte-identical across replications and [jobs=]
    settings.  [obs] (default {!Obs.Config.default}) selects invariant
    checking ({!Obs.Invariant.Violation} raised out of the run on the
    first violated invariant), structured tracing and metrics
    collection.

    [faults] (default [Faults.Plan.default ()], normally [None])
    schedules a deterministic fault plan through the run.  Fault
    application draws no randomness, so the empty plan is
    byte-identical to a plain run.  With a plan active, an exception
    escaping a component yields a {e partial} outcome with [fault]
    set (statistics and any trace valid up to the failure) instead of
    raising; without one, the original exception (e.g. an
    invariant violation) propagates unchanged. *)

val throughput_bps : outcome -> float
(** The paper's throughput metric (0 when the run did not
    complete). *)

val goodput : outcome -> float
(** The paper's goodput metric (0 when the run did not complete). *)

val retransmitted_kbytes : outcome -> float
(** Payload kilobytes re-sent by the TCP source (Figures 9 and
    11). *)

val source_timeouts : outcome -> int
(** Retransmission-timer expiries at the source. *)
