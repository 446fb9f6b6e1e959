(** Wireless-TCP: a reproduction of Bakshi, Krishna, Vaidya & Pradhan,
    "Improving Performance of TCP over Wireless Networks" (ICDCS
    1997), as a reusable OCaml library.

    This module is the public umbrella: it re-exports the simulation
    engine, the network substrate, the wireless error models, the
    link-level recovery machinery, TCP-Tahoe, the feedback mechanisms
    (EBSN — the paper's contribution — and ICMP source quench), the
    related-work agents, the experiment scenarios and the figure
    reproductions.

    Quick start:
    {[
      let scenario = Core.Scenario.wan ~scheme:Core.Scenario.Ebsn () in
      let outcome = Core.Wiring.run scenario in
      Printf.printf "throughput: %.1f kbit/s\n"
        (Core.Wiring.throughput_bps outcome /. 1e3)
    ]} *)

(** {1 Observability} *)

module Obs = Obs

(** {1 Simulation engine} *)

module Simtime = Sim_engine.Simtime
module Rng = Sim_engine.Rng
module Event_queue = Sim_engine.Event_queue
module Simulator = Sim_engine.Simulator
module Soft_timer = Sim_engine.Soft_timer
module Slog = Sim_engine.Slog
module Parallel = Sim_engine.Parallel

(** {1 Network substrate} *)

module Units = Netsim.Units
module Address = Netsim.Address
module Ids = Netsim.Ids
module Packet = Netsim.Packet
module Ring = Netsim.Ring
module Queue_drop_tail = Netsim.Queue_drop_tail
module Link = Netsim.Link
module Node = Netsim.Node
module Cross_traffic = Netsim.Cross_traffic

(** {1 Wireless error models} *)

module Channel_state = Error_model.Channel_state
module Channel = Error_model.Channel
module State_timeline = Error_model.State_timeline
module Gilbert_elliott = Error_model.Gilbert_elliott
module Deterministic_channel = Error_model.Deterministic_channel
module Uniform_channel = Error_model.Uniform_channel
module Trace_channel = Error_model.Trace_channel
module Loss = Error_model.Loss

(** {1 Wireless link layer} *)

module Frame = Link_arq.Frame
module Fragmenter = Link_arq.Fragmenter
module Reassembly = Link_arq.Reassembly
module Backoff = Link_arq.Backoff
module Sched = Link_arq.Sched
module Wireless_link = Link_arq.Wireless_link
module Arq = Link_arq.Arq
module Arq_receiver = Link_arq.Arq_receiver

(** {1 TCP Tahoe} *)

module Tcp_config = Tcp_tahoe.Tcp_config
module Rto = Tcp_tahoe.Rto
module Tcp_stats = Tcp_tahoe.Tcp_stats
module Tcp_sender = Tcp_tahoe.Tcp_sender
module Tcp_sink = Tcp_tahoe.Tcp_sink
module Bulk_app = Tcp_tahoe.Bulk_app

(** {1 Base-station feedback (the paper's contribution)} *)

module Ebsn = Feedback.Ebsn
module Source_quench = Feedback.Source_quench

(** {1 Related-work agents} *)

module Snoop = Agents.Snoop
module Split_conn = Agents.Split_conn

(** {1 Fault injection (chaos testing)} *)

module Fault = Error_model.Fault
module Fault_plan = Faults.Plan
module Fault_injector = Faults.Injector

(** {1 Scenarios and wiring} *)

module Scenario = Topology.Scenario
module Wiring = Topology.Wiring

(** {1 Replication cache} *)

module Fingerprint = Repcache.Fingerprint
module Cache = Repcache.Cache
module Cache_store = Repcache.Store

(** {1 Metrics} *)

module Summary = Metrics.Summary
module Trace = Metrics.Trace
module Timeseq = Metrics.Timeseq
module Nstrace = Metrics.Nstrace

(** {1 Experiments (paper figures and ablations)} *)

module Theory = Experiments.Theory
module Run = Experiments.Run
module Sweep = Experiments.Sweep
module Report = Experiments.Report
module Fig_traces = Experiments.Fig_traces
module Wan_sweep = Experiments.Wan_sweep
module Lan_sweep = Experiments.Lan_sweep
module Fig7 = Experiments.Fig7
module Fig8 = Experiments.Fig8
module Fig9 = Experiments.Fig9
module Fig10 = Experiments.Fig10
module Fig11 = Experiments.Fig11
module Csdp = Experiments.Csdp
module Handoff = Experiments.Handoff
module Ablations = Experiments.Ablations
module Chaos = Experiments.Chaos

(** {1 Packet-size selection (§4.1)} *)

module Packet_size_advisor = Experiments.Packet_size_advisor

(** {1 Supervised campaigns (deadlines, retry, checkpoint/resume)} *)

module Supervisor = Supervise.Supervisor
module Campaign_manifest = Supervise.Manifest
module Campaigns = Supervise.Campaigns
