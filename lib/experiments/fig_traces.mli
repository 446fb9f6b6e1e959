(** Figures 3–5: packet traces under the deterministic error model.

    The paper's §4.2.1 example: 576-byte packets, 4 KB window,
    wide-area links, constant good period 10 s / bad period 4 s, so
    the identical loss pattern can be compared under basic TCP, local
    recovery and EBSN.  Rendered as ASCII time–sequence plots (packet
    number mod 90 vs time, retransmissions marked [R]), read back from
    each run's JSONL trace ({!Tcp_tahoe.Tcp_sender.traced_sends}). *)

type trace_result = {
  scheme : Topology.Scenario.scheme;
  plot : string;  (** the 60-second time–sequence plot *)
  timeouts_in_window : int;  (** source timeouts during the plot *)
  retransmissions_in_window : int;  (** source re-sends during the plot *)
  measurement : Run.measurement;  (** whole-connection metrics *)
}

val window_sec : float
(** Plotted window: 60 s, as in the paper's figures. *)

val compute : Topology.Scenario.scheme -> trace_result
(** Run the deterministic example under one scheme. *)

val render_all : unit -> string
(** Figures 3 (basic), 4 (local recovery) and 5 (EBSN), each with its
    timeout/retransmission summary. *)
