(** Bulk-transfer application: one file, one connection.

    Pairs a {!Tcp_sender} at the fixed host with a {!Tcp_sink} at
    the mobile host and computes the paper's two metrics when the
    transfer finishes. *)

type result = {
  file_bytes : int;
  start_time : Sim_engine.Simtime.t;
  finish_time : Sim_engine.Simtime.t;
  duration : Sim_engine.Simtime.span;
  throughput_bps : float;
      (** bits/s of delivered data, counting the 40-byte header of
          each useful segment, as the paper measures (§5) *)
  goodput : float;
      (** useful payload ÷ payload transmitted by the source *)
  sender_stats : Tcp_stats.t;
  sink_stats : Tcp_sink.stats;
}

val throughput_bps :
  config:Tcp_config.t ->
  file_bytes:int ->
  duration:Sim_engine.Simtime.span ->
  float
(** The paper's throughput: delivered payload plus one 40-byte header
    per full-MSS segment, divided by the connection time. *)

val result :
  config:Tcp_config.t ->
  sender:Tcp_sender.t ->
  sink:Tcp_sink.t ->
  file_bytes:int ->
  start_time:Sim_engine.Simtime.t ->
  result
(** Compute metrics after the sink has completed.
    @raise Invalid_argument if the transfer is not complete. *)
