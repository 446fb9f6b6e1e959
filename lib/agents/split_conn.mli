(** Split-connection relay (I-TCP, Bakre & Badrinath [7]).

    The base station terminates the fixed-host connection and opens a
    second TCP connection over the wireless hop: data packets from the
    fixed host are consumed and acknowledged at the base station, then
    re-sent by a wireless-side Tahoe sender.  Separates wired from
    wireless congestion control at the cost of end-to-end semantics
    (the fixed host sees acks for data the mobile may never receive)
    and per-connection state at the base station — the trade-offs the
    paper's §2 criticises. *)

type t
(** One relayed connection. *)

val create :
  Sim_engine.Simulator.t ->
  wired_config:Tcp_tahoe.Tcp_config.t ->
  wireless_config:Tcp_tahoe.Tcp_config.t ->
  conn:int ->
  fixed:Netsim.Address.t ->
  bs:Netsim.Address.t ->
  mobile:Netsim.Address.t ->
  file_bytes:int ->
  alloc_id:(unit -> int) ->
  send_wired:(Netsim.Packet.t -> unit) ->
  send_downlink:(Netsim.Packet.t -> unit) ->
  t
(** A relay at [bs]: acknowledgements for consumed data go back to
    the fixed host [fixed] through [send_wired]; wireless-side data packets (src [bs], dst
    [mobile]) go out through [send_downlink].  The mobile host's sink
    must be configured with [peer = bs] so its acks come back to the
    relay ({!handle_wireless_ack}). *)

val on_forward : t -> Netsim.Packet.t -> bool
(** Wire as the base-station forward hook: consumes data packets of
    this connection headed for the mobile host. *)

val handle_wireless_ack : t -> ack:int -> sack:(int * int) list -> unit
(** Feed an acknowledgement arriving from the mobile host, with its
    SACK blocks. *)

val buffered_bytes : t -> int
(** Bytes received from the fixed host but not yet acknowledged by
    the mobile host — the relay's state footprint. *)
