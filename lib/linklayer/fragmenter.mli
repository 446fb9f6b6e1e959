(** Wireless-MTU fragmentation.

    Network-layer packets larger than the wireless MTU are split into
    MTU-sized fragments before transmission over the wireless link
    (paper §3.1: wide-area wireless MTUs are small, e.g. 128 bytes in
    CDPD).  Loss of any fragment loses the whole packet unless the
    link layer recovers it. *)

val fragment_count : mtu:int -> Netsim.Packet.t -> int
(** Number of fragments the packet needs ([1] if it fits). *)

val split : mtu:int -> Netsim.Packet.t -> Frame.payload list
(** The frame payloads for one packet, in index order: a single
    [Whole] when the packet fits in the MTU, otherwise [Fragment]s
    whose byte counts sum to the packet size, all but the last equal
    to [mtu].  @raise Invalid_argument if [mtu <= 0]. *)

val nth : mtu:int -> Netsim.Packet.t -> count:int -> int -> Frame.payload
(** [nth ~mtu pkt ~count index] is element [index] of
    [split ~mtu pkt], where [count = fragment_count ~mtu pkt], without
    building the list: the per-packet send path loops over the
    indices. *)
