(** NS-style packet trace files.

    The original substrate (LBL's ns) emits one line per link event —
    enqueue, dequeue/transmit, receive, drop — which its tools (and
    the paper's figures) post-process.  This module reproduces that
    format for our links:

    {v
    <op> <time> <link> <kind> <bytes> <id> [extra]
    v}

    where [op] is [+] enqueued, [-] transmission starts, [r] received,
    [d] dropped by a full queue, and [x] destroyed by channel errors
    (wireless only).  Times are seconds with microsecond precision. *)

type t
(** A trace under construction. *)

val create : Sim_engine.Simulator.t -> t
(** An empty trace stamped from the simulator's clock. *)

val wired_monitor : t -> link:string -> Netsim.Link.monitor_event -> unit
(** Use [Link.set_monitor l (wired_monitor trace ~link:"fh->bs")]. *)

val wireless_monitor :
  t -> link:string -> Link_arq.Wireless_link.monitor_event -> unit
(** Use with [Wireless_link.set_monitor]. *)

val length : t -> int
(** Lines recorded so far. *)

val to_string : t -> string
(** All lines, oldest first, newline-terminated. *)
