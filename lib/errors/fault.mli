(** Shared fault taxonomy.

    The fault-injection subsystem ({!Faults} in lib/faults) and the
    components it perturbs describe what went wrong in one shared
    vocabulary, so campaign reports, traces, and per-run outcomes all
    classify failures the same way.  This module is pure bookkeeping:
    it never raises and knows nothing about the simulator. *)

type kind =
  | Crash  (** base station crash/reboot: ARQ + reassembly state lost *)
  | Disconnection  (** link blackout window: frames silently vanish *)
  | Path_loss  (** uplink (ACK-path) blackout *)
  | Notification_loss  (** an EBSN/quench notification dropped in flight *)
  | Notification_duplicate  (** a notification delivered twice *)
  | Notification_delay  (** a notification delivered late *)
  | Queue_overflow  (** drop-tail queue capacity squeezed, forcing drops *)
  | Handoff  (** mid-transfer handoff: crash + blackout on both paths *)
  | Component_failure  (** an exception captured by [Simulator.run] *)

val all_kinds : kind list
(** Every kind, in declaration order. *)

val kind_name : kind -> string
(** Stable snake_case name, used in reports and JSON. *)

type event = {
  at_ns : int;  (** simulated time the fault was applied *)
  kind : kind;
  component : string;  (** which component was hit, e.g. ["bs"] *)
  detail : string;  (** human-readable description of the effect *)
}

(** {2 Fault logs}

    An append-only record of the faults actually applied during a
    run. *)

type log

val log : unit -> log
(** A fresh, empty log. *)

val record : log -> at_ns:int -> kind:kind -> component:string -> string -> unit
(** Append one applied-fault event. *)

val events : log -> event list
(** Events in application order. *)

val count : log -> int

val summarize : event list -> (kind * int) list
(** Occurrence count per kind, omitting kinds that never fired, in
    {!all_kinds} order. *)
