(** Simulation logging.

    Thin wrapper over [Logs] that prefixes messages with the virtual
    clock.  Logging is off by default.  A disabled call renders no
    string, but it still walks the format and allocates for its
    arguments, so a call on a per-packet path should be guarded by
    {!debug_enabled}. *)

val src : Logs.src
(** The log source for simulator internals ("wtcp.sim"). *)

val set_level : Logs.level option -> unit
(** Set verbosity for all simulator sources and install a reporter on
    stderr if none is installed. *)

val debug_enabled : unit -> bool
(** [true] iff {!debug} messages are currently emitted. *)

val debug : Simulator.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Debug-level message stamped with the current simulated time. *)

val info : Simulator.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Info-level message stamped with the current simulated time. *)
