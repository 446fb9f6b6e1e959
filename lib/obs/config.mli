(** Per-run observability configuration.

    [check] runs the invariant checkers after every simulated event;
    [trace] collects the structured JSONL event trace
    ([Wiring.outcome.obs_trace]), from which figures 3-5 read the
    source's sends and timeouts back; [metrics] collects the metrics
    registry.  All three default to off, which costs the instrumented
    hot paths a single branch per hook.

    The process-wide default lets command-line front ends (wtcp,
    bench) switch every subsequent run into checked mode without
    threading a value through the experiment stack.  Set it once
    before fanning runs out across domains. *)

type t = { check : bool; trace : bool; metrics : bool }

val off : t
(** Everything disabled — the ordinary fast path. *)

val checked : t
(** Invariant checking only. *)

val all : t
(** Checking, trace and metrics all enabled. *)

val default : unit -> t
(** The process-wide default used by runs not given an explicit
    configuration.  Initially {!off}. *)

val set_default : t -> unit
