(** Chaos campaigns: many seeded fault plans driven through the
    simulator, asserting graceful degradation.

    Each plan in a campaign runs one scenario (alternating WAN/LAN
    presets, cycling through every recovery scheme) under a
    {!Faults.Plan} generated from the same seed.  The acceptance bar
    is that {e every} run ends in a well-defined state: either the
    transfer completed, or it degraded (horizon hit) — never an
    uncaught exception, and never an invariant violation when checked
    mode is on.  Shared by [wtcp chaos] and the supervised chaos
    campaign. *)

type spec = {
  index : int;
  seed : int;  (** scenario seed and fault-plan seed *)
  scenario : Topology.Scenario.t;
  plan : Faults.Plan.t;
  label : string;  (** e.g. ["wan/ebsn seed=7"] *)
}

type status =
  | Clean of { completed : bool }
      (** no exception escaped; [completed = false] means the transfer
          degraded to the safety horizon *)
  | Faulted of { violation : string option; rendered : string }
      (** a component raised and the run returned a partial outcome;
          [violation] names the invariant when that is what failed *)
  | Uncaught of string  (** an exception escaped [Wiring.run] itself *)

type run_result = {
  spec : spec;
  status : status;
  injected : (Error_model.Fault.kind * int) list;
      (** faults the plan actually applied, tallied by kind *)
  events_executed : int;
  throughput_bps : float;
}

val specs :
  ?cc:Tcp_tahoe.Tcp_config.cc -> plans:int -> base_seed:int -> unit ->
  spec list
(** The campaign's cell specs, regenerated deterministically from
    [(plans, base_seed, cc)] — which is what lets a resumed campaign
    rebuild exactly the cells its manifest checkpointed. *)

val run_spec : check:bool -> spec -> run_result
(** Run one cell.  Per-run exceptions are captured into {!Uncaught} —
    except {!Sim_engine.Simulator.Budget_exhausted}, which re-raises
    so a supervisor can retry the cell at a relaxed deadline tier. *)

val campaign :
  ?plans:int -> ?base_seed:int -> ?jobs:int -> ?check:bool ->
  ?cc:Tcp_tahoe.Tcp_config.cc -> unit ->
  run_result list
(** Run a campaign of [plans] (default 50) seeded fault plans, seeds
    [base_seed .. base_seed+plans-1] (default from 1), fanned out over
    [jobs] domains (default 1), with invariant checking on by default.
    [cc] overrides every scenario's congestion-control variant
    (default: the presets' Tahoe).  Per-run exceptions are captured
    into {!Uncaught}, so the list always has [plans] entries in spec
    order. *)

val ok : run_result list -> bool
(** [true] iff every run is {!Clean} — zero uncaught exceptions and
    zero component faults (hence zero invariant violations). *)

val render : run_result list -> string
(** Human-readable summary: headline counts, per-kind injected-fault
    totals, and one line per non-clean run with its plan. *)

val to_json : run_result list -> string
(** The campaign as a JSON document (summary plus one record per
    run). *)

val injected_totals : run_result list -> (Error_model.Fault.kind * int) list
(** Applied-fault counts summed across runs, omitting kinds that
    never fired, in {!Error_model.Fault.all_kinds} order. *)

val json_escape : string -> string
(** JSON string-body escaping used by {!to_json} — shared with the
    supervised campaign renderer so both emit identical documents. *)

val result_to_string : run_result -> string
(** Exact single-line codec for one cell (spec excluded — specs
    regenerate from the campaign parameters): floats travel as
    IEEE-754 bit patterns, free text percent-encoded, so
    [result_of_string spec (result_to_string r) = Some r] whenever
    [r.spec = spec].  Used as the supervised campaign's checkpoint
    payload. *)

val result_of_string : spec -> string -> run_result option
(** Decode a checkpoint payload, re-attaching [spec]; [None] on any
    malformed input. *)
