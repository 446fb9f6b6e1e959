(** Chaos campaigns: many seeded fault plans driven through the
    simulator, asserting graceful degradation.

    Each plan in a campaign runs one scenario (alternating WAN/LAN
    presets, cycling through every recovery scheme) under a
    {!Faults.Plan} generated from the same seed.  The acceptance bar
    is that {e every} run ends in a well-defined state: either the
    transfer completed, or it degraded (horizon hit) — never an
    uncaught exception, and never an invariant violation when checked
    mode is on.  This module builds and runs the cells;
    [Supervise.Campaigns] runs them as a campaign and renders the
    one chaos report that [wtcp chaos] prints, supervised or not. *)

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
