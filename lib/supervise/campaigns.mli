(** Campaign kinds: the one runner behind [wtcp compare], [wtcp
    advisor] and [wtcp chaos].

    A kind builds keyed cells (one per scheme or candidate size and
    replication, or one per fault plan), settles them and renders the
    outcomes into the command's report.  {!run} runs the cells once
    each on the domain pool, or with checkpointing under the
    {!Supervisor}, which adds the manifest, deadlines, retries and
    resume.  The report is a function of the settled outcomes only, so
    both print the same bytes, and an interrupted-and-resumed campaign
    prints byte-identically to an uninterrupted one at any [jobs].

    Each kind captures the scalars needed to rebuild its cells in a
    single-line {e spec} ({!spec_string} / {!kind_of_spec}, floats as
    exact hex literals) — the line the manifest pins and [wtcp resume]
    parses. *)

type preset = Wan | Lan

val preset_name : preset -> string
(** ["wan"] or ["lan"], as the CLI and a campaign spec spell it. *)

val scenario :
  preset ->
  ?packet_size:int ->
  ?bad:float ->
  ?good:float ->
  ?file:int ->
  ?error_mode:Topology.Scenario.error_mode ->
  ?seed:int ->
  Topology.Scenario.scheme ->
  Topology.Scenario.t
(** The preset's scenario ({!Topology.Scenario.wan} or
    {!Topology.Scenario.lan}) for a scheme, with the given overrides
    (bad and good are mean periods in seconds, file in bytes). *)

type kind =
  | Chaos of {
      plans : int;
      base_seed : int;
      cc : Tcp_tahoe.Tcp_config.cc option;
      check : bool;
    }
  | Compare of {
      preset : preset;
      packet_size : int option;
      bad : float option;
      good : float option;
      file : int option;
      seed : int;
      replications : int;
      cc : Tcp_tahoe.Tcp_config.cc;
    }
  | Advisor of { bads : float list; replications : int }

type options = {
  deadline : int option;
      (** per-cell simulated-event budget (attempt 1); [None] = none *)
  retries : int;  (** total attempts per cell before quarantine *)
  resume : bool;
      (** reuse a surviving manifest instead of deleting it *)
}

val default_options : options
(** No deadline, 3 attempts, fresh (non-resume) run. *)

type report = {
  rendered : string;
      (** the campaign report, byte-stable across interruption/resume
          and [jobs]; prefixed with a [partial:] line iff interrupted *)
  json : string option;  (** chaos campaigns only *)
  ok : bool;
      (** chaos: no faulted/uncaught runs (quarantine does not fail a
          campaign); always [true] for compare/advisor, whose reports
          list each quarantined cell under the table instead of
          averaging it in *)
  total : int;  (** campaign cells *)
  completed : int;  (** cells settled by this run *)
  resumed : int;  (** cells restored from the manifest *)
  quarantined : int;  (** quarantined cells, restored or fresh *)
  interrupted : bool;
  manifest_path : string option;
}

val check_inputs :
  preset:preset ->
  packet_size:int option ->
  periods:(string * float option) list ->
  channels:(float option * float option) list ->
  (unit, string) result
(** The engine's ranges for a scenario's inputs, which the CLI and
    {!kind_of_spec} share: the packet size must hold the 40-byte
    header and fit the preset's TCP window (41..4136 B on [Wan],
    41..65576 B on [Lan]), and each named period (a mean bad or good
    period, or a plotted window, in seconds) must round to a span of
    at least 1 ns that {!Sim_engine.Simtime} can hold (below 2{^ 62}
    ns, about 146 years).  Each of [channels], a (mean bad, mean good)
    pair with [None] for the preset's default, may expect at most
    2{^ 22} channel periods over the preset's horizon,
    [2 * horizon / (good + bad)], because a run keeps every period it
    draws: good + bad must be at least 1.72 ms on [Wan] (3600 s) and
    0.57 ms on [Lan] (1200 s).  A [None] period is not checked.  The
    error names the first value out of range. *)

val spec_string : kind -> string
(** The single-line campaign spec; [kind_of_spec (spec_string k) =
    Ok k]. *)

val kind_of_spec : string -> (kind, string) result
(** Parse a spec line.  A spec whose values are out of the CLI's
    ranges (a non-positive count, or inputs {!check_inputs} rejects)
    is an error, like an unparseable one. *)

val cell_count : kind -> int
(** How many cells {!run} builds for the kind, without building them:
    what a manifest's [cells] header must say for its spec. *)

val run :
  ?jobs:int ->
  ?options:options ->
  ?wave_size:int ->
  ?sabotage:Supervisor.sabotage ->
  ?should_stop:(completed:int -> bool) ->
  ?manifest_dir:string ->
  ?store_dir:string ->
  kind ->
  report
(** Build the kind's cells, settle them over [jobs] domains, and render
    the outcomes.  Measurement cells (compare, advisor) go through
    {!Experiments.Run.measure_cached}, so the replication cache's mode
    applies either way; only an attempt under a deadline simulates
    without it, since a cache hit would spend none of the deadline's
    events.

    Without [options] each cell runs once: no manifest, no deadline,
    retry or quarantine, and every optional argument but [jobs] is
    ignored.  A cell's exception propagates.

    With [options] the cells run under {!Supervisor.run} with spec
    [spec_string kind], the options' deadline and retries, and the
    other optional arguments.  Unless [options.resume], any manifest a
    previous identically-shaped campaign left behind is deleted first.
    The manifest, in [manifest_dir] (default [<store_dir>/campaigns],
    [store_dir] defaulting to {!Repcache.Cache.dir}), is the only file
    a campaign writes and the only one a resume reads.
    @raise Repcache.Cache.Verify_mismatch in verify mode, with or
    without [options], if a cache entry or a restored checkpoint
    diverges from a fresh simulation.
    @raise Sys_error if the manifest cannot be created or written. *)
