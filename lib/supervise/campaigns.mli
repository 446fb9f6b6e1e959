(** Campaign kinds over the {!Supervisor}: compare / advisor / chaos
    as supervised, checkpointed, resumable cell campaigns.

    Each kind captures the scalars needed to rebuild its cells in a
    single-line {e spec} ({!spec_string} / {!kind_of_spec}, floats as
    exact hex literals) — the line the manifest pins and [wtcp resume]
    parses.  The rendered report is a function of the settled outcomes
    only (identical to the unsupervised CLI output for compare and
    advisor, [Chaos.render] plus a quarantined bucket for chaos), so
    an interrupted-and-resumed campaign prints byte-identically to an
    uninterrupted one at any [jobs]. *)

type preset = Wan | Lan

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
          campaign); always [true] for compare/advisor *)
  total : int;  (** campaign cells *)
  completed : int;  (** cells settled by this run *)
  resumed : int;  (** cells restored from the manifest *)
  quarantined : int;  (** quarantined cells, restored or fresh *)
  interrupted : bool;
  manifest_path : string option;
}

val spec_string : kind -> string
(** The single-line campaign spec; [kind_of_spec (spec_string k) =
    Ok k]. *)

val kind_of_spec : string -> (kind, string) result

val cell_count : kind -> int
(** How many cells {!run} builds for the kind, without building them:
    what a manifest's [cells] header must say for its spec. *)

val run :
  ?jobs:int ->
  ?wave_size:int ->
  ?sabotage:Supervisor.sabotage ->
  ?should_stop:(completed:int -> bool) ->
  ?manifest_dir:string ->
  ?store_dir:string ->
  options:options ->
  kind ->
  report
(** Build the kind's cells, drive them through {!Supervisor.run} with
    checkpointing on (spec = [spec_string kind]), and render the
    settled outcomes.  Unless [options.resume], any manifest a
    previous identically-shaped campaign left behind is deleted first.
    The manifest, in [manifest_dir] (default [<store_dir>/campaigns],
    [store_dir] defaulting to {!Repcache.Cache.dir}), is the only file
    a campaign writes and the only one a resume reads.
    @raise Sys_error if the manifest cannot be created or written. *)
