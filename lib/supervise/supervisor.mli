(** Supervised campaign runner: per-cell deadlines, retry at relaxed
    budgets, quarantine, and checkpoint/resume.

    A {e cell} is one unit of campaign work — a single replication of
    a single scenario — with a content-addressed key, a deterministic
    [simulate] thunk, and an exact text codec.  {!run} drives an array
    of cells to completion over the {!Sim_engine.Parallel} pool,
    enforcing a cooperative deadline (a simulated-event budget checked
    inside {!Sim_engine.Simulator.step}, so determinism is untouched),
    retrying failures at once at relaxed budget tiers, and
    quarantining cells that fail every attempt instead of sinking the
    campaign.  A cell is a pure function of its seed and budget, so a
    retry waits for nothing: only its budget changes.

    When a campaign [spec] is supplied, completed cells — payload and
    completion line alike — are appended to a {!Manifest} once per
    wave, so an interrupted campaign resumes from that one file by
    re-simulating only the missing cells.  Because outcomes merge by
    cell index and each cell re-simulates from its own seed, a resumed
    campaign is byte-identical to an uninterrupted one at any
    [jobs]. *)

exception Worker_killed of { cell : int }
(** Raised by the {!sabotage} fault injector to model a worker dying
    mid-cell; handled by the retry loop like any other cell failure. *)

(** {1 Metrics}

    Process-cumulative counters; callers measure deltas. *)

type stats = {
  deadline_hits : int;  (** attempts that exhausted their event budget *)
  retries : int;  (** attempts beyond the first *)
  backoff_ms : int;
      (** always 0: retries run at once; kept for callers that read it *)
  quarantined : int;  (** cells that failed every attempt *)
  resumed_cells : int;  (** cells restored from a manifest *)
  checkpoint_flushes : int;  (** manifest flushes (one per wave) *)
}

val stats : unit -> stats

(** {1 Configuration} *)

type config = {
  deadline_events : int option;
      (** per-cell simulated-event budget for attempt 1; [None]
          disables deadlines *)
  max_attempts : int;  (** total tries per cell before quarantine *)
  relax_factor : int;
      (** budget multiplier per retry, so deterministic deadline
          failures get real headroom before quarantine *)
  wave_size : int option;
      (** cells per checkpoint wave; [None] = max 16 (8*jobs).  The
          interrupt poll and manifest flush happen once per wave, so a
          smaller wave bounds interrupt loss at more flush traffic. *)
}

val default_config : config
(** No deadline, 3 attempts, 8x budget relaxation per retry, default
    wave size. *)

type sabotage = {
  kill_cell : int option;
      (** raise {!Worker_killed} on this cell's first attempt *)
  poison_cell : int option;
      (** checkpoint a payload line for this cell that fails to
          decode, so a resume must heal it *)
  force_deadline_cell : int option;
      (** pin this cell to a 1-event budget on {e every} attempt: a
          deterministic deadline failure that must end in quarantine *)
}

val no_sabotage : sabotage

(** {1 Cells and outcomes} *)

type 'a cell = {
  key : string;  (** content-addressed payload key *)
  simulate : unit -> 'a;  (** deterministic; safe to re-run *)
  encode : 'a -> string;  (** exact codec for the manifest's payloads *)
  decode : string -> 'a option;
}

type 'a outcome = Done of 'a | Quarantined of { attempts : int; error : string }

type 'a report = {
  outcomes : 'a outcome option array;
      (** per-cell; [None] only when interrupted before the cell ran *)
  completed : int;  (** cells settled by {e this} run *)
  resumed : int;  (** cells restored from the manifest *)
  quarantined : int;  (** quarantines settled by this run *)
  interrupted : bool;  (** [should_stop] fired before completion *)
  manifest_path : string option;
}

val campaign_id : spec:string -> keys:string array -> string
(** Digest of engine version, spec and every cell key — the manifest
    filename stem, and the guard that a manifest can never be replayed
    against a different campaign shape. *)

val run :
  ?config:config ->
  ?jobs:int ->
  ?spec:string ->
  ?manifest_dir:string ->
  ?sabotage:sabotage ->
  ?should_stop:(completed:int -> bool) ->
  'a cell array ->
  'a report
(** Drive every cell to an outcome.

    [spec] (a single line) turns on checkpointing: each wave's
    payload and completion lines are appended to the manifest in
    [manifest_dir] (default: [campaigns] under {!Repcache.Cache.dir})
    and flushed once.  A pre-existing manifest whose id matches restores
    its settled cells — a restored [Done] requires its payload line to
    still decode (a torn or poisoned payload heals by re-simulation),
    and under {!Repcache.Cache.Verify} mode each restored cell is
    re-simulated and compared, raising
    {!Repcache.Cache.Verify_mismatch} on divergence.  Quarantined
    cells are restored as-is.

    [should_stop] is polled on the main domain between waves; when it
    returns [true] the run flushes what settled and returns with
    [interrupted = true].  At most one wave (~8*[jobs] cells) of work
    is lost to an interrupt.

    Checkpointing works regardless of the {!Repcache.Cache.mode}:
    the manifest is the only file it reads or writes, never the
    cache's store.

    @raise Invalid_argument if [max_attempts < 1] or
    [relax_factor < 1].
    @raise Repcache.Cache.Verify_mismatch if a cell's [simulate]
    raises it: a cache entry that diverges from a fresh simulation is
    never retried or quarantined.
    @raise Sys_error if the manifest cannot be created or written. *)
