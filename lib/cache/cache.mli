(** Replication cache front-end: mode, memo tier, disk tier, stats.

    The cache is {e off} by default — benchmarks that compare jobs=1
    against jobs=N runs rely on each invocation actually simulating,
    so caching is strictly opt-in via the CLI flags or {!set_mode}.

    Payloads are opaque strings (the encoded measurement); the cache
    never interprets them, it only guarantees that what comes back is
    byte-identical to what went in.  In [Verify] mode every hit is
    additionally checked against a fresh simulation by the caller
    (see {!Verify_mismatch}). *)

type mode =
  | Off  (** default: every cell simulates *)
  | On  (** memo + disk lookups, misses stored *)
  | Verify
      (** like [On], but the caller re-simulates each hit and raises
          {!Verify_mismatch} on any byte divergence *)

val set_mode : mode -> unit
val mode : unit -> mode

val active : unit -> bool
(** [mode () <> Off]. *)

val set_dir : string -> unit
(** Override the on-disk store location (default ["_cache"]). *)

val dir : unit -> string

exception Verify_mismatch of { key : string; cached : string; fresh : string }
(** Raised by callers in [Verify] mode when a cached payload differs
    from a fresh simulation of the same cell — a determinism or
    invalidation bug, never a benign event. *)

val find : key:string -> string option
(** Look the key up in the memo tier then the disk tier, counting a
    memo hit, disk hit or miss.  A disk hit is promoted into the
    memo.  Always [None] (and counts nothing) when the cache is off. *)

val store : key:string -> string -> unit
(** Record a freshly simulated payload in both tiers.  No-op when the
    cache is off. *)

val note_deduped : int -> unit
(** Count cells that were skipped because an identical cell was
    already being simulated in the same batch (intra-run dedup). *)

val note_verify : ok:bool -> unit
(** Count a verify-mode comparison outcome. *)

val memo_size : unit -> int
val memo_clear : unit -> unit

type stats = {
  memo_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  deduped : int;
  verify_ok : int;
  verify_fail : int;
}

val stats : unit -> stats
(** Process-lifetime counters (monotone). *)

val reset_stats : unit -> unit
(** Zero the counters — test support. *)

val record_metrics : Obs.Registry.t -> unit
(** Fold {!stats} into a registry as the
    [engine.cache.{memo_hits,disk_hits,misses,stores,deduped,verify_ok,verify_fail}]
    counter group.  Like the pool counters, never folded into per-run
    metrics automatically: cache counters vary with cache state,
    which would break per-run byte-identity. *)
