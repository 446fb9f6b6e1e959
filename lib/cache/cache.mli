(** Replication cache front-end: mode, disk store, stats.

    The cache is {e off} by default — benchmarks that compare jobs=1
    against jobs=N runs rely on each invocation actually simulating,
    so caching is strictly opt-in via the CLI flags or {!set_mode}.

    Payloads are opaque strings (the encoded measurement); the cache
    never interprets them, it only guarantees that what comes back is
    byte-identical to what went in.  The store's in-process index
    ({!Store}) is the only in-memory copy.  In [Verify] mode every hit
    is additionally checked against a fresh simulation by the caller
    (see {!Verify_mismatch}). *)

type mode =
  | Off  (** default: every cell simulates *)
  | On  (** lookups served from the store, misses stored *)
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
(** Look the key up in the store, counting a hit or a miss.  Always
    [None] (and counts nothing) when the cache is off. *)

val store : key:string -> string -> unit
(** Record a freshly simulated payload in the store.  No-op when the
    cache is off. *)

val note_verify : ok:bool -> unit
(** Count a verify-mode comparison outcome. *)

val memo_clear : unit -> unit
(** Make the next lookup re-read the store's segments from disk
    ({!Store.reread}): a record that is gone or damaged on disk stops
    being served. *)

type stats = {
  disk_hits : int;  (** lookups the store served *)
  misses : int;
  stores : int;
  verify_ok : int;
  verify_fail : int;
}

val stats : unit -> stats
(** Process-lifetime counters (monotone). *)

val reset_stats : unit -> unit
(** Zero the counters — test support. *)
