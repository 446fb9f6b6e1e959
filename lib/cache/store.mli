(** On-disk tier of the replication cache.

    Entries live under [dir/<k2>/<key>] where [k2] is the first two
    hex digits of the key.  Each entry is a small text file carrying
    a magic + engine-version header, the key it was stored under, the
    payload, and a terminator line — so a truncated write, a garbled
    file, a renamed file or an entry minted by a different engine
    version all fail validation and read as a miss, never as wrong
    data.  Writes go through a unique temporary file renamed into
    place, so concurrent writers (multiple domains or processes) can
    race on the same key without ever exposing a partial entry. *)

val get : dir:string -> key:string -> string option
(** The stored payload, or [None] on a missing, truncated, corrupt
    or version-stale entry.  Never raises. *)

val put : dir:string -> key:string -> string -> unit
(** Store the payload atomically (temp file + rename), creating the
    cache directories as needed.  I/O failures are swallowed — a
    cache that cannot write degrades to a smaller cache, not to a
    failed sweep. *)

type stats = {
  entries : int;  (** valid entries for the current engine version *)
  bytes : int;  (** total size of valid entries *)
  stale : int;  (** well-formed entries from another engine version *)
  corrupt : int;  (** unreadable, truncated or mislabelled files *)
}

val stats : dir:string -> stats
(** Classify every file in the key-prefix directories under [dir];
    other subdirectories (the campaign manifests under [campaigns/])
    are not the cache's and are never walked.  A missing directory
    is an empty cache.  Entries that cannot be read count as corrupt;
    entries or subdirectories that vanish mid-walk are skipped — the
    walk never aborts on a damaged tree. *)

type sweep = {
  removed : int;  (** files actually deleted *)
  skipped : int;  (** files that could not be deleted (permission,
                      a directory squatting on an entry path, ...) *)
}

val clear : dir:string -> sweep
(** Remove every cache file (valid, stale, corrupt and leftover
    temporaries) in the directories {!stats} walks.  Undeletable files
    are counted in [skipped], never raised on: a damaged tree degrades
    the sweep, it does not abort it. *)

val prune : dir:string -> sweep
(** Remove only stale, corrupt and leftover temporary files, keeping
    valid current-version entries; same degradation contract as
    {!clear}. *)

val entry_path : dir:string -> key:string -> string
(** Where {!put} stores [key]'s entry — exposed for tests that need
    to damage entries deliberately. *)
