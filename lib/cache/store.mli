(** On-disk tier of the replication cache: append-only segments
    [dir/<pid>-<n>.seg] in the campaign manifests' record format
    ({!Record}), a [wtcp-cache <engine_version>] header then one
    [data <key> <payload>] line per stored cell.

    Each process appends to a segment of its own, created exclusively;
    its domains share it under one lock.  A record counts only once its
    newline has been read, so a torn tail, or a reader racing a writer,
    never yields a partial record.  Torn, garbled, foreign and
    stale-version records read as misses, never as wrong data.  Only
    the [*.seg] files are the store's: the manifests under
    [campaigns/] are never read, counted or removed. *)

val get : dir:string -> key:string -> string option
(** The stored payload, or [None].  The first lookup in [dir], and the
    first after {!reread}, indexes every segment; the last valid record
    of a key wins.  Never raises. *)

val put : dir:string -> key:string -> string -> unit
(** Append and flush the record to this process's segment in [dir],
    creating both as needed, and add it to the index, so a [get] after
    a [put] hits.  I/O failures are swallowed: a cache that cannot
    write degrades to a smaller cache, not to a failed sweep. *)

val reread : unit -> unit
(** Make the next {!get} in every directory re-read the segments, so a
    record that is gone or damaged on disk stops being served. *)

type stats = {
  entries : int;  (** distinct keys with a current-version record *)
  bytes : int;  (** size of one such record per key *)
  stale : int;  (** well-formed records of another engine version *)
  corrupt : int;
      (** other lines, torn tails and unreadable segments *)
}

val stats : dir:string -> stats
(** Classify every record; a missing directory is an empty store. *)

type sweep = {
  removed : int;  (** records dropped *)
  skipped : int;  (** segments that could not be deleted *)
}

val clear : dir:string -> sweep
(** Delete every segment; an undeletable one (a directory squatting on
    a segment name, say) is counted, never raised on. *)

val prune : dir:string -> sweep
(** Write the valid records, one per key, into a new segment (written,
    then renamed into place) and delete the old ones, dropping stale,
    corrupt and duplicate records.  If the new segment cannot be
    written nothing is deleted.  A record another process appends
    while a prune runs may be lost, as a miss; a writer whose segment
    a clear or prune deleted starts a new one at its next put. *)
