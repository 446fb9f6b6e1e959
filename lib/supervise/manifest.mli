(** Campaign manifest: the append-only checkpoint log of a supervised
    campaign, and the only file a campaign writes.

    A manifest records which cells of a campaign have settled and, for
    each [done] cell, its payload on a [data] line appended just
    before — so resuming a campaign reads this one file and nothing
    else.  The four-line header pins the minting engine version, the
    campaign id (a digest of the spec plus every cell key, so a
    manifest can never be replayed against a different campaign
    shape) and the campaign spec — the single parseable line
    [wtcp resume] uses to rebuild the cells.

    Durability contract: the header is flushed before any cell runs;
    payload and completion lines are appended and flushed once per
    wave.  A kill can tear at most the final line, which {!load} drops
    (along with any otherwise unparseable line — unparseable means
    "not settled", never an error), so the worst a torn manifest costs
    is re-simulating one wave. *)

type entry =
  | Done of { key : string }
      (** settled; payload on the [data] line for [key] *)
  | Quarantined of { attempts : int; error : string }
      (** permanently failed after [attempts] tries *)

type header = { id : string; spec : string; cells : int }

type loaded = {
  header : header;
  entries : (int, entry) Hashtbl.t;
      (** settled cells by index; the last line for an index wins *)
  payloads : (string, string) Hashtbl.t;
      (** decoded payloads by key; the last [data] line for a key wins *)
}
(** What {!load} read.  Sized by the lines in the file, never by the
    header's [cells]. *)

type t
(** An open manifest handle (append side). *)

val path : dir:string -> id:string -> string
(** [dir/<id>.manifest]. *)

val load : path:string -> (loaded, string) result
(** Parse a manifest.  [Error] only on an unreadable file, a damaged
    header or an engine-version mismatch; body damage degrades to
    unsettled cells. *)

val create : path:string -> id:string -> spec:string -> cells:int -> t
(** Write a fresh manifest (truncating any predecessor) and flush the
    header.  Creates the directory as needed.
    @raise Invalid_argument if [spec] spans multiple lines.
    @raise Sys_error if the file cannot be created. *)

val open_append : path:string -> t
(** Reopen an existing manifest for appending (the resume path). *)

val append_payload : t -> key:string -> string -> unit
(** Buffer one [data] line: [key]'s payload, percent-encoded so any
    byte string round-trips through {!load}.  Append it before the
    cell's [done] line. *)

val append : t -> idx:int -> entry -> unit
(** Buffer one completion line; call {!flush} to make it durable. *)

val flush : t -> unit
val close : t -> unit
