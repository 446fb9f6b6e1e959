(** Destinations for observability output.

    Sinks receive complete lines.  The buffer sink accumulates in
    memory so a run's output can be read back and byte-compared
    across replications or [jobs=] settings. *)

type t

val null : t
(** Discards everything. *)

val buffer : unit -> t
(** Accumulates in memory; read back with {!contents}. *)

val custom : (string -> unit) -> t
(** Calls the function on every line. *)

val write : t -> string -> unit

val buffer_of : t -> Buffer.t option
(** The accumulating buffer of a {!buffer} sink, so a writer can
    append lines in place instead of handing over a string per line;
    [None] for other sinks. *)

val contents : t -> string option
(** The accumulated bytes of a {!buffer} sink; [None] for other
    sinks. *)
