(** Destinations for observability output.

    Sinks receive complete lines.  The buffer sink accumulates in
    memory so a run's output can be read back and byte-compared
    across replications or [jobs=] settings. *)

type t

val null : t
(** Discards everything. *)

val buffer : unit -> t
(** Accumulates in memory; read back with {!contents}. *)

val of_channel : out_channel -> t
(** Writes through to a channel.  The caller owns the channel. *)

val custom : (string -> unit) -> t
(** Calls the function on every line. *)

val write : t -> string -> unit

val buffer_of : t -> Buffer.t option
(** The accumulating buffer of a {!buffer} sink, so a writer can
    append lines in place instead of handing over a string per line;
    [None] for other sinks. *)

val flush : t -> unit
(** Push buffered bytes to the destination: flushes the underlying
    channel of an {!of_channel} sink; a no-op for the others.  Called
    from the simulator's fault-path finalizer so a crashing run never
    leaves a trace stranded in channel buffers. *)

val contents : t -> string option
(** The accumulated bytes of a {!buffer} sink; [None] for other
    sinks. *)
