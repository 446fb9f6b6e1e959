(** Minimal JSON-line rendering for observability output.

    Not a general JSON library: just enough to render one flat object
    per line, with fields in the order given, so that equal field
    lists produce byte-identical output, and to read such a line
    back.  Non-finite floats are not representable in JSON and must
    not be passed. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val line : (string * value) list -> string
(** One JSON object terminated by a newline.  Field order is
    preserved.  This is the reference that the pre-rendered {!Trace}
    templates and {!Registry.to_jsonl}, which write through the
    functions below, are tested against. *)

val add_key : Buffer.t -> string -> unit
(** Append ["key":], escaping the key exactly as {!line} does. *)

val add_value : Buffer.t -> value -> unit
(** Append one value exactly as {!line} renders it. *)

val parse : string -> (string * value) list option
(** The fields of one line that {!line} renders, in order, with or
    without its final newline: [parse (line fields) = Some fields]
    when no float in [fields] is whole.  An integer literal reads as
    [Int] and any other number as [Float]; a string undoes exactly
    the escapes that {!escape} writes.  Anything else, from a
    truncated line to trailing bytes, whitespace or an escape {!escape}
    never writes, is [None].  For reading a trace back, never on a
    run's hot path. *)

val escape : Buffer.t -> string -> unit
(** Append a string's characters JSON-escaped, without the quotes. *)

val add_int : Buffer.t -> int -> unit
(** Append an integer in decimal, as [string_of_int] renders it,
    without allocating. *)

val add_float : Buffer.t -> float -> unit
(** Append a float: a whole value below 1e15 in magnitude as its
    integer digits ([-0.0] as [-0]), without allocating; any other
    value as [%.17g]. *)
