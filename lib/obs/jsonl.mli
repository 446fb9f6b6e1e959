(** Minimal JSON-line rendering for observability output.

    Not a general JSON library: just enough to render one flat object
    per line, with fields in the order given, so that equal field
    lists produce byte-identical output.  Non-finite floats are not
    representable in JSON and must not be passed. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val line : (string * value) list -> string
(** One JSON object terminated by a newline.  Field order is
    preserved.  This is the metrics renderer, and the reference the
    pre-rendered {!Trace} templates are tested against. *)

val add_key : Buffer.t -> string -> unit
(** Append ["key":], escaping the key exactly as {!line} does. *)

val add_value : Buffer.t -> value -> unit
(** Append one value exactly as {!line} renders it. *)
