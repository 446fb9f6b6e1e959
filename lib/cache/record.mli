(** The record format of the cache segments ({!Store}) and the
    campaign manifests: one record per line after a
    [<magic> <engine_version>] header, with percent-encoded tokens so
    that any byte string round-trips on one space-splittable line. *)

val output_token : out_channel -> string -> unit
(** Printable ASCII other than space and [%] as is, any other byte as
    [%xx]. *)

val decode_token : string -> string option
(** Invert {!output_token}; [None] on a malformed escape. *)

val output_header : out_channel -> magic:string -> unit
val output_data : out_channel -> key:string -> string -> unit
(** [data <key> <encoded payload>]; the key is one token. *)

val data : string -> (string * string) option
(** The key and decoded payload of a [data] line. *)

val field : string -> string -> string option
(** [field line name]: the rest of [line] after [name] and a space.
    [field header magic] is the minting engine version. *)

val fold_lines :
  string -> init:'a -> ('a -> string -> 'a) -> ('a * bool) option
(** Fold over a file's newline-terminated lines.  The flag says bytes
    followed the last newline: a torn tail, never passed on as a line.
    [None] if the file cannot be read. *)

val mkdir_p : string -> unit
