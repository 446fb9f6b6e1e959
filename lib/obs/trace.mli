(** Structured per-run event trace.

    One JSON object per event, with the simulated time in
    nanoseconds, the emitting component and an event tag, plus
    event-specific fields.

    A live trace accumulates its lines in a buffer of its own, read
    back with {!contents}.  A component renders each of its events
    once, as an {!event} template, when it is handed a live trace;
    every emission then appends the time, the integer fields and the
    pre-rendered chunks straight to that buffer, with no field list,
    no boxing and no escaping per line.  Keep the templates out of
    reach when tracing is off (an [option] field, say), so the
    disabled path is one branch and allocates nothing:

    {[
      (* in set_obs, only when [Obs.Trace.enabled tr] *)
      let send =
        Obs.Trace.event tr ~comp:"tcp" ~ev:"send"
          [ Obs.Trace.Fixed ("conn", Obs.Jsonl.Int conn); Arg "seq" ]
      in
      (* at the site *)
      match t.events with
      | Some e -> Obs.Trace.emit1 e.send ~t_ns seq
      | None -> ()
    ]}

    A line is byte-identical to {!Jsonl.line} of
    [("t", Int t_ns) :: ("comp", Str comp) :: ("ev", Str ev) :: fields]
    with each [Arg] replaced by its integer. *)

type t

val disabled : t
(** The shared no-op trace. *)

val create : unit -> t
(** A live trace with an empty buffer of its own. *)

val enabled : t -> bool

type field =
  | Arg of string  (** an integer supplied at each emission, in order *)
  | Fixed of string * Jsonl.value  (** rendered once into the template *)

type event
(** A pre-rendered event template bound to its trace. *)

val event : t -> comp:string -> ev:string -> field list -> event
(** Render the template for one kind of event line: [comp] and [ev],
    then [fields] in order.  Call it once per component, and only
    while {!enabled}; emitting through a template of the disabled
    trace writes nothing.
    @raise Invalid_argument unless [fields] holds 1 to 3 [Arg]s. *)

val emit1 : event -> t_ns:int -> int -> unit
val emit2 : event -> t_ns:int -> int -> int -> unit

val emit3 : event -> t_ns:int -> int -> int -> int -> unit
(** Append one line at simulated time [t_ns], filling the template's
    [Arg] fields in order.
    @raise Invalid_argument if the template's [Arg] count differs from
    the emitter's arity. *)

val contents : t -> string option
(** The bytes accumulated so far by a live trace; [None] for
    {!disabled}. *)
