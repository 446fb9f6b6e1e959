(** Per-run event traces.

    Records the source-side events the paper's trace figures plot:
    every data-packet emission (packet number = seq ÷ MSS, as the
    vertical axis of Figures 3–5), plus timeouts and notifications.
    [Wiring.run] keeps one only when the run traces
    ([Obs.Config.trace]); an untraced run records nothing. *)

type event =
  | Send of {
      packet_number : int;  (** seq ÷ MSS *)
      seq : int;
      retransmit : bool;
    }  (** data packet left the TCP source *)
  | Timeout  (** source retransmission timer expired *)
  | Ebsn_received  (** source received an EBSN *)
  | Quench_received  (** source received a source quench *)
  | Custom of string  (** anything else worth a mark *)

type t
(** A growing trace. *)

val create : unit -> t
(** An empty trace. *)

val record : t -> Sim_engine.Simtime.t -> event -> unit
(** Append an event. *)

val events : t -> (Sim_engine.Simtime.t * event) list
(** All events, oldest first. *)

val length : t -> int

val sends : t -> (Sim_engine.Simtime.t * int * bool) list
(** [(time, packet_number, retransmit)] for every [Send], oldest
    first. *)

val count : t -> (event -> bool) -> int
(** Events satisfying a predicate. *)
