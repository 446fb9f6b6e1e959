(** Deterministic, seeded fault plans.

    A plan is a finite list of fault events — at what simulated time
    to apply which fault — fixed {e before} the run starts.  Plan
    generation draws from its own splitmix64 stream (salted so it
    never collides with the simulator root stream), and applying a
    plan draws no randomness at all, so fault injection perturbs
    neither channel nor TCP randomness: a run under the {!empty} plan
    is byte-identical to a run with no fault machinery installed.

    Plans target the {e simulated network}.  Faults against the
    {e harness itself} — a killed worker domain, a poisoned checkpoint
    payload, a cell forced past its event budget — are injected one
    level up by [Supervise.Supervisor.sabotage], which reuses the
    same discipline: sabotage is fixed before the campaign starts and
    never perturbs what a surviving cell computes. *)

type target = Down | Up | Both
(** Which wireless direction a fault hits. *)

val target_name : target -> string

type action =
  | Bs_crash
      (** base-station crash/reboot: ARQ senders, reassembly buffers
          and EBSN pacing state at the BS are wiped *)
  | Link_down of { target : target; duration : Sim_engine.Simtime.span }
      (** disconnection window: frames silently vanish in the given
          direction(s) for [duration] *)
  | Ack_blackout of { duration : Sim_engine.Simtime.span }
      (** uplink-only disconnection: TCP ACKs (and uplink data) are
          lost while data keeps flowing down *)
  | Ebsn_loss of { count : int }
      (** the next [count] feedback notifications are dropped in
          flight *)
  | Ebsn_duplicate  (** the next notification is delivered twice *)
  | Ebsn_delay of { delay : Sim_engine.Simtime.span }
      (** the next notification is delivered [delay] late *)
  | Queue_squeeze of { target : target; duration : Sim_engine.Simtime.span }
      (** drop-tail queue capacity pinched to 1 for [duration],
          forcing bursty overflow *)
  | Handoff of { blackout : Sim_engine.Simtime.span }
      (** mid-transfer handoff: BS state is wiped and both directions
          black out for [blackout] *)

type event = { after : Sim_engine.Simtime.span; action : action }
(** One fault, applied [after] the start of the run. *)

type t
(** A fault plan: a seed (for reporting) plus events sorted by time. *)

val empty : t
(** The plan with no events.  Running under it is byte-identical to a
    plain run. *)

val make : ?seed:int -> event list -> t
(** An explicit plan from hand-picked events (sorted by [after]);
    [seed] (default 0) is only used for reporting. *)

val is_empty : t -> bool
val seed : t -> int

val events : t -> event list
(** In application order. *)

val generate : seed:int -> window:Sim_engine.Simtime.span -> t
(** [generate ~seed ~window] draws 1–4 fault events landing in the
    first 2–80% of [window] (the expected transfer duration), from a
    stream derived from [seed] alone.  Equal arguments yield the
    identical plan.
    @raise Invalid_argument if [window] is zero. *)

val to_string : t -> string
(** One-line human-readable rendering, e.g.
    ["plan[seed=7] @12.3s:bs_crash @40.1s:ebsn_loss[2]"]. *)

(** {2 Process default}

    Mirrors [Obs.Config.set_default]: lets a harness thread a plan
    into every run started without an explicit [?faults] argument
    (the figure pin test pushes the empty plan through an unmodified
    sweep pipeline this way).  Set it between runs, never while one is
    in flight; the pool's task handoff publishes it to worker
    domains. *)

val set_default : t option -> unit
val default : unit -> t option
