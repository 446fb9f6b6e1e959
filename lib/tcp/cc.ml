type state = {
  mutable cwnd : float;
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable recover : int;
  mutable in_recovery : bool;
  mutable recovery_entries : int;
}

type host = {
  cfg : Tcp_config.t;
  state : state;
  stats : Tcp_stats.t;
  total : int;
  snd_una : unit -> int;
  snd_nxt : unit -> int;
  max_sent : unit -> int;
  set_snd_una : int -> unit;
  set_snd_nxt : int -> unit;
  emit_segment : seq:int -> len:int -> unit;
  send_window : unit -> unit;
  arm_rto : unit -> unit;
  clear_timing : unit -> unit;
  clear_scoreboard : unit -> unit;
  prune_scoreboard : ack:int -> unit;
  set_hole_cursor : int -> unit;
  retransmit_hole : unit -> bool;
}

type policy = {
  kind : Tcp_config.cc;
  uses_scoreboard : bool;
  on_new_ack : ack:int -> unit;
  on_dupack : ack:int -> unit;
  on_timeout : unit -> unit;
  on_rtt_sample : rtt_ticks:int -> rtt_ns:int -> unit;
  diag : unit -> (string * float) list;
}

let initial_state (cfg : Tcp_config.t) =
  {
    cwnd = float_of_int cfg.Tcp_config.mss;
    ssthresh = Tcp_config.initial_ssthresh_bytes cfg;
    dupacks = 0;
    recover = -1;
    in_recovery = false;
    recovery_entries = 0;
  }

let effective_window host =
  Int.min (int_of_float host.state.cwnd) host.cfg.Tcp_config.window

let flight_bytes host =
  Int.min (effective_window host) (host.snd_nxt () - host.snd_una ())

let set_loss_threshold host =
  host.state.ssthresh <-
    Int.max (2 * host.cfg.Tcp_config.mss) (flight_bytes host / 2)

(* The float operation order below is load-bearing: the fig7/fig10 MD5
   pins in test_experiments hold Tahoe-via-Cc to the pre-refactor
   packet schedule, and changing the order of the additions changes
   rounding.  The grown window is computed once and stored once: each
   store into [cwnd] boxes a float. *)
let grow_cwnd host =
  let st = host.state in
  let mss = float_of_int host.cfg.Tcp_config.mss in
  let grown =
    if st.cwnd < float_of_int st.ssthresh then st.cwnd +. mss
    else st.cwnd +. (mss *. mss /. st.cwnd)
  in
  (* No point growing past what the receiver will ever grant.
     [Stdlib.min]'s own definition, written out so no float is boxed
     for a generic compare. *)
  let cap = float_of_int (4 * host.cfg.Tcp_config.window) in
  st.cwnd <- (if grown <= cap then grown else cap)

(* Tahoe loss reaction: ssthresh to half the flight, window to one
   segment, go-back-N from the last cumulative ack. *)
let collapse host =
  let st = host.state in
  set_loss_threshold host;
  st.cwnd <- float_of_int host.cfg.Tcp_config.mss;
  st.dupacks <- 0;
  st.recover <- host.max_sent ();
  st.in_recovery <- false;
  (* A timeout invalidates the scoreboard (conservative, RFC 2018 §8). *)
  host.clear_scoreboard ();
  host.clear_timing ();
  host.set_snd_nxt (host.snd_una ())
