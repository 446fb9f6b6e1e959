open Sim_engine
open Netsim

(* The transport shell: send window, sequencing, retransmission timer,
   RTT sampling and observability.  Everything congestion-control —
   cwnd/ssthresh accounting and the reaction to acks, duplicate acks
   and timeouts — lives behind [policy] (see {!Cc}), installed by
   [create] from [cfg.cc]. *)

(* Trace templates, rendered once when the sender is given a live
   trace.  [conn] is fixed per sender and [retx] takes one template per
   value, so every emission is integers only. *)
type trace_events = {
  send : Obs.Trace.event;
  send_retx : Obs.Trace.event;
  timeout : Obs.Trace.event;
  complete : Obs.Trace.event;
  ebsn_rearm : Obs.Trace.event;
  quench : Obs.Trace.event;
}

type t = {
  sim : Simulator.t;
  cfg : Tcp_config.t;
  conn : int;
  src : Address.t;
  dst : Address.t;
  total : int;
  alloc_id : unit -> int;
  transmit : Packet.t -> unit;
  stats : Tcp_stats.t;
  rto_state : Rto.t;
  cc_state : Cc.state;
  mutable policy : Cc.policy;  (* installed once, by [create] *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable max_sent : int;  (* bytes [0, max_sent) have been sent at least once *)
  mutable available : int;  (* bytes [0, available) exist at the application *)
  mutable sacked : (int * int) list;  (* receiver-reported blocks, merged *)
  mutable hole_cursor : int;  (* next byte to consider for hole retransmission *)
  (* The segment being timed for an RTT sample: its first byte, or
     [no_timing], and its send time. *)
  mutable timing_seq : int;
  mutable timing_sent : Simtime.t;
  timer : Soft_timer.t;  (* retransmission timer; restarts fuse, cancels are lazy *)
  timer_counters : Soft_timer.counters;
  mutable timer_ticks : int;  (* duration the pending timer was armed with *)
  mutable is_complete : bool;
  mutable on_complete : (unit -> unit) option;
  mutable on_send : (Packet.t -> unit) option;
  mutable on_timeout_hook : (unit -> unit) option;
  mutable trace : trace_events option;  (* [None] unless tracing *)
  mutable rtt_hist : Obs.Registry.histogram;
  mutable cwnd_hist : Obs.Registry.histogram;
}

let set_obs t ~trace ~metrics =
  t.trace <-
    (if not (Obs.Trace.enabled trace) then None
     else
       let event ev fields =
         Obs.Trace.event trace ~comp:"tcp" ~ev
           (Fixed ("conn", Obs.Jsonl.Int t.conn) :: fields)
       in
       let send retx =
         event "send"
           [ Arg "seq"; Arg "len"; Fixed ("retx", Obs.Jsonl.Bool retx); Arg "cwnd" ]
       in
       Some
         {
           send = send false;
           send_retx = send true;
           timeout = event "timeout" [ Arg "una"; Arg "rto_ticks" ];
           complete = event "complete" [ Arg "total" ];
           ebsn_rearm = event "ebsn_rearm" [ Arg "ticks" ];
           quench = event "quench" [ Arg "cwnd" ];
         });
  t.rtt_hist <- Obs.Registry.histogram metrics "tcp.rtt_ticks";
  t.cwnd_hist <- Obs.Registry.histogram metrics "tcp.cwnd_bytes"

let now_ns t = Simtime.to_ns (Simulator.now t.sim)
let no_timing = -1

let set_on_complete t f = t.on_complete <- Some f
let set_on_send t f = t.on_send <- Some f
let set_on_timeout t f = t.on_timeout_hook <- Some f
let stats t = t.stats
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let cwnd_bytes t = int_of_float t.cc_state.Cc.cwnd
let ssthresh_bytes t = t.cc_state.Cc.ssthresh
let rto t = t.rto_state
let completed t = t.is_complete

let cc t = t.policy.Cc.kind
let cc_name t = Tcp_config.cc_name t.policy.Cc.kind
let in_fast_recovery t = t.cc_state.Cc.in_recovery
let recovery_entries t = t.cc_state.Cc.recovery_entries
let cc_diag t = t.policy.Cc.diag ()
let timer_pending t = Soft_timer.is_armed t.timer
let timer_counters t = t.timer_counters

(* Cancelling a timer that already fired or was already cancelled is a
   checked no-op.  Only [complete] calls this and a completed sender
   never re-arms, so detach eagerly — a lazily cancelled physical
   event would execute one stale no-op per connection. *)
let cancel_timer t = Soft_timer.detach t.timer

(* Coarse timers: the timeout expires on the first clock-tick boundary
   at least [ticks] ticks away, as a BSD-style tick-decremented timer
   would.  Restarting to a later deadline fuses with the pending
   physical event — no queue traffic on the common every-ack rearm. *)
let rec arm_timer t ~ticks =
  let tick_ns = Simtime.span_to_ns t.cfg.tick in
  let now_ns = Simtime.to_ns (Simulator.now t.sim) in
  let to_grid = (tick_ns - (now_ns mod tick_ns)) mod tick_ns in
  let delay = Simtime.span_ns ((ticks * tick_ns) + to_grid) in
  t.timer_ticks <- ticks;
  Soft_timer.arm_after t.timer ~delay

and effective_window t = Int.min (int_of_float t.cc_state.Cc.cwnd) t.cfg.window

and emit_segment t ~seq ~len =
  let is_retransmit = seq < t.max_sent in
  let pkt =
    Packet.create ~id:(t.alloc_id ()) ~src:t.src ~dst:t.dst
      ~kind:(Packet.Tcp_data { conn = t.conn; seq; length = len; is_retransmit })
      ~header_bytes:t.cfg.header_bytes ~created:(Simulator.now t.sim)
  in
  t.stats.Tcp_stats.packets_sent <- t.stats.Tcp_stats.packets_sent + 1;
  t.stats.Tcp_stats.bytes_sent <- t.stats.Tcp_stats.bytes_sent + len;
  t.stats.Tcp_stats.wire_bytes_sent <-
    t.stats.Tcp_stats.wire_bytes_sent + Packet.size pkt;
  if is_retransmit then begin
    t.stats.Tcp_stats.packets_retransmitted <-
      t.stats.Tcp_stats.packets_retransmitted + 1;
    t.stats.Tcp_stats.bytes_retransmitted <-
      t.stats.Tcp_stats.bytes_retransmitted + len;
    (* Karn: a retransmitted segment must not produce an RTT sample. *)
    if t.timing_seq <> no_timing && t.timing_seq >= seq then
      t.timing_seq <- no_timing
  end
  else if t.timing_seq = no_timing then begin
    t.timing_seq <- seq;
    t.timing_sent <- Simulator.now t.sim
  end;
  Obs.Registry.observe t.cwnd_hist t.cc_state.Cc.cwnd;
  (match t.trace with
  | Some e ->
    Obs.Trace.emit3
      (if is_retransmit then e.send_retx else e.send)
      ~t_ns:(now_ns t) seq len
      (int_of_float t.cc_state.Cc.cwnd)
  | None -> ());
  (match t.on_send with Some f -> f pkt | None -> ());
  t.transmit pkt

and send_window t =
  let limit =
    Int.min (Int.min (t.snd_una + effective_window t) t.total) t.available
  in
  let progressed = ref false in
  while t.snd_nxt < limit do
    let len = Int.min t.cfg.mss (limit - t.snd_nxt) in
    emit_segment t ~seq:t.snd_nxt ~len;
    t.snd_nxt <- t.snd_nxt + len;
    t.max_sent <- Int.max t.max_sent t.snd_nxt;
    progressed := true
  done;
  if !progressed && not (timer_pending t) then
    arm_timer t ~ticks:(Rto.current_ticks t.rto_state)

and on_timeout t =
  t.stats.Tcp_stats.timeouts <- t.stats.Tcp_stats.timeouts + 1;
  (match t.trace with
  | Some e ->
    Obs.Trace.emit2 e.timeout ~t_ns:(now_ns t) t.snd_una
      (Rto.current_ticks t.rto_state)
  | None -> ());
  (match t.on_timeout_hook with Some f -> f () | None -> ());
  (* Timeout value doubles on consecutive losses (paper §1); the
     estimate is only refreshed by an ack of a non-retransmitted
     packet, which Karn's rule already guarantees. *)
  Rto.backoff t.rto_state;
  t.policy.Cc.on_timeout ();
  arm_timer t ~ticks:(Rto.current_ticks t.rto_state);
  send_window t

(* Merge a receiver-reported block into the scoreboard (sorted,
   disjoint). *)
let rec insert_block blocks ((start, stop) as block) =
  match blocks with
  | [] -> [ block ]
  | ((s, e) as first) :: rest ->
    if stop < s then block :: blocks
    else if e < start then first :: insert_block rest block
    else insert_block rest (Int.min s start, Int.max e stop)

(* The blocks that end above [ack], in order.  Returns [blocks] itself
   when every block does, so an ack that overtakes no block (and every
   ack on an empty scoreboard) allocates nothing. *)
let rec blocks_above ack blocks =
  match blocks with
  | [] -> blocks
  | ((_, stop) as block) :: rest ->
    let kept = blocks_above ack rest in
    if stop <= ack then kept
    else if kept == rest then blocks
    else block :: kept

let rec record_blocks t = function
  | [] -> ()
  | ((start, stop) as block) :: rest ->
    if stop > start && start >= t.snd_una then
      t.sacked <- insert_block t.sacked block;
    record_blocks t rest

let record_sack t blocks =
  record_blocks t blocks;
  (* Drop blocks the cumulative ack has overtaken. *)
  t.sacked <- blocks_above t.snd_una t.sacked

(* The first un-SACKed hole at or above the recovery cursor, if the
   scoreboard proves one (data above it has been received). *)
let next_hole t =
  let rec scan cursor = function
    | [] -> None
    | (s, e) :: rest ->
      if cursor < s then Some (cursor, s) else scan (Stdlib.max cursor e) rest
  in
  scan (Stdlib.max t.snd_una t.hole_cursor) t.sacked

(* Retransmit one segment of the lowest unfilled hole and advance the
   cursor past it, so successive acks walk distinct holes rather than
   re-sending the first one.  Returns false when the scoreboard shows
   no hole left. *)
let retransmit_hole t =
  match next_hole t with
  | None -> false
  | Some (start, stop) ->
    let len =
      Stdlib.min (Stdlib.min t.cfg.mss (stop - start)) (t.total - start)
    in
    if len <= 0 then false
    else begin
      emit_segment t ~seq:start ~len;
      t.hole_cursor <- start + len;
      true
    end

(* Placeholder installed at record construction; [create] replaces it
   before the sender is reachable, the same late-binding trick as
   [Soft_timer.set_callback]. *)
let unset_policy : Cc.policy =
  {
    Cc.kind = Tcp_config.Tahoe;
    uses_scoreboard = false;
    on_new_ack = (fun ~ack:_ -> assert false);
    on_dupack = (fun ~ack:_ -> assert false);
    on_timeout = (fun () -> assert false);
    on_rtt_sample = (fun ~rtt_ticks:_ ~rtt_ns:_ -> assert false);
    diag = (fun () -> []);
  }

(* Defined after the [arm_timer .. on_timeout] chain so the timer's
   callback can be bound once, here, instead of allocating a closure
   per rearm. *)
let create sim ~config ~conn ~src ~dst ~total_bytes ~alloc_id ~transmit =
  Tcp_config.validate config;
  if total_bytes <= 0 then invalid_arg "Tcp_sender.create: nothing to send";
  let timer_counters = Soft_timer.create_counters () in
  let t =
    {
      sim;
      cfg = config;
      conn;
      src;
      dst;
      total = total_bytes;
      alloc_id;
      transmit;
      stats = Tcp_stats.create ();
      rto_state =
        Rto.create ~initial_ticks:config.initial_rto_ticks
          ~min_ticks:config.min_rto_ticks ~max_ticks:config.max_rto_ticks
          ~max_backoff:config.max_backoff;
      cc_state = Cc.initial_state config;
      policy = unset_policy;
      snd_una = 0;
      snd_nxt = 0;
      max_sent = 0;
      available = total_bytes;
      sacked = [];
      hole_cursor = 0;
      timing_seq = no_timing;
      timing_sent = Simtime.zero;
      timer = Soft_timer.create sim ~counters:timer_counters ignore;
      timer_counters;
      timer_ticks = 0;
      is_complete = false;
      on_complete = None;
      on_send = None;
      on_timeout_hook = None;
      trace = None;
      rtt_hist = Obs.Registry.histogram Obs.Registry.disabled "tcp.rtt_ticks";
      cwnd_hist = Obs.Registry.histogram Obs.Registry.disabled "tcp.cwnd_bytes";
    }
  in
  let host =
    {
      Cc.cfg = config;
      state = t.cc_state;
      stats = t.stats;
      total = total_bytes;
      snd_una = (fun () -> t.snd_una);
      snd_nxt = (fun () -> t.snd_nxt);
      max_sent = (fun () -> t.max_sent);
      set_snd_una = (fun seq -> t.snd_una <- seq);
      set_snd_nxt = (fun seq -> t.snd_nxt <- seq);
      emit_segment = (fun ~seq ~len -> emit_segment t ~seq ~len);
      send_window = (fun () -> send_window t);
      arm_rto = (fun () -> arm_timer t ~ticks:(Rto.current_ticks t.rto_state));
      clear_timing = (fun () -> t.timing_seq <- no_timing);
      clear_scoreboard = (fun () -> t.sacked <- []);
      prune_scoreboard = (fun ~ack -> t.sacked <- blocks_above ack t.sacked);
      set_hole_cursor = (fun seq -> t.hole_cursor <- seq);
      retransmit_hole = (fun () -> retransmit_hole t);
    }
  in
  t.policy <-
    (match config.Tcp_config.cc with
    | Tcp_config.Tahoe -> Cc_tahoe.make host
    | Tcp_config.Reno -> Cc_reno.make ~newreno:false host
    | Tcp_config.Newreno -> Cc_reno.make ~newreno:true host
    | Tcp_config.Sack -> Cc_sack.make host
    | Tcp_config.Vegas -> Cc_vegas.make host);
  Soft_timer.set_callback t.timer (fun () -> on_timeout t);
  t

let complete t =
  if not t.is_complete then begin
    t.is_complete <- true;
    cancel_timer t;
    (match t.trace with
    | Some e -> Obs.Trace.emit1 e.complete ~t_ns:(now_ns t) t.total
    | None -> ());
    match t.on_complete with Some f -> f () | None -> ()
  end

let handle_ack_sack t ~ack ~sack =
  if not t.is_complete then begin
    if t.policy.Cc.uses_scoreboard then record_sack t sack;
    if ack > t.snd_una then begin
      t.stats.Tcp_stats.acks_received <- t.stats.Tcp_stats.acks_received + 1;
      if t.timing_seq <> no_timing && ack > t.timing_seq then begin
        let rtt_ns =
          Simtime.span_to_ns (Simtime.diff (Simulator.now t.sim) t.timing_sent)
        in
        let rtt_ticks = 1 + (rtt_ns / Simtime.span_to_ns t.cfg.tick) in
        Rto.sample t.rto_state ~rtt_ticks;
        Obs.Registry.observe_int t.rtt_hist rtt_ticks;
        t.stats.Tcp_stats.rtt_samples <- t.stats.Tcp_stats.rtt_samples + 1;
        t.timing_seq <- no_timing;
        t.policy.Cc.on_rtt_sample ~rtt_ticks ~rtt_ns
      end;
      Rto.reset_backoff t.rto_state;
      t.cc_state.Cc.dupacks <- 0;
      t.policy.Cc.on_new_ack ~ack;
      t.snd_una <- ack;
      t.sacked <- blocks_above ack t.sacked;
      if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
      if t.snd_una >= t.total then complete t
      else begin
        arm_timer t ~ticks:(Rto.current_ticks t.rto_state);
        send_window t
      end
    end
    else begin
      t.stats.Tcp_stats.dupacks_received <-
        t.stats.Tcp_stats.dupacks_received + 1;
      t.cc_state.Cc.dupacks <- t.cc_state.Cc.dupacks + 1;
      t.policy.Cc.on_dupack ~ack
    end
  end

let handle_ack t ~ack = handle_ack_sack t ~ack ~sack:[]

let handle_ebsn t =
  t.stats.Tcp_stats.ebsns_received <- t.stats.Tcp_stats.ebsns_received + 1;
  (* Paper appendix: cancel the pending timer and set a new one with
     an identical timeout value; estimates are untouched.  The scale
     knob exists to reproduce the paper's footnote about too-small /
     too-large replacement values. *)
  if (not t.is_complete) && timer_pending t then begin
    let scaled =
      int_of_float
        (Float.round (t.cfg.ebsn_rearm_scale *. float_of_int t.timer_ticks))
    in
    (* Clamp: repeated scaling must not compound past the RTO bounds. *)
    let ticks =
      Int.max t.cfg.min_rto_ticks (Int.min t.cfg.max_rto_ticks scaled)
    in
    (match t.trace with
    | Some e -> Obs.Trace.emit1 e.ebsn_rearm ~t_ns:(now_ns t) ticks
    | None -> ());
    arm_timer t ~ticks
  end

let handle_quench t =
  t.stats.Tcp_stats.quenches_received <- t.stats.Tcp_stats.quenches_received + 1;
  (* BSD tcp_quench: collapse to one segment, leave ssthresh alone.  A
     host-level reaction, deliberately outside the Cc policy. *)
  if not t.is_complete then begin
    (match t.trace with
    | Some e ->
      Obs.Trace.emit1 e.quench ~t_ns:(now_ns t) (int_of_float t.cc_state.Cc.cwnd)
    | None -> ());
    t.cc_state.Cc.cwnd <- float_of_int t.cfg.mss
  end

let start t = send_window t

let set_available t bytes =
  if bytes < t.available then
    invalid_arg "Tcp_sender.set_available: cannot shrink";
  t.available <- Stdlib.min bytes t.total;
  if not t.is_complete then send_window t

let restrict_available t bytes =
  if bytes < 0 then invalid_arg "Tcp_sender.restrict_available: negative";
  t.available <- Stdlib.min bytes t.total

let check_invariants t =
  if
    not
      (0 <= t.snd_una && t.snd_una <= t.snd_nxt && t.snd_nxt <= t.max_sent
      && t.max_sent <= t.total)
  then
    Obs.Invariant.fail ~name:"tcp.sequence_order"
      (Printf.sprintf "conn %d: una=%d nxt=%d max_sent=%d total=%d" t.conn
         t.snd_una t.snd_nxt t.max_sent t.total);
  if not (t.cc_state.Cc.cwnd >= float_of_int t.cfg.mss) then
    Obs.Invariant.fail ~name:"tcp.cwnd_floor"
      (Printf.sprintf "conn %d: cwnd=%g < mss=%d" t.conn t.cc_state.Cc.cwnd
         t.cfg.mss);
  if t.is_complete && timer_pending t then
    Obs.Invariant.fail ~name:"tcp.timer_after_complete"
      (Printf.sprintf "conn %d: retransmission timer armed after completion"
         t.conn)

module For_testing = struct
  let corrupt_sequence_state t = t.snd_una <- t.snd_nxt + 1
end
