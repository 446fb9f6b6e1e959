open Sim_engine

type config = {
  rt_max : int;
  window : int;
  ack_timeout_margin : Simtime.span;
  backoff : Backoff.policy;
  scheduler : Sched.policy;
  queue_capacity : int;
  defer_on_backoff : bool;
}

let default_config =
  {
    rt_max = 13;
    window = 8;
    ack_timeout_margin = Simtime.span_ms 100;
    backoff = Backoff.Uniform (Simtime.span_ms 400);
    scheduler = Sched.Fifo;
    queue_capacity = 512;
    defer_on_backoff = false;
  }

type stats = {
  transmissions : int;
  retransmissions : int;
  completions : int;
  discards : int;
  attempt_failures : int;
  spurious_acks : int;
  sched_drops : int;
  crashes : int;
  crash_dropped : int;
}

(* What the entry's (single) timer means when it fires. *)
type timer_kind = Ack_wait | Backoff_wait

(* Entries are recycled: [release] returns an entry to the free list,
   and [send] refills one with the next frame, keeping its timer and
   the timer's callback. *)
type entry = {
  mutable frame : Frame.t;
  mutable conn : int;
  mutable attempts : int;  (* transmissions performed so far *)
  timer : Soft_timer.t;  (* ack timeout or backoff, per timer_kind *)
  mutable timer_kind : timer_kind;
  mutable in_link : bool;  (* handed to the link, not yet serialised *)
  mutable acked : bool;  (* link ack arrived while still in the link *)
}

(* Trace templates, rendered once when the ARQ is given a live
   trace. *)
type trace_events = {
  tx : Obs.Trace.event;
  attempt_failure : Obs.Trace.event;
  discard : Obs.Trace.event;
  complete : Obs.Trace.event;
  crash : Obs.Trace.event;
}

type t = {
  sim : Simulator.t;
  rng : Rng.t;
  cfg : config;
  link : Wireless_link.t;
  ack_span : Simtime.span;
      (* acknowledgement timeout, fixed per link: ack airtime + both
         propagation delays + margin (precomputed — the old per-arm
         computation allocated a throwaway ack frame on every
         serialisation) *)
  waiting : entry Sched.t;
  (* In-flight entries, at most [cfg.window] of them: a linear array
     beats a hashtable at window sizes (≤ a few dozen) — no generic
     hashing per lookup, no bucket allocation per insert.  Slots
     beyond [inflight_len] hold [dummy_entry]. *)
  mutable inflight : entry array;
  mutable inflight_len : int;
  dummy_entry : entry;
  (* Released entries, ready for reuse; slots beyond [free_len] hold
     [dummy_entry]. *)
  mutable free : entry array;
  mutable free_len : int;
  mutable slots_held : int;  (* window slots in use *)
  mutable next_seq : int;
  mutable on_attempt_failure : (Frame.t -> attempt:int -> unit) option;
  mutable on_discard : (Frame.t -> unit) option;
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable completions : int;
  mutable discards : int;
  mutable attempt_failures : int;
  mutable spurious_acks : int;
  mutable epoch : int;  (* bumped by [crash]; stale closures compare it *)
  mutable deferred_pending : int;  (* backoff-deferred frames awaiting requeue *)
  mutable crashes : int;
  mutable crash_dropped : int;
  timer_counters : Soft_timer.counters;  (* aggregated over all entry timers *)
  obs_comp : string;
  mutable trace : trace_events option;  (* [None] unless tracing *)
  mutable attempts_hist : Obs.Registry.histogram;
}

(* Inflight-set primitives (linear over at most [cfg.window] slots).
   The scan is a top-level function with explicit arguments: a local
   [let rec] over [t] and [seq] would allocate a closure on every
   call, and every frame pays three scans (serialised, link ack,
   release). *)

(* Index of the first slot below [n] holding frame [seq], or -1. *)
let rec slot_of inflight n seq i =
  if i >= n then -1
  else if inflight.(i).frame.Frame.seq = seq then i
  else slot_of inflight n seq (i + 1)

(* Returns [t.dummy_entry] (compare with [==]) when [seq] is not in
   flight. *)
let inflight_find t seq =
  let i = slot_of t.inflight t.inflight_len seq 0 in
  if i < 0 then t.dummy_entry else t.inflight.(i)

let inflight_add t entry =
  if t.inflight_len = Array.length t.inflight then begin
    let bigger = Array.make (2 * Int.max 1 t.inflight_len) t.dummy_entry in
    Array.blit t.inflight 0 bigger 0 t.inflight_len;
    t.inflight <- bigger
  end;
  t.inflight.(t.inflight_len) <- entry;
  t.inflight_len <- t.inflight_len + 1

let inflight_remove t seq =
  let n = t.inflight_len in
  let i = slot_of t.inflight n seq 0 in
  if i >= 0 then begin
    t.inflight.(i) <- t.inflight.(n - 1);
    t.inflight.(n - 1) <- t.dummy_entry;
    t.inflight_len <- n - 1
  end

let now_ns t = Simtime.to_ns (Simulator.now t.sim)

(* The acknowledgement must travel back: propagation out, ack airtime,
   propagation back — plus the configured margin for queueing behind
   reverse-direction traffic.  The frame's own airtime is excluded
   because the timer starts when the frame leaves the transmitter. *)
let compute_ack_span ~link ~margin =
  let ack_frame = Frame.{ seq = 0; payload = Link_ack { acked_seq = 0 } } in
  let cfg = Wireless_link.config link in
  Simtime.span_add
    (Wireless_link.air_time link ack_frame)
    (Simtime.span_add
       (Simtime.span_add cfg.Wireless_link.delay cfg.Wireless_link.delay)
       margin)

let transmit t entry =
  entry.attempts <- entry.attempts + 1;
  t.transmissions <- t.transmissions + 1;
  if entry.attempts > 1 then t.retransmissions <- t.retransmissions + 1;
  entry.in_link <- true;
  (match t.trace with
  | Some e ->
    Obs.Trace.emit2 e.tx ~t_ns:(now_ns t) entry.frame.Frame.seq entry.attempts
  | None -> ());
  Wireless_link.send t.link entry.frame

(* Fired by the link when one of our frames finishes serialising. *)
let rec frame_serialised t frame =
  if not (Frame.is_ack frame) then begin
    let entry = inflight_find t frame.Frame.seq in
    if entry != t.dummy_entry && entry.in_link then begin
      entry.in_link <- false;
      if entry.acked then begin
        (* The link ack overtook our serialisation event; the deferred
           completion lands now. *)
        entry.acked <- false;
        complete_entry t entry
      end
      else begin
        entry.timer_kind <- Ack_wait;
        Soft_timer.arm_after entry.timer ~delay:t.ack_span
      end
    end
  end

and on_ack_timeout t entry =
  t.attempt_failures <- t.attempt_failures + 1;
  (match t.trace with
  | Some e ->
    Obs.Trace.emit2 e.attempt_failure ~t_ns:(now_ns t) entry.frame.Frame.seq
      entry.attempts
  | None -> ());
  (match t.on_attempt_failure with
  | Some f -> f entry.frame ~attempt:entry.attempts
  | None -> ());
  if entry.attempts > t.cfg.rt_max then begin
    (* The initial transmission plus rt_max retransmissions have all
       failed: discard, as CDPD does. *)
    t.discards <- t.discards + 1;
    (match t.trace with
    | Some e -> Obs.Trace.emit1 e.discard ~t_ns:(now_ns t) entry.frame.Frame.seq
    | None -> ());
    (match t.on_discard with Some f -> f entry.frame | None -> ());
    release t entry
  end
  else begin
    let delay = Backoff.draw t.cfg.backoff t.rng ~attempt:entry.attempts in
    if t.cfg.defer_on_backoff then begin
      (* Channel-state-dependent deferral: free the slot during the
         backoff; the frame re-queues at the head of its lane.  The
         requeue closure is epoch-guarded: a crash while the frame is
         deferred counts it as dropped, and the late requeue must not
         resurrect it. *)
      inflight_remove t entry.frame.Frame.seq;
      t.slots_held <- t.slots_held - 1;
      t.deferred_pending <- t.deferred_pending + 1;
      let epoch = t.epoch in
      ignore
        (Simulator.schedule_after t.sim ~delay (fun () ->
             if epoch = t.epoch then begin
               t.deferred_pending <- t.deferred_pending - 1;
               Sched.push_front t.waiting ~conn:entry.conn entry;
               pump t
             end));
      pump t
    end
    else begin
      entry.timer_kind <- Backoff_wait;
      Soft_timer.arm_after entry.timer ~delay
    end
  end

and on_entry_timer t entry =
  match entry.timer_kind with
  | Ack_wait -> on_ack_timeout t entry
  | Backoff_wait -> transmit t entry

and release t entry =
  (* Detach rather than lazy-cancel: a released entry's timer is not
     re-armed until the entry carries another frame, so leaving its
     physical event behind would execute a stale no-op per frame.
     Detach removes it from the queue's small heap in O(log n). *)
  Soft_timer.detach entry.timer;
  inflight_remove t entry.frame.Frame.seq;
  t.slots_held <- t.slots_held - 1;
  recycle t entry;
  pump t

and recycle t entry =
  if t.free_len = Array.length t.free then begin
    let bigger = Array.make (2 * Int.max 1 t.free_len) t.dummy_entry in
    Array.blit t.free 0 bigger 0 t.free_len;
    t.free <- bigger
  end;
  t.free.(t.free_len) <- entry;
  t.free_len <- t.free_len + 1

and complete_entry t entry =
  t.completions <- t.completions + 1;
  Obs.Registry.observe_int t.attempts_hist entry.attempts;
  (match t.trace with
  | Some e ->
    Obs.Trace.emit2 e.complete ~t_ns:(now_ns t) entry.frame.Frame.seq
      entry.attempts
  | None -> ());
  release t entry

(* Fill free window slots from the scheduler. *)
and pump t =
  if t.slots_held < t.cfg.window && not (Sched.is_empty t.waiting) then begin
    let entry = Sched.pop t.waiting in
    t.slots_held <- t.slots_held + 1;
    inflight_add t entry;
    transmit t entry;
    pump t
  end

let create sim ~rng ~config ~link =
  if config.rt_max < 0 then invalid_arg "Arq.create: negative rt_max";
  if config.window < 1 then invalid_arg "Arq.create: window < 1";
  let timer_counters = Soft_timer.create_counters () in
  let dummy_entry =
    {
      frame = Frame.{ seq = -1; payload = Link_ack { acked_seq = -1 } };
      conn = -1;
      attempts = 0;
      timer = Soft_timer.create sim ~counters:timer_counters ignore;
      timer_kind = Ack_wait;
      in_link = false;
      acked = false;
    }
  in
  let t =
    {
      sim;
      rng;
      cfg = config;
      link;
      ack_span = compute_ack_span ~link ~margin:config.ack_timeout_margin;
      waiting = Sched.create config.scheduler ~capacity:config.queue_capacity;
      inflight = Array.make config.window dummy_entry;
      inflight_len = 0;
      dummy_entry;
      free = Array.make config.window dummy_entry;
      free_len = 0;
      slots_held = 0;
      next_seq = 0;
      on_attempt_failure = None;
      on_discard = None;
      transmissions = 0;
      retransmissions = 0;
      completions = 0;
      discards = 0;
      attempt_failures = 0;
      spurious_acks = 0;
      epoch = 0;
      deferred_pending = 0;
      crashes = 0;
      crash_dropped = 0;
      timer_counters;
      obs_comp = "arq:" ^ Wireless_link.name link;
      trace = None;
      attempts_hist = Obs.Registry.histogram Obs.Registry.disabled "arq.attempts";
    }
  in
  Wireless_link.set_on_frame_sent link (frame_serialised t);
  t

let set_on_attempt_failure t f = t.on_attempt_failure <- Some f
let set_on_discard t f = t.on_discard <- Some f

(* A released entry when one is free, else a fresh one whose timer
   callback is bound once for the entry's whole life. *)
let take_entry t =
  if t.free_len > 0 then begin
    let n = t.free_len - 1 in
    let entry = t.free.(n) in
    t.free.(n) <- t.dummy_entry;
    t.free_len <- n;
    entry
  end
  else begin
    let entry =
      {
        frame = t.dummy_entry.frame;
        conn = -1;
        attempts = 0;
        timer = Soft_timer.create t.sim ~counters:t.timer_counters ignore;
        timer_kind = Ack_wait;
        in_link = false;
        acked = false;
      }
    in
    Soft_timer.set_callback entry.timer (fun () -> on_entry_timer t entry);
    entry
  end

let send t ~conn payload =
  let entry = take_entry t in
  entry.frame <- Frame.{ seq = t.next_seq; payload };
  entry.conn <- conn;
  entry.attempts <- 0;
  entry.timer_kind <- Ack_wait;
  entry.in_link <- false;
  entry.acked <- false;
  let accepted = Sched.push t.waiting ~conn entry in
  if accepted then begin
    t.next_seq <- t.next_seq + 1;
    pump t
  end
  else recycle t entry;
  accepted

let handle_link_ack t ~acked_seq =
  let entry = inflight_find t acked_seq in
  if entry == t.dummy_entry then t.spurious_acks <- t.spurious_acks + 1
  else if entry.in_link then begin
    (* The ack raced our own serialisation event (zero-delay links, or
       an ack for a previous attempt of the same frame).  Releasing
       here would desynchronise [slots_held] from the link's pending
       frame-sent notification, so defer the completion until the frame
       leaves the transmitter.  A second early ack is spurious. *)
    if entry.acked then t.spurious_acks <- t.spurious_acks + 1
    else entry.acked <- true
  end
  else complete_entry t entry

(* Crash/reboot: all link-layer transmission state vanishes.  Pending
   attempts are abandoned (their timers cancelled), waiting frames and
   backoff-deferred frames are discarded, and every window slot is
   reclaimed.  The sequence counter is deliberately NOT reset: the
   peer's resequencer dedups by frame seq, so reusing old numbers
   after a reboot would alias live frames.  Returns how many frames
   were lost with the state. *)
let crash t =
  (* Eager teardown (detach, not lazy cancel): a crash must leave
     nothing of this ARQ pending in the queue — tests assert the
     simulator can go fully quiet afterwards. *)
  for i = 0 to t.inflight_len - 1 do
    Soft_timer.detach t.inflight.(i).timer;
    t.inflight.(i) <- t.dummy_entry
  done;
  let in_flight = t.inflight_len in
  t.inflight_len <- 0;
  t.slots_held <- 0;
  let waiting = Sched.clear t.waiting in
  let deferred = t.deferred_pending in
  t.deferred_pending <- 0;
  t.epoch <- t.epoch + 1;
  let dropped = in_flight + waiting + deferred in
  t.crashes <- t.crashes + 1;
  t.crash_dropped <- t.crash_dropped + dropped;
  (match t.trace with
  | Some e -> Obs.Trace.emit3 e.crash ~t_ns:(now_ns t) in_flight waiting deferred
  | None -> ());
  dropped

let idle t = t.inflight_len = 0 && Sched.is_empty t.waiting
let timer_counters t = t.timer_counters
let in_flight t = t.inflight_len
let backlog t = Sched.length t.waiting

let set_obs t ~trace ~metrics =
  t.trace <-
    (if not (Obs.Trace.enabled trace) then None
     else
       let event ev fields = Obs.Trace.event trace ~comp:t.obs_comp ~ev fields in
       Some
         {
           tx = event "tx" [ Arg "seq"; Arg "attempt" ];
           attempt_failure = event "attempt_failure" [ Arg "seq"; Arg "attempt" ];
           discard = event "discard" [ Arg "seq" ];
           complete = event "complete" [ Arg "seq"; Arg "attempts" ];
           crash = event "crash" [ Arg "in_flight"; Arg "waiting"; Arg "deferred" ];
         });
  t.attempts_hist <- Obs.Registry.histogram metrics "arq.attempts"

let check_invariants t =
  if not (0 <= t.slots_held && t.slots_held <= t.cfg.window) then
    Obs.Invariant.fail ~name:"arq.window_slots"
      (Printf.sprintf "%s: slots_held=%d window=%d" t.obs_comp t.slots_held
         t.cfg.window);
  if t.slots_held <> t.inflight_len then
    Obs.Invariant.fail ~name:"arq.inflight_consistent"
      (Printf.sprintf "%s: slots_held=%d but %d entries in flight" t.obs_comp
         t.slots_held t.inflight_len)

let stats t =
  {
    transmissions = t.transmissions;
    retransmissions = t.retransmissions;
    completions = t.completions;
    discards = t.discards;
    attempt_failures = t.attempt_failures;
    spurious_acks = t.spurious_acks;
    sched_drops = Sched.drops t.waiting;
    crashes = t.crashes;
    crash_dropped = t.crash_dropped;
  }
