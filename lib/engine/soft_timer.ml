(* A restartable timer that decouples its logical deadline from the
   physical event in the simulator queue.

   TCP's retransmission timer and the ARQ ack timers are restarted on
   nearly every packet: the naive encoding (cancel the pending event,
   schedule a fresh one) costs two queue operations and a new closure
   per restart, and under normal operation almost none of those events
   ever fire.  This module keeps at most ONE physical event per timer
   and one preallocated fire closure for its whole life:

   - [arm] to a deadline at-or-after a pending physical event reuses
     it ("fuse": zero queue operations).  When the physical event
     fires early it looks at the logical deadline and reschedules
     itself there ("chase") — and since deadlines that only ever move
     later are the common TCP pattern, the chase usually happens at
     most once per quiet period rather than once per packet.
   - [cancel] just clears the armed flag ("lazy cancel"): the physical
     event stays queued and runs as a stale no-op when it surfaces,
     unless a later [arm] fuses onto it first.  The timer's owner
     usually re-arms soon, so this saves a queue cancel and add per
     restart.  [detach] removes the physical event from the queue at
     once, for timers that will never be re-armed.
   - [arm] to a deadline EARLIER than the pending physical event must
     still cancel-and-reschedule eagerly (the physical event would
     fire too late to notice), but this is the rare direction.

   The callback runs at exactly the logical deadline, with the same
   tie-break order as an event scheduled by the plain encoding at arm
   time, whenever the physical event for the deadline was created
   before any same-time competitor — which the byte-identity gates on
   fig7/fig10 verify end-to-end for this simulator's models. *)

type counters = {
  mutable arms : int;
  mutable fuses : int;
  mutable lazy_cancels : int;
  mutable fires : int;
  mutable stale_fires : int;
  mutable chases : int;
}

let create_counters () =
  { arms = 0; fuses = 0; lazy_cancels = 0; fires = 0; stale_fires = 0; chases = 0 }

type t = {
  sim : Simulator.t;
  counters : counters;
  mutable callback : unit -> unit;
  mutable armed : bool;
  mutable expiry : Simtime.t;  (* logical deadline; valid when armed *)
  mutable phys : Simulator.event;  (* valid when has_phys *)
  mutable phys_time : Simtime.t;  (* when phys will surface; valid when has_phys *)
  mutable has_phys : bool;
  mutable fire : unit -> unit;  (* preallocated, scheduled as phys *)
}

let on_fire t =
  t.has_phys <- false;
  if not t.armed then t.counters.stale_fires <- t.counters.stale_fires + 1
  else if Simtime.(t.expiry <= Simulator.now t.sim) then begin
    t.armed <- false;
    t.counters.fires <- t.counters.fires + 1;
    t.callback ()
  end
  else begin
    (* Deadline moved later while we were pending: chase it. *)
    t.counters.chases <- t.counters.chases + 1;
    t.phys <- Simulator.schedule t.sim ~at:t.expiry t.fire;
    t.phys_time <- t.expiry;
    t.has_phys <- true
  end

let create sim ~counters callback =
  let t =
    {
      sim;
      counters;
      callback;
      armed = false;
      expiry = Simtime.zero;
      phys = Simulator.null_event;
      phys_time = Simtime.zero;
      has_phys = false;
      fire = ignore;
    }
  in
  t.fire <- (fun () -> on_fire t);
  t

let set_callback t f = t.callback <- f
let is_armed t = t.armed
let expiry t = if t.armed then Some t.expiry else None

let arm t ~at =
  t.counters.arms <- t.counters.arms + 1;
  t.armed <- true;
  t.expiry <- at;
  if t.has_phys then begin
    if Simtime.(t.phys_time <= at) then
      (* Pending event surfaces at or before the new deadline — keep
         it; [on_fire] chases if it comes up early. *)
      t.counters.fuses <- t.counters.fuses + 1
    else begin
      (* Pending event is too late for the new deadline. *)
      Simulator.cancel t.sim t.phys;
      t.phys <- Simulator.schedule t.sim ~at t.fire;
      t.phys_time <- at
    end
  end
  else begin
    t.phys <- Simulator.schedule t.sim ~at t.fire;
    t.phys_time <- at;
    t.has_phys <- true
  end

let arm_after t ~delay = arm t ~at:(Simtime.add (Simulator.now t.sim) delay)

let cancel t =
  if t.armed then begin
    t.armed <- false;
    if t.has_phys then t.counters.lazy_cancels <- t.counters.lazy_cancels + 1
  end

let detach t =
  cancel t;
  if t.has_phys then begin
    Simulator.cancel t.sim t.phys;
    t.phys <- Simulator.null_event;
    t.has_phys <- false
  end
