open Sim_engine
open Netsim

type config = {
  bandwidth : Units.bandwidth;
  delay : Simtime.span;
  overhead_factor : float;
  ber : Error_model.Loss.ber;
  decision : Error_model.Loss.decision;
}

type stats = {
  frames_sent : int;
  air_bytes : int;
  frames_lost : int;
  frames_delivered : int;
  drops : int;
  frames_blackholed : int;
}

type monitor_event =
  | Enqueued of Frame.t
  | Tx_start of Frame.t
  | Delivered of Frame.t
  | Lost of Frame.t  (* destroyed by bit errors *)
  | Dropped of Frame.t  (* queue overflow *)

(* Trace templates, rendered once when the link is given a live
   trace. *)
type trace_events = {
  tx_start : Obs.Trace.event;
  delivered : Obs.Trace.event;
  lost : Obs.Trace.event;
  blackholed : Obs.Trace.event;
  dropped : Obs.Trace.event;
}

type t = {
  sim : Simulator.t;
  link_name : string;
  cfg : config;
  bits_per_sec : float;  (* bandwidth as a float, hoisted off the hot path *)
  channel_for : Frame.t -> Error_model.Channel.t;
  queue : Frame.t Queue_drop_tail.t;
  mutable receiver : (Frame.t -> unit) option;
  mutable monitor : (monitor_event -> unit) option;
  mutable on_frame_sent : (Frame.t -> unit) option;
  mutable transmitting : bool;
  (* State of the one transmission on the air.  Only a single frame
     serialises at a time, so [finish_fn] is a single preallocated
     closure reading these fields instead of a fresh closure capturing
     them per frame. *)
  mutable tx_frame : Frame.t;
  mutable tx_start : Simtime.t;
  mutable tx_air_bytes : int;
  mutable tx_airtime : Simtime.span;
  mutable finish_fn : unit -> unit;
  (* Frames in propagation.  The delay is constant and serialisation
     end times strictly increase, so deliveries happen in FIFO order:
     one shared closure pops the oldest frame. *)
  prop_frames : Frame.t Ring.t;
  mutable prop_fn : unit -> unit;
  mutable frames_sent : int;
  mutable air_bytes_total : int;
  mutable frames_lost : int;
  mutable frames_delivered : int;
  mutable accepted : int;  (* frames handed to [send] *)
  mutable in_propagation : int;  (* delivered-but-in-flight frames *)
  mutable trace : trace_events option;  (* [None] unless tracing *)
  mutable blackout : bool;  (* disconnection window: frames vanish *)
  mutable frames_blackholed : int;
}

let dummy_frame = Frame.{ seq = -1; payload = Link_ack { acked_seq = -1 } }

let set_receiver t f = t.receiver <- Some f

(* Each monitor site matches on [monitor] before it builds its event,
   so a link nobody monitors allocates no event per frame. *)
let set_monitor t f = t.monitor <- Some f
let set_on_frame_sent t f = t.on_frame_sent <- Some f

let set_trace t tr =
  t.trace <-
    (if not (Obs.Trace.enabled tr) then None
     else
       let event ev =
         Obs.Trace.event tr ~comp:("link:" ^ t.link_name) ~ev [ Arg "seq" ]
       in
       Some
         {
           tx_start = event "tx_start";
           delivered = event "delivered";
           lost = event "lost";
           blackholed = event "blackholed";
           dropped = event "dropped";
         })

let trace_frame t ev frame =
  Obs.Trace.emit1 ev ~t_ns:(Simtime.to_ns (Simulator.now t.sim)) frame.Frame.seq

let air_bytes_of t frame =
  int_of_float (Float.round (t.cfg.overhead_factor *. float_of_int (Frame.bytes frame)))

let air_time t frame =
  Units.tx_time ~bits:(Units.bits_of_bytes (air_bytes_of t frame)) t.cfg.bandwidth

let deliver t frame =
  match t.receiver with
  | None -> failwith ("Wireless_link " ^ t.link_name ^ ": no receiver")
  | Some f ->
    t.frames_delivered <- t.frames_delivered + 1;
    (match t.trace with Some e -> trace_frame t e.delivered frame | None -> ());
    (match t.monitor with Some m -> m (Delivered frame) | None -> ());
    f frame

let propagated t =
  t.in_propagation <- t.in_propagation - 1;
  deliver t (Ring.pop t.prop_frames)

let rec transmit t frame =
  t.transmitting <- true;
  (match t.trace with Some e -> trace_frame t e.tx_start frame | None -> ());
  (match t.monitor with Some m -> m (Tx_start frame) | None -> ());
  let air = air_bytes_of t frame in
  t.tx_frame <- frame;
  t.tx_start <- Simulator.now t.sim;
  t.tx_air_bytes <- air;
  t.tx_airtime <-
    Units.tx_time ~bits:(Units.bits_of_bytes air) t.cfg.bandwidth;
  ignore (Simulator.schedule_after t.sim ~delay:t.tx_airtime t.finish_fn)

and finish t =
  let frame = t.tx_frame in
  let start = t.tx_start in
  t.frames_sent <- t.frames_sent + 1;
  t.air_bytes_total <- t.air_bytes_total + t.tx_air_bytes;
  (* A disconnection blackout swallows the frame without consulting
     the channel: its Gilbert–Elliott timeline (and thus its random
     stream) advances lazily on the next query, so a blackout window
     leaves all channel randomness untouched. *)
  let blackholed = t.blackout in
  let lost =
    (not blackholed)
    &&
    let channel = t.channel_for frame in
    (* Channel-direct query: same expected-error sum and RNG
       consumption as folding [Channel.segments], without building
       the per-frame segment list. *)
    Error_model.Loss.frame_lost_in t.cfg.decision t.cfg.ber
      ~bits_per_sec:t.bits_per_sec ~channel ~start
      ~stop:(Simtime.add start t.tx_airtime)
  in
  (match t.on_frame_sent with Some f -> f frame | None -> ());
  if blackholed then begin
    t.frames_blackholed <- t.frames_blackholed + 1;
    (match t.trace with Some e -> trace_frame t e.blackholed frame | None -> ());
    (match t.monitor with Some m -> m (Lost frame) | None -> ())
  end
  else if lost then begin
    t.frames_lost <- t.frames_lost + 1;
    (match t.trace with Some e -> trace_frame t e.lost frame | None -> ());
    (match t.monitor with Some m -> m (Lost frame) | None -> ())
  end
  else begin
    t.in_propagation <- t.in_propagation + 1;
    Ring.push t.prop_frames frame;
    ignore (Simulator.schedule_after t.sim ~delay:t.cfg.delay t.prop_fn)
  end;
  if Queue_drop_tail.is_empty t.queue then t.transmitting <- false
  else transmit t (Queue_drop_tail.dequeue t.queue)

(* Defined after the [transmit]/[finish] chain so the two shared
   closures can be bound exactly once per link. *)
let create sim ~name ~config ~channel_for ~queue_capacity =
  if config.overhead_factor < 1.0 then
    invalid_arg "Wireless_link.create: overhead factor below 1";
  let t =
    {
      sim;
      link_name = name;
      cfg = config;
      bits_per_sec = float_of_int (Units.bandwidth_to_bps config.bandwidth);
      channel_for;
      queue = Queue_drop_tail.create ~capacity:queue_capacity ();
      receiver = None;
      monitor = None;
      on_frame_sent = None;
      transmitting = false;
      tx_frame = dummy_frame;
      tx_start = Simtime.zero;
      tx_air_bytes = 0;
      tx_airtime = Simtime.span_zero;
      finish_fn = ignore;
      prop_frames = Ring.create ();
      prop_fn = ignore;
      frames_sent = 0;
      air_bytes_total = 0;
      frames_lost = 0;
      frames_delivered = 0;
      accepted = 0;
      in_propagation = 0;
      trace = None;
      blackout = false;
      frames_blackholed = 0;
    }
  in
  t.finish_fn <- (fun () -> finish t);
  t.prop_fn <- (fun () -> propagated t);
  t

let send t frame =
  (match t.receiver with
  | None -> failwith ("Wireless_link " ^ t.link_name ^ ": no receiver")
  | Some _ -> ());
  t.accepted <- t.accepted + 1;
  if t.transmitting then begin
    if Queue_drop_tail.enqueue t.queue frame then
      (match t.monitor with Some m -> m (Enqueued frame) | None -> ())
    else begin
      (match t.trace with Some e -> trace_frame t e.dropped frame | None -> ());
      match t.monitor with Some m -> m (Dropped frame) | None -> ()
    end
  end
  else transmit t frame

let busy t = t.transmitting
let queue_length t = Queue_drop_tail.length t.queue
let set_blackout t on = t.blackout <- on
let set_queue_capacity t capacity = Queue_drop_tail.set_capacity t.queue capacity
let queue_capacity t = Queue_drop_tail.capacity t.queue

let stats t =
  {
    frames_sent = t.frames_sent;
    air_bytes = t.air_bytes_total;
    frames_lost = t.frames_lost;
    frames_delivered = t.frames_delivered;
    drops = Queue_drop_tail.drops t.queue;
    frames_blackholed = t.frames_blackholed;
  }

let config t = t.cfg
let name t = t.link_name

let check_invariants t =
  if
    t.accepted
    <> Queue_drop_tail.drops t.queue
       + Queue_drop_tail.length t.queue
       + (if t.transmitting then 1 else 0)
       + t.in_propagation + t.frames_lost + t.frames_delivered
       + t.frames_blackholed
  then
    Obs.Invariant.fail ~name:"link.frame_conservation"
      (Printf.sprintf
         "%s: accepted=%d but drops=%d queued=%d transmitting=%b \
          propagating=%d lost=%d delivered=%d blackholed=%d"
         t.link_name t.accepted
         (Queue_drop_tail.drops t.queue)
         (Queue_drop_tail.length t.queue)
         t.transmitting t.in_propagation t.frames_lost t.frames_delivered
         t.frames_blackholed)
