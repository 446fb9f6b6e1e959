open Sim_engine

type stats = {
  tx_packets : int;
  tx_bytes : int;
  delivered : int;
  drops : int;
}

type monitor_event =
  | Enqueued of Packet.t
  | Tx_start of Packet.t
  | Delivered of Packet.t
  | Dropped of Packet.t

type t = {
  sim : Simulator.t;
  link_name : string;
  link_bandwidth : Units.bandwidth;
  link_delay : Simtime.span;
  queue : Packet.t Queue_drop_tail.t;
  mutable receiver : (Packet.t -> unit) option;
  mutable monitor : (monitor_event -> unit) option;
  mutable transmitting : bool;
  (* The one packet currently serialising, plus a single preallocated
     finish closure reading it — only one transmission is on the wire
     at a time, so a fresh closure per packet is pure allocation. *)
  mutable tx_current : Packet.t;  (* [dummy_packet] when idle *)
  mutable finish_fn : unit -> unit;
  (* Packets in propagation.  Constant delay and strictly increasing
     serialisation end times mean FIFO delivery: one shared closure
     pops the oldest. *)
  prop_packets : Packet.t Ring.t;
  mutable prop_fn : unit -> unit;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable delivered : int;
}

let dummy_packet =
  Packet.create ~id:0 ~src:(Address.make 0) ~dst:(Address.make 0)
    ~kind:(Packet.Ebsn { conn = 0 }) ~header_bytes:0 ~created:Simtime.zero

let set_receiver t f = t.receiver <- Some f

(* Each monitor site matches on [monitor] before it builds its event,
   so a link nobody monitors allocates no event per packet. *)
let set_monitor t f = t.monitor <- Some f

let deliver t pkt =
  match t.receiver with
  | None -> failwith ("Link " ^ t.link_name ^ ": no receiver installed")
  | Some f ->
    t.delivered <- t.delivered + 1;
    (match t.monitor with Some m -> m (Delivered pkt) | None -> ());
    f pkt

let propagated t = deliver t (Ring.pop t.prop_packets)

let rec transmit t pkt =
  t.transmitting <- true;
  (match t.monitor with Some m -> m (Tx_start pkt) | None -> ());
  let bits = Units.bits_of_bytes (Packet.size pkt) in
  let tx = Units.tx_time ~bits t.link_bandwidth in
  t.tx_current <- pkt;
  ignore (Simulator.schedule_after t.sim ~delay:tx t.finish_fn)

and finish t =
  let pkt = t.tx_current in
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + Packet.size pkt;
  Ring.push t.prop_packets pkt;
  ignore (Simulator.schedule_after t.sim ~delay:t.link_delay t.prop_fn);
  if Queue_drop_tail.is_empty t.queue then begin
    t.transmitting <- false;
    t.tx_current <- dummy_packet
  end
  else transmit t (Queue_drop_tail.dequeue t.queue)

(* Defined after [transmit]/[finish] so the shared closures bind once. *)
let create sim ~name ~bandwidth ~delay ~queue_capacity =
  let t =
    {
      sim;
      link_name = name;
      link_bandwidth = bandwidth;
      link_delay = delay;
      queue = Queue_drop_tail.create ~capacity:queue_capacity ();
      receiver = None;
      monitor = None;
      transmitting = false;
      tx_current = dummy_packet;
      finish_fn = ignore;
      prop_packets = Ring.create ();
      prop_fn = ignore;
      tx_packets = 0;
      tx_bytes = 0;
      delivered = 0;
    }
  in
  t.finish_fn <- (fun () -> finish t);
  t.prop_fn <- (fun () -> propagated t);
  t

let send t pkt =
  (match t.receiver with
  | None -> failwith ("Link " ^ t.link_name ^ ": no receiver installed")
  | Some _ -> ());
  if t.transmitting then begin
    let queued = Queue_drop_tail.enqueue t.queue pkt in
    match t.monitor with
    | None -> ()
    | Some m -> m (if queued then Enqueued pkt else Dropped pkt)
  end
  else transmit t pkt

let queue_length t = Queue_drop_tail.length t.queue
let busy t = t.transmitting

let stats t =
  {
    tx_packets = t.tx_packets;
    tx_bytes = t.tx_bytes;
    delivered = t.delivered;
    drops = Queue_drop_tail.drops t.queue;
  }

let name t = t.link_name
let bandwidth t = t.link_bandwidth
let delay t = t.link_delay
