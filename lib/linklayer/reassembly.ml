open Sim_engine

type entry = {
  packet : Netsim.Packet.t;
  count : int;
  mutable seen : bool array;
  mutable seen_count : int;
  mutable purge : Simulator.event;  (* [Simulator.null_event] when none *)
  purge_fn : unit -> unit;  (* one closure per partial packet, re-armed per fragment *)
}

type stats = {
  delivered : int;
  failures : int;
  duplicate_fragments : int;
}

type t = {
  sim : Simulator.t;
  timeout : Simtime.span;
  deliver : Netsim.Packet.t -> unit;
  partial : (int, entry) Hashtbl.t;  (* keyed by packet id *)
  mutable delivered_count : int;
  mutable failure_count : int;
  mutable duplicate_count : int;
}

let create sim ~timeout ~deliver =
  {
    sim;
    timeout;
    deliver;
    partial = Hashtbl.create 16;
    delivered_count = 0;
    failure_count = 0;
    duplicate_count = 0;
  }

let deliver_packet t pkt =
  t.delivered_count <- t.delivered_count + 1;
  t.deliver pkt

let cancel_purge t entry =
  Simulator.cancel t.sim entry.purge;
  entry.purge <- Simulator.null_event

let arm_purge t entry =
  cancel_purge t entry;
  entry.purge <- Simulator.schedule_after t.sim ~delay:t.timeout entry.purge_fn

let purge t key () =
  if Hashtbl.mem t.partial key then begin
    Hashtbl.remove t.partial key;
    t.failure_count <- t.failure_count + 1
  end

let receive t payload =
  match payload with
  | Frame.Link_ack _ -> invalid_arg "Reassembly.receive: link ack"
  | Frame.Whole pkt -> deliver_packet t pkt
  | Frame.Fragment { packet; index; count; bytes = _ } ->
    let key = packet.Netsim.Packet.id in
    let entry =
      match Hashtbl.find t.partial key with
      | e -> e
      | exception Not_found ->
        let e =
          {
            packet;
            count;
            seen = Array.make count false;
            seen_count = 0;
            purge = Simulator.null_event;
            purge_fn = purge t key;
          }
        in
        Hashtbl.replace t.partial key e;
        e
    in
    if entry.seen.(index) then t.duplicate_count <- t.duplicate_count + 1
    else begin
      entry.seen.(index) <- true;
      entry.seen_count <- entry.seen_count + 1;
      if entry.seen_count = entry.count then begin
        cancel_purge t entry;
        Hashtbl.remove t.partial key;
        deliver_packet t entry.packet
      end
      else arm_purge t entry
    end

let pending t = Hashtbl.length t.partial

(* Crash: every partially reassembled packet is lost with the buffer.
   Purge timers are cancelled so no stale closure fires against the
   fresh table, and the lost partials are counted as failures. *)
let crash t =
  Hashtbl.iter (fun _ entry -> cancel_purge t entry) t.partial;
  let lost = Hashtbl.length t.partial in
  Hashtbl.reset t.partial;
  t.failure_count <- t.failure_count + lost;
  lost

let stats t =
  {
    delivered = t.delivered_count;
    failures = t.failure_count;
    duplicate_fragments = t.duplicate_count;
  }
