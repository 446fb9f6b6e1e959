open Sim_engine
open Netsim

type stats = {
  segments_received : int;
  duplicate_segments : int;
  acks_sent : int;
  bytes_delivered : int;
}

type t = {
  sim : Simulator.t;
  cfg : Tcp_config.t;
  conn : int;
  addr : Address.t;
  peer : Address.t;
  expected : int;
  alloc_id : unit -> int;
  transmit : Packet.t -> unit;
  mutable next_byte : int;  (* rcv_nxt *)
  (* Out-of-order byte ranges [start, stop), disjoint, sorted. *)
  mutable buffered : (int * int) list;
  mutable received_count : int;
  mutable duplicate_count : int;
  mutable ack_count : int;
  mutable finish_time : Simtime.t option;
  mutable on_complete : (unit -> unit) option;
  mutable ack_pending : bool;  (* delayed-ack: one unacked segment held *)
  mutable delack_timer : Simulator.event;  (* [Simulator.null_event] when none *)
  mutable delack_fn : unit -> unit;  (* the delayed-ack timer's one closure *)
}

let set_on_complete t f = t.on_complete <- Some f
let rcv_nxt t = t.next_byte
let completed t = match t.finish_time with Some _ -> true | None -> false
let completion_time t = t.finish_time

(* Insert [start, stop) into the sorted disjoint range list, merging
   overlaps. *)
let rec insert_range ranges (start, stop) =
  match ranges with
  | [] -> [ (start, stop) ]
  | (s, e) :: rest ->
    if stop < s then (start, stop) :: ranges
    else if e < start then (s, e) :: insert_range rest (start, stop)
    else insert_range rest (Stdlib.min s start, Stdlib.max e stop)

(* Advance the ack point through any buffered ranges it now touches. *)
let rec drain t =
  match t.buffered with
  | (s, e) :: rest when s <= t.next_byte ->
    t.next_byte <- Int.max t.next_byte e;
    t.buffered <- rest;
    drain t
  | _ -> ()

let cancel_delack t =
  Simulator.cancel t.sim t.delack_timer;
  t.delack_timer <- Simulator.null_event

(* RFC 2018: report up to three out-of-order blocks so a SACK sender
   can retransmit holes only.  We report the lowest blocks (the ones
   adjacent to the holes the sender must fill first).  The list is
   immutable, so up to three buffered blocks are reported as they
   stand, without a copy. *)
let sack_blocks t =
  match t.buffered with
  | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> t.buffered
  | a :: b :: c :: _ -> [ a; b; c ]

let send_ack t =
  cancel_delack t;
  t.ack_pending <- false;
  let pkt =
    Packet.create ~id:(t.alloc_id ()) ~src:t.addr ~dst:t.peer
      ~kind:
        (Packet.Tcp_ack
           { conn = t.conn; ack = t.next_byte; sack = sack_blocks t })
      ~header_bytes:t.cfg.header_bytes ~created:(Simulator.now t.sim)
  in
  t.ack_count <- t.ack_count + 1;
  t.transmit pkt

let on_delack_timeout t =
  t.delack_timer <- Simulator.null_event;
  if t.ack_pending then send_ack t

let create sim ~config ~conn ~addr ~peer ~expected_bytes ~alloc_id ~transmit =
  if expected_bytes <= 0 then invalid_arg "Tcp_sink.create: nothing expected";
  let t =
    {
      sim;
      cfg = config;
      conn;
      addr;
      peer;
      expected = expected_bytes;
      alloc_id;
      transmit;
      next_byte = 0;
      buffered = [];
      received_count = 0;
      duplicate_count = 0;
      ack_count = 0;
      finish_time = None;
      on_complete = None;
      ack_pending = false;
      delack_timer = Simulator.null_event;
      delack_fn = ignore;
    }
  in
  t.delack_fn <- (fun () -> on_delack_timeout t);
  t

let mark_complete t =
  match t.finish_time with
  | Some _ -> ()
  | None ->
    t.finish_time <- Some (Simulator.now t.sim);
    (match t.on_complete with Some f -> f () | None -> ())

let handle_data t ~seq ~length =
  if length <= 0 then invalid_arg "Tcp_sink.handle_data: empty segment";
  let before = t.next_byte in
  let stop = seq + length in
  if stop <= t.next_byte then t.duplicate_count <- t.duplicate_count + 1
  else begin
    t.received_count <- t.received_count + 1;
    if seq <= t.next_byte then begin
      t.next_byte <- Int.max t.next_byte stop;
      drain t
    end
    else t.buffered <- insert_range t.buffered (seq, stop)
  end;
  let advanced = t.next_byte > before in
  if t.next_byte >= t.expected then mark_complete t;
  (* Default: ack every segment, like the paper's NS-1 sink.  With
     delayed acks (RFC 1122): hold at most one in-order segment, ack
     on the second, on the timeout, on completion, or immediately for
     anything out of order or duplicate. *)
  if
    t.cfg.Tcp_config.delayed_ack && advanced
    && (match t.buffered with [] -> true | _ :: _ -> false)
    && t.next_byte < t.expected
  then begin
    if t.ack_pending then send_ack t
    else begin
      t.ack_pending <- true;
      t.delack_timer <-
        Simulator.schedule_after t.sim
          ~delay:t.cfg.Tcp_config.delayed_ack_timeout t.delack_fn
    end
  end
  else send_ack t

let stats t =
  {
    segments_received = t.received_count;
    duplicate_segments = t.duplicate_count;
    acks_sent = t.ack_count;
    bytes_delivered = Stdlib.min t.next_byte t.expected;
  }
