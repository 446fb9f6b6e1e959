open Sim_engine

type stats = {
  frames_received : int;
  duplicates : int;
  acks_sent : int;
  resequenced : int;
  holes_flushed : int;
  stragglers : int;
}

type resequence = { hole_timeout : Simtime.span }

type t = {
  sim : Simulator.t;
  send_ack : (acked_seq:int -> unit) option;
  on_link_ack : (acked_seq:int -> unit) option;
  resequence : resequence option;
  dedup : bool;
  (* Link sequence numbers are dense from 0, so the dedup set is a
     growable bitset (32 bits per word): membership and insertion are
     O(1) word ops where a hashtable hashed the key and allocated a
     bucket cell per frame received. *)
  mutable seen : int array;
  deliver : Frame.payload -> unit;
  buffer : (int, Frame.payload) Hashtbl.t;  (* out-of-order frames *)
  mutable expected : int;  (* next link seq to deliver *)
  mutable hole_timer : Simulator.event;  (* [Simulator.null_event] when none *)
  mutable hole_fn : unit -> unit;  (* the hole timer's one closure *)
  mutable received_count : int;
  mutable duplicate_count : int;
  mutable ack_count : int;
  mutable resequenced_count : int;
  mutable hole_count : int;
  mutable straggler_count : int;
}

let seen_mem t seq =
  let w = seq lsr 5 in
  w < Array.length t.seen
  && t.seen.(w) land (1 lsl (seq land 31)) <> 0

let seen_add t seq =
  let w = seq lsr 5 in
  let n = Array.length t.seen in
  if w >= n then begin
    let grown = Array.make (Stdlib.max (w + 1) (2 * n)) 0 in
    Array.blit t.seen 0 grown 0 n;
    t.seen <- grown
  end;
  t.seen.(w) <- t.seen.(w) lor (1 lsl (seq land 31))

let cancel_hole_timer t =
  Simulator.cancel t.sim t.hole_timer;
  t.hole_timer <- Simulator.null_event

(* Deliver the expected frame and everything contiguous after it. *)
let rec drain t =
  match Hashtbl.find t.buffer t.expected with
  | payload ->
    Hashtbl.remove t.buffer t.expected;
    t.expected <- t.expected + 1;
    t.resequenced_count <- t.resequenced_count + 1;
    t.deliver payload;
    drain t
  | exception Not_found -> ()

let arm_hole_timer t timeout =
  cancel_hole_timer t;
  if Hashtbl.length t.buffer > 0 then
    t.hole_timer <-
      Simulator.schedule_after t.sim ~delay:timeout.hole_timeout t.hole_fn

(* The missing frame is not coming (discarded by the peer): skip to
   the earliest buffered frame and continue from there. *)
let on_hole_timeout t timeout =
  t.hole_timer <- Simulator.null_event;
  if Hashtbl.length t.buffer > 0 then begin
    let next = Hashtbl.fold (fun seq _ acc -> Int.min seq acc) t.buffer max_int in
    t.hole_count <- t.hole_count + 1;
    t.expected <- next;
    drain t;
    arm_hole_timer t timeout
  end

let create sim ?send_ack ?on_link_ack ?resequence ?(dedup = false) ~deliver
    () =
  let t =
    {
      sim;
      send_ack;
      on_link_ack;
      resequence;
      dedup;
      seen = Array.make 8 0;
      deliver;
      buffer = Hashtbl.create 32;
      expected = 0;
      hole_timer = Simulator.null_event;
      hole_fn = ignore;
      received_count = 0;
      duplicate_count = 0;
      ack_count = 0;
      resequenced_count = 0;
      hole_count = 0;
      straggler_count = 0;
    }
  in
  (match resequence with
  | Some timeout -> t.hole_fn <- (fun () -> on_hole_timeout t timeout)
  | None -> ());
  t

let receive_in_order t frame =
  match t.resequence with
  | None ->
    (* Without resequencing the peer either never retransmits (frames
       are unique) or we at least de-duplicate by link sequence
       (shared-radio mode, where the ARQ sequence space spans several
       receivers and cannot be resequenced per receiver). *)
    if t.dedup then begin
      if seen_mem t frame.Frame.seq then
        t.duplicate_count <- t.duplicate_count + 1
      else begin
        seen_add t frame.Frame.seq;
        t.deliver frame.Frame.payload
      end
    end
    else t.deliver frame.Frame.payload
  | Some timeout ->
    let seq = frame.Frame.seq in
    if seen_mem t seq then t.duplicate_count <- t.duplicate_count + 1
    else begin
      seen_add t seq;
      if seq = t.expected then begin
        t.expected <- t.expected + 1;
        t.deliver frame.Frame.payload;
        drain t;
        arm_hole_timer t timeout
      end
      else if seq < t.expected then begin
        (* A straggler behind a hole the timer already flushed:
           deliver late and out of order rather than lose it. *)
        t.straggler_count <- t.straggler_count + 1;
        t.deliver frame.Frame.payload
      end
      else begin
        Hashtbl.replace t.buffer seq frame.Frame.payload;
        if not (Simulator.is_pending t.sim t.hole_timer) then
          arm_hole_timer t timeout
      end
    end

let receive t frame =
  t.received_count <- t.received_count + 1;
  match frame.Frame.payload with
  | Frame.Link_ack { acked_seq } -> (
    match t.on_link_ack with
    | Some f -> f ~acked_seq
    | None -> ())
  | Frame.Whole _ | Frame.Fragment _ ->
    (match t.send_ack with
    | Some f ->
      t.ack_count <- t.ack_count + 1;
      f ~acked_seq:frame.Frame.seq
    | None -> ());
    receive_in_order t frame

let pending t = Hashtbl.length t.buffer

let stats t =
  {
    frames_received = t.received_count;
    duplicates = t.duplicate_count;
    acks_sent = t.ack_count;
    resequenced = t.resequenced_count;
    holes_flushed = t.hole_count;
    stragglers = t.straggler_count;
  }
