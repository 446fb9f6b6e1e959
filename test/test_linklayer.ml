(* Tests for the wireless link layer: Frame, Fragmenter, Reassembly,
   Backoff, Sched, Wireless_link, Arq, Arq_receiver. *)

open Core

let addr = Address.make
let sec = Simtime.span_sec

let mk_data ?(id = 0) ?(conn = 0) ?(seq = 0) ?(len = 536) () =
  Packet.create ~id ~src:(addr 0) ~dst:(addr 2)
    ~kind:(Packet.Tcp_data { conn; seq; length = len; is_retransmit = false })
    ~header_bytes:40 ~created:Simtime.zero

let wl_config ?(decision = Loss.Threshold) ?(ber = Loss.no_errors)
    ?(overhead = 1.5) () =
  Wireless_link.
    {
      bandwidth = Units.kbps 19.2;
      delay = Simtime.span_ms 20;
      overhead_factor = overhead;
      ber;
      decision;
    }

let make_link ?decision ?ber ?overhead ?(channel = Uniform_channel.perfect ())
    sim =
  Wireless_link.create sim ~name:"wl"
    ~config:(wl_config ?decision ?ber ?overhead ())
    ~channel_for:(fun _ -> channel)
    ~queue_capacity:64

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

let test_frame_bytes () =
  let pkt = mk_data ~len:536 () in
  Alcotest.(check int) "whole" 576 (Frame.bytes { Frame.seq = 0; payload = Frame.Whole pkt });
  Alcotest.(check int) "fragment" 128
    (Frame.bytes
       {
         Frame.seq = 1;
         payload = Frame.Fragment { packet = pkt; index = 0; count = 5; bytes = 128 };
       });
  Alcotest.(check int) "link ack" Frame.link_ack_bytes
    (Frame.bytes { Frame.seq = 2; payload = Frame.Link_ack { acked_seq = 0 } })

let test_frame_accessors () =
  let pkt = mk_data ~conn:3 () in
  let frame = { Frame.seq = 0; payload = Frame.Whole pkt } in
  Alcotest.(check (option int)) "conn" (Some 3) (Frame.conn frame);
  Alcotest.(check bool) "packet present" true (Frame.packet frame <> None);
  let ack = { Frame.seq = 1; payload = Frame.Link_ack { acked_seq = 0 } } in
  Alcotest.(check bool) "ack is ack" true (Frame.is_ack ack);
  Alcotest.(check (option int)) "ack has no conn" None (Frame.conn ack)

(* ------------------------------------------------------------------ *)
(* Fragmenter                                                          *)
(* ------------------------------------------------------------------ *)

let test_fragment_count () =
  Alcotest.(check int) "fits" 1 (Fragmenter.fragment_count ~mtu:128 (mk_data ~len:88 ()));
  (* 576 bytes into 128-byte MTUs: 5 fragments. *)
  Alcotest.(check int) "576B" 5 (Fragmenter.fragment_count ~mtu:128 (mk_data ~len:536 ()))

let test_split_whole () =
  match Fragmenter.split ~mtu:128 (mk_data ~len:88 ()) with
  | [ Frame.Whole _ ] -> ()
  | _ -> Alcotest.fail "expected single whole frame"

let test_split_sizes () =
  let pkt = mk_data ~len:536 () in
  let payloads = Fragmenter.split ~mtu:128 pkt in
  Alcotest.(check int) "count" 5 (List.length payloads);
  let bytes =
    List.map
      (function
        | Frame.Fragment { bytes; _ } -> bytes
        | Frame.Whole _ | Frame.Link_ack _ -> -1)
      payloads
  in
  Alcotest.(check (list int)) "all mtu but last" [ 128; 128; 128; 128; 64 ] bytes

let test_split_rejects_bad_mtu () =
  Alcotest.check_raises "mtu 0" (Invalid_argument "Fragmenter: mtu must be positive")
    (fun () -> ignore (Fragmenter.split ~mtu:0 (mk_data ())))

let prop_split_conserves_bytes =
  QCheck2.Test.make ~name:"fragment bytes sum to the packet size" ~count:200
    QCheck2.Gen.(pair (int_range 1 2000) (int_range 1 300))
    (fun (len, mtu) ->
      let pkt = mk_data ~len () in
      let payloads = Fragmenter.split ~mtu pkt in
      let total = List.fold_left (fun acc p -> acc + Frame.payload_bytes p) 0 payloads in
      total = Packet.size pkt)

let prop_split_indices =
  QCheck2.Test.make ~name:"fragment indices are 0..count-1 in order" ~count:200
    QCheck2.Gen.(pair (int_range 200 2000) (int_range 1 128))
    (fun (len, mtu) ->
      let payloads = Fragmenter.split ~mtu (mk_data ~len ()) in
      match payloads with
      | [ Frame.Whole _ ] -> true
      | fragments ->
        List.for_all2
          (fun i p ->
            match p with
            | Frame.Fragment { index; count; _ } ->
              index = i && count = List.length fragments
            | Frame.Whole _ | Frame.Link_ack _ -> false)
          (List.init (List.length fragments) Fun.id)
          fragments)

(* ------------------------------------------------------------------ *)
(* Reassembly                                                          *)
(* ------------------------------------------------------------------ *)

let reassembler ?(timeout = sec 5.0) sim =
  let delivered = ref [] in
  let r =
    Reassembly.create sim ~timeout ~deliver:(fun pkt ->
        delivered := pkt.Packet.id :: !delivered)
  in
  (r, delivered)

let test_reassembly_whole_immediate () =
  let sim = Simulator.create () in
  let r, delivered = reassembler sim in
  Reassembly.receive r (Frame.Whole (mk_data ~id:5 ()));
  Alcotest.(check (list int)) "delivered" [ 5 ] !delivered

let test_reassembly_complete () =
  let sim = Simulator.create () in
  let r, delivered = reassembler sim in
  let pkt = mk_data ~id:7 ~len:536 () in
  let payloads = Fragmenter.split ~mtu:128 pkt in
  List.iter (Reassembly.receive r) payloads;
  Alcotest.(check (list int)) "one delivery" [ 7 ] !delivered;
  Alcotest.(check int) "no pending" 0 (Reassembly.pending r)

let test_reassembly_out_of_order () =
  let sim = Simulator.create () in
  let r, delivered = reassembler sim in
  let payloads = Fragmenter.split ~mtu:128 (mk_data ~id:8 ()) in
  List.iter (Reassembly.receive r) (List.rev payloads);
  Alcotest.(check (list int)) "delivered out of order" [ 8 ] !delivered

let test_reassembly_duplicates_ignored () =
  let sim = Simulator.create () in
  let r, delivered = reassembler sim in
  let payloads = Fragmenter.split ~mtu:128 (mk_data ~id:9 ()) in
  (match payloads with
  | first :: _ ->
    Reassembly.receive r first;
    Reassembly.receive r first
  | [] -> Alcotest.fail "no fragments");
  List.iter (Reassembly.receive r) payloads;
  Alcotest.(check (list int)) "single delivery" [ 9 ] !delivered;
  Alcotest.(check int) "duplicates counted" 2
    (Reassembly.stats r).Reassembly.duplicate_fragments

let test_reassembly_timeout_purges () =
  let sim = Simulator.create () in
  let r, delivered = reassembler ~timeout:(sec 1.0) sim in
  let payloads = Fragmenter.split ~mtu:128 (mk_data ~id:10 ()) in
  (match payloads with
  | first :: _ -> Reassembly.receive r first
  | [] -> Alcotest.fail "no fragments");
  Alcotest.(check int) "pending" 1 (Reassembly.pending r);
  Simulator.run sim;
  Alcotest.(check int) "purged" 0 (Reassembly.pending r);
  Alcotest.(check int) "failure counted" 1 (Reassembly.stats r).Reassembly.failures;
  Alcotest.(check (list int)) "nothing delivered" [] !delivered

let test_reassembly_rejects_acks () =
  let sim = Simulator.create () in
  let r, _ = reassembler sim in
  Alcotest.check_raises "link ack" (Invalid_argument "Reassembly.receive: link ack")
    (fun () -> Reassembly.receive r (Frame.Link_ack { acked_seq = 0 }))

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_uniform_range () =
  let rng = Rng.create ~seed:1 in
  let policy = Backoff.Uniform (Simtime.span_ms 400) in
  for attempt = 1 to 5 do
    for _ = 1 to 200 do
      let d = Backoff.draw policy rng ~attempt in
      Alcotest.(check bool) "within window" true
        (Simtime.span_to_ns d <= 400_000_000)
    done
  done

let test_backoff_binexp_window_growth () =
  let policy =
    Backoff.Binary_exponential
      { base = Simtime.span_ms 100; cap = Simtime.span_ms 450 }
  in
  Alcotest.(check int) "attempt 1 mean" 50_000_000
    (Simtime.span_to_ns (Backoff.mean policy ~attempt:1));
  Alcotest.(check int) "attempt 2 mean" 100_000_000
    (Simtime.span_to_ns (Backoff.mean policy ~attempt:2));
  Alcotest.(check int) "attempt 3 mean" 200_000_000
    (Simtime.span_to_ns (Backoff.mean policy ~attempt:3));
  (* Capped at 450 ms from attempt 4 on. *)
  Alcotest.(check int) "attempt 4 capped" 225_000_000
    (Simtime.span_to_ns (Backoff.mean policy ~attempt:4));
  Alcotest.(check int) "attempt 10 capped" 225_000_000
    (Simtime.span_to_ns (Backoff.mean policy ~attempt:10))

let test_backoff_rejects_bad_attempt () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "attempt 0" (Invalid_argument "Backoff: attempt must be >= 1")
    (fun () ->
      ignore (Backoff.draw (Backoff.Uniform (Simtime.span_ms 1)) rng ~attempt:0))

let prop_backoff_within_window =
  QCheck2.Test.make ~name:"binary-exponential draws stay within the window"
    ~count:500
    QCheck2.Gen.(pair (int_range 1 13) (int_range 0 10_000))
    (fun (attempt, seed) ->
      let rng = Rng.create ~seed in
      let policy =
        Backoff.Binary_exponential
          { base = Simtime.span_ms 20; cap = Simtime.span_ms 350 }
      in
      let d = Backoff.draw policy rng ~attempt in
      Simtime.span_compare d (Backoff.mean policy ~attempt) <= 0
      || Simtime.span_to_ns d <= 2 * Simtime.span_to_ns (Backoff.mean policy ~attempt))

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let test_sched_fifo_order () =
  let s = Sched.create Sched.Fifo ~capacity:10 in
  ignore (Sched.push s ~conn:0 "a");
  ignore (Sched.push s ~conn:1 "b");
  ignore (Sched.push s ~conn:0 "c");
  let pop () = if Sched.is_empty s then "-" else Sched.pop s in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "fifo order" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_sched_round_robin_alternates () =
  let s = Sched.create Sched.Round_robin ~capacity:10 in
  (* Each item carries its connection, so the served pairs show which
     lane each pop came from. *)
  ignore (Sched.push s ~conn:0 (0, "a0"));
  ignore (Sched.push s ~conn:0 (0, "a1"));
  ignore (Sched.push s ~conn:1 (1, "b0"));
  ignore (Sched.push s ~conn:1 (1, "b1"));
  let pop () = if Sched.is_empty s then (-1, "-") else Sched.pop s in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  let x4 = pop () in
  let order = [ x1; x2; x3; x4 ] in
  Alcotest.(check (list (pair int string)))
    "alternating service"
    [ (0, "a0"); (1, "b0"); (0, "a1"); (1, "b1") ]
    order

let test_sched_round_robin_skips_empty () =
  let s = Sched.create Sched.Round_robin ~capacity:10 in
  ignore (Sched.push s ~conn:0 "a0");
  ignore (Sched.push s ~conn:1 "b0");
  ignore (Sched.push s ~conn:1 "b1");
  let pop () = if Sched.is_empty s then "-" else Sched.pop s in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "skips the empty lane" [ "a0"; "b0"; "b1" ]
    [ x1; x2; x3 ];
  Alcotest.(check bool) "empty at end" true (Sched.is_empty s)

let test_sched_push_front () =
  let s = Sched.create Sched.Fifo ~capacity:10 in
  ignore (Sched.push s ~conn:0 "b");
  Sched.push_front s ~conn:0 "a";
  let pop () = if Sched.is_empty s then "-" else Sched.pop s in
  let x1 = pop () in
  let x2 = pop () in
  Alcotest.(check (list string)) "front first" [ "a"; "b" ] [ x1; x2 ]

let test_sched_capacity_per_lane () =
  let s = Sched.create Sched.Round_robin ~capacity:1 in
  Alcotest.(check bool) "conn0 accepted" true (Sched.push s ~conn:0 "a");
  Alcotest.(check bool) "conn0 full" false (Sched.push s ~conn:0 "b");
  Alcotest.(check bool) "conn1 independent" true (Sched.push s ~conn:1 "c");
  Alcotest.(check int) "drops" 1 (Sched.drops s)

(* ------------------------------------------------------------------ *)
(* Wireless_link                                                       *)
(* ------------------------------------------------------------------ *)

let test_wireless_airtime_overhead () =
  let sim = Simulator.create () in
  let link = make_link sim in
  (* 128-byte fragment -> 192 air bytes -> 1536 bits at 19.2k = 80 ms. *)
  let frame =
    Frame.
      {
        seq = 0;
        payload = Fragment { packet = mk_data (); index = 0; count = 5; bytes = 128 };
      }
  in
  Alcotest.(check int) "80ms airtime" 80_000_000
    (Simtime.span_to_ns (Wireless_link.air_time link frame))

let test_wireless_delivery () =
  let sim = Simulator.create () in
  let link = make_link sim in
  let arrivals = ref [] in
  Wireless_link.set_receiver link (fun f ->
      arrivals := (Simtime.to_ns (Simulator.now sim), f.Frame.seq) :: !arrivals);
  Wireless_link.send link { Frame.seq = 4; payload = Frame.Whole (mk_data ~len:88 ()) };
  Simulator.run sim;
  (* 128B network -> 192B air -> 80 ms + 20 ms delay. *)
  (match !arrivals with
  | [ (t, 4) ] -> Alcotest.(check int) "arrival" 100_000_000 t
  | _ -> Alcotest.fail "expected one frame");
  let stats = Wireless_link.stats link in
  Alcotest.(check int) "sent" 1 stats.Wireless_link.frames_sent;
  Alcotest.(check int) "air bytes" 192 stats.Wireless_link.air_bytes;
  Alcotest.(check int) "delivered" 1 stats.Wireless_link.frames_delivered

let test_wireless_bad_state_loses () =
  let sim = Simulator.create () in
  let channel = Uniform_channel.always Channel_state.Bad in
  let link = make_link ~ber:Loss.paper_ber ~channel sim in
  let count = ref 0 in
  Wireless_link.set_receiver link (fun _ -> incr count);
  Wireless_link.send link { Frame.seq = 0; payload = Frame.Whole (mk_data ~len:88 ()) };
  Simulator.run sim;
  Alcotest.(check int) "nothing delivered" 0 !count;
  Alcotest.(check int) "loss counted" 1
    (Wireless_link.stats link).Wireless_link.frames_lost

let test_wireless_frame_sent_hook () =
  let sim = Simulator.create () in
  let link = make_link sim in
  let sent = ref [] in
  Wireless_link.set_on_frame_sent link (fun f -> sent := f.Frame.seq :: !sent);
  Wireless_link.set_receiver link (fun _ -> ());
  Wireless_link.send link { Frame.seq = 1; payload = Frame.Whole (mk_data ~len:88 ()) };
  Simulator.run sim;
  Alcotest.(check (list int)) "hook fired" [ 1 ] !sent

(* ------------------------------------------------------------------ *)
(* Arq + Arq_receiver                                                  *)
(* ------------------------------------------------------------------ *)

(* A loopback rig: an ARQ sender over a lossy downlink, a receiver that
   acks over a perfect uplink back to the sender. *)
type rig = {
  sim : Simulator.t;
  arq : Arq.t;
  down : Wireless_link.t;  (* the lossy link under the ARQ sender *)
  receiver : Arq_receiver.t;
  delivered : int list ref;  (* packet ids, in delivery order *)
}

let make_rig ?(rt_max = 3) ?(window = 4) ?(channel = Uniform_channel.perfect ())
    ?(hole_timeout = sec 1.0) () =
  let sim = Simulator.create ~seed:5 () in
  let down = make_link ~ber:Loss.paper_ber ~channel sim in
  let up = make_link sim in
  let config =
    {
      Arq.rt_max;
      window;
      ack_timeout_margin = Simtime.span_ms 50;
      backoff = Backoff.Uniform (Simtime.span_ms 100);
      scheduler = Sched.Fifo;
      queue_capacity = 64;
      defer_on_backoff = false;
    }
  in
  let arq = Arq.create sim ~rng:(Rng.split (Simulator.rng sim)) ~config ~link:down in
  let delivered = ref [] in
  let ack_seq = ref 1000 in
  let receiver =
    Arq_receiver.create sim
      ~send_ack:(fun ~acked_seq ->
        incr ack_seq;
        Wireless_link.send up
          { Frame.seq = !ack_seq; payload = Frame.Link_ack { acked_seq } })
      ~resequence:{ Arq_receiver.hole_timeout }
      ~deliver:(fun payload ->
        match payload with
        | Frame.Whole pkt -> delivered := pkt.Packet.id :: !delivered
        | Frame.Fragment { packet; index; _ } ->
          if index = 0 then delivered := packet.Packet.id :: !delivered
        | Frame.Link_ack _ -> ())
      ()
  in
  Wireless_link.set_receiver down (Arq_receiver.receive receiver);
  Wireless_link.set_receiver up (fun frame ->
      match frame.Frame.payload with
      | Frame.Link_ack { acked_seq } -> Arq.handle_link_ack arq ~acked_seq
      | Frame.Whole _ | Frame.Fragment _ -> ());
  { sim; arq; down; receiver; delivered }

let send_packets rig n =
  for i = 0 to n - 1 do
    ignore
      (Arq.send rig.arq ~conn:0 (Frame.Whole (mk_data ~id:i ~len:88 ())))
  done

let test_arq_delivers_in_order_clean () =
  let rig = make_rig () in
  send_packets rig 10;
  Simulator.run rig.sim;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init 10 Fun.id) (List.rev !(rig.delivered));
  let stats = Arq.stats rig.arq in
  Alcotest.(check int) "no retransmissions" 0 stats.Arq.retransmissions;
  Alcotest.(check int) "all acked" 10 stats.Arq.completions;
  Alcotest.(check bool) "idle" true (Arq.idle rig.arq)

let test_arq_recovers_from_fade () =
  (* 2 s bad period starting at t=0; the ARQ must retransmit through it
     and deliver everything. *)
  let channel =
    Channel.make ~description:"bad-then-good" ~segments:(fun ~start ~stop ->
        let bad_end = Simtime.of_ns 2_000_000_000 in
        let piece a b state =
          if Simtime.(b <= a) then [] else [ (state, Simtime.diff b a) ]
        in
        piece start (Simtime.min stop bad_end) Channel_state.Bad
        @ piece (Simtime.max start bad_end) (Simtime.max stop bad_end)
            Channel_state.Good
        |> List.filter (fun (_, d) -> Simtime.span_to_ns d > 0))
      ()
  in
  let rig = make_rig ~rt_max:20 ~channel () in
  send_packets rig 5;
  Simulator.run rig.sim;
  Alcotest.(check (list int)) "all delivered in order despite the fade"
    (List.init 5 Fun.id) (List.rev !(rig.delivered));
  let stats = Arq.stats rig.arq in
  Alcotest.(check bool) "retransmissions happened" true
    (stats.Arq.retransmissions > 0);
  Alcotest.(check bool) "attempt failures reported" true
    (stats.Arq.attempt_failures > 0);
  Alcotest.(check int) "nothing discarded" 0 stats.Arq.discards

let test_arq_discards_after_rt_max () =
  let channel = Uniform_channel.always Channel_state.Bad in
  let rig = make_rig ~rt_max:2 ~channel () in
  let discarded = ref [] in
  Arq.set_on_discard rig.arq (fun frame ->
      discarded := frame.Frame.seq :: !discarded);
  send_packets rig 1;
  Simulator.run rig.sim;
  Alcotest.(check (list int)) "frame discarded" [ 0 ] !discarded;
  let stats = Arq.stats rig.arq in
  Alcotest.(check int) "3 transmissions (1 + rt_max)" 3 stats.Arq.transmissions;
  Alcotest.(check int) "3 attempt failures" 3 stats.Arq.attempt_failures;
  Alcotest.(check (list int)) "nothing delivered" [] !(rig.delivered)

let test_arq_attempt_failure_hook_counts () =
  let channel = Uniform_channel.always Channel_state.Bad in
  let rig = make_rig ~rt_max:2 ~channel () in
  let attempts = ref [] in
  Arq.set_on_attempt_failure rig.arq (fun _ ~attempt ->
      attempts := attempt :: !attempts);
  send_packets rig 1;
  Simulator.run rig.sim;
  Alcotest.(check (list int)) "attempts 1,2,3" [ 1; 2; 3 ] (List.rev !attempts)

let test_arq_window_limits_inflight () =
  let channel = Uniform_channel.always Channel_state.Bad in
  let rig = make_rig ~rt_max:20 ~window:2 ~channel () in
  send_packets rig 6;
  (* Give the simulation a moment: only 2 frames may be in flight. *)
  Simulator.run ~until:(Simtime.of_ns 500_000_000) rig.sim;
  Alcotest.(check int) "in flight bounded" 2 (Arq.in_flight rig.arq);
  Alcotest.(check int) "rest waiting" 4 (Arq.backlog rig.arq)

let test_arq_spurious_ack_counted () =
  let rig = make_rig () in
  Arq.handle_link_ack rig.arq ~acked_seq:99;
  Alcotest.(check int) "spurious" 1 (Arq.stats rig.arq).Arq.spurious_acks

let test_arq_early_link_ack_deferred () =
  (* Regression: a link ack arriving while the frame is still being
     serialised (e.g. the ack of a previous attempt racing a
     retransmission) must not release the window slot early — that
     desynchronised [slots_held] from the link's pending frame-sent
     notification. *)
  let rig = make_rig () in
  ignore (Arq.send rig.arq ~conn:0 (Frame.Whole (mk_data ~id:0 ~len:88 ())));
  Arq.handle_link_ack rig.arq ~acked_seq:0;
  Alcotest.(check int) "completion deferred while in the link" 1
    (Arq.in_flight rig.arq);
  Alcotest.(check int) "not yet completed" 0
    (Arq.stats rig.arq).Arq.completions;
  Arq.check_invariants rig.arq;
  (* A duplicate early ack is spurious, not a second completion. *)
  Arq.handle_link_ack rig.arq ~acked_seq:0;
  Alcotest.(check int) "duplicate early ack spurious" 1
    (Arq.stats rig.arq).Arq.spurious_acks;
  Simulator.run rig.sim;
  let stats = Arq.stats rig.arq in
  Alcotest.(check int) "exactly one completion" 1 stats.Arq.completions;
  Alcotest.(check int) "no retransmission of an acked frame" 0
    stats.Arq.retransmissions;
  (* dup early ack + the receiver's genuine ack after release *)
  Alcotest.(check int) "late genuine ack spurious" 2 stats.Arq.spurious_acks;
  Alcotest.(check bool) "idle" true (Arq.idle rig.arq);
  Arq.check_invariants rig.arq

(* The per-frame completion path allocates nothing once the entry
   pool is warm: a link ack finds the frame's slot, samples the
   (disabled) attempts histogram, releases the slot and recycles the
   entry.  Nothing acks on its own here: the frames have left the
   transmitter and wait for acks whose timeout is far away. *)
let test_arq_link_ack_allocates_nothing () =
  let sim = Simulator.create ~seed:5 () in
  let down = make_link sim in
  Wireless_link.set_receiver down ignore;
  let config =
    {
      Arq.default_config with
      ack_timeout_margin = Simtime.span_sec 1000.0;
    }
  in
  let arq = Arq.create sim ~rng:(Rng.split (Simulator.rng sim)) ~config ~link:down in
  let fill () =
    for i = 0 to config.Arq.window - 1 do
      ignore (Arq.send arq ~conn:0 (Frame.Whole (mk_data ~id:i ~len:88 ())))
    done;
    Simulator.run ~until:(Simtime.add (Simulator.now sim) (sec 10.0)) sim
  in
  let ack_all ~first =
    for seq = first to first + config.Arq.window - 1 do
      Arq.handle_link_ack arq ~acked_seq:seq
    done
  in
  fill ();
  ack_all ~first:0;
  fill ();
  Alcotest.(check int) "window in flight" config.Arq.window (Arq.in_flight arq);
  let before = Gc.minor_words () in
  ack_all ~first:config.Arq.window;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every frame completed" (2 * config.Arq.window)
    (Arq.stats arq).Arq.completions;
  Alcotest.(check bool) "idle" true (Arq.idle arq);
  Alcotest.(check (float 0.0)) "words per completing link ack" 0.0 words

let test_receiver_resequences () =
  let sim = Simulator.create () in
  let delivered = ref [] in
  let receiver =
    Arq_receiver.create sim
      ~resequence:{ Arq_receiver.hole_timeout = sec 1.0 }
      ~deliver:(fun payload ->
        match payload with
        | Frame.Whole pkt -> delivered := pkt.Packet.id :: !delivered
        | Frame.Fragment _ | Frame.Link_ack _ -> ())
      ()
  in
  (* Frames 1 and 2 arrive before frame 0. *)
  Arq_receiver.receive receiver { Frame.seq = 1; payload = Frame.Whole (mk_data ~id:1 ()) };
  Arq_receiver.receive receiver { Frame.seq = 2; payload = Frame.Whole (mk_data ~id:2 ()) };
  Alcotest.(check (list int)) "held back" [] !delivered;
  Alcotest.(check int) "pending" 2 (Arq_receiver.pending receiver);
  Arq_receiver.receive receiver { Frame.seq = 0; payload = Frame.Whole (mk_data ~id:0 ()) };
  Alcotest.(check (list int)) "released in order" [ 0; 1; 2 ]
    (List.rev !delivered)

let test_receiver_hole_timeout_flushes () =
  let sim = Simulator.create () in
  let delivered = ref [] in
  let receiver =
    Arq_receiver.create sim
      ~resequence:{ Arq_receiver.hole_timeout = sec 1.0 }
      ~deliver:(fun payload ->
        match payload with
        | Frame.Whole pkt -> delivered := pkt.Packet.id :: !delivered
        | Frame.Fragment _ | Frame.Link_ack _ -> ())
      ()
  in
  Arq_receiver.receive receiver { Frame.seq = 1; payload = Frame.Whole (mk_data ~id:1 ()) };
  Simulator.run sim;
  Alcotest.(check (list int)) "flushed after timeout" [ 1 ] !delivered;
  Alcotest.(check int) "hole counted" 1
    (Arq_receiver.stats receiver).Arq_receiver.holes_flushed;
  (* The straggler (seq 0) arrives late: delivered out of order. *)
  Arq_receiver.receive receiver { Frame.seq = 0; payload = Frame.Whole (mk_data ~id:0 ()) };
  Alcotest.(check (list int)) "straggler still delivered" [ 1; 0 ]
    (List.rev !delivered);
  Alcotest.(check int) "straggler counted" 1
    (Arq_receiver.stats receiver).Arq_receiver.stragglers

let test_receiver_duplicates () =
  let sim = Simulator.create () in
  let delivered = ref 0 in
  let acks = ref 0 in
  let receiver =
    Arq_receiver.create sim
      ~send_ack:(fun ~acked_seq:_ -> incr acks)
      ~resequence:{ Arq_receiver.hole_timeout = sec 1.0 }
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let frame = { Frame.seq = 0; payload = Frame.Whole (mk_data ~id:0 ()) } in
  Arq_receiver.receive receiver frame;
  Arq_receiver.receive receiver frame;
  Alcotest.(check int) "delivered once" 1 !delivered;
  Alcotest.(check int) "both acked" 2 !acks;
  Alcotest.(check int) "duplicate counted" 1
    (Arq_receiver.stats receiver).Arq_receiver.duplicates

let test_receiver_dedup_mode () =
  let sim = Simulator.create () in
  let delivered = ref 0 in
  let receiver =
    Arq_receiver.create sim ~dedup:true ~deliver:(fun _ -> incr delivered) ()
  in
  let frame = { Frame.seq = 3; payload = Frame.Whole (mk_data ~id:0 ()) } in
  Arq_receiver.receive receiver frame;
  Arq_receiver.receive receiver frame;
  (* Out-of-order but new sequence: delivered immediately (no reseq). *)
  Arq_receiver.receive receiver { Frame.seq = 1; payload = Frame.Whole (mk_data ~id:1 ()) };
  Alcotest.(check int) "two distinct frames delivered" 2 !delivered

(* ------------------------------------------------------------------ *)
(* Fault hooks: blackout, crash, reassembly under frame loss           *)
(* ------------------------------------------------------------------ *)

let test_wireless_blackout_swallows () =
  let sim = Simulator.create () in
  let link = make_link sim in
  let arrivals = ref 0 in
  let sent_hook = ref 0 in
  Wireless_link.set_receiver link (fun _ -> incr arrivals);
  Wireless_link.set_on_frame_sent link (fun _ -> incr sent_hook);
  Wireless_link.set_blackout link true;
  Wireless_link.send link { Frame.seq = 0; payload = Frame.Whole (mk_data ~len:88 ()) };
  Simulator.run sim;
  Alcotest.(check int) "nothing delivered" 0 !arrivals;
  Alcotest.(check int) "serialisation still completes" 1 !sent_hook;
  let stats = Wireless_link.stats link in
  Alcotest.(check int) "blackholed counted" 1 stats.Wireless_link.frames_blackholed;
  Alcotest.(check int) "not counted as channel loss" 0 stats.Wireless_link.frames_lost;
  (* Leaving the blackout restores delivery. *)
  Wireless_link.set_blackout link false;
  Wireless_link.send link { Frame.seq = 1; payload = Frame.Whole (mk_data ~len:88 ()) };
  Simulator.run sim;
  Alcotest.(check int) "delivery resumes" 1 !arrivals

(* rt_max=13 is the paper's LAN retransmission limit: under a total
   disconnection the ARQ must make exactly 1 + rt_max attempts, then
   discard and go idle — not raise, not retry forever. *)
let arq_discard_under_blackout rt_max =
  let rig = make_rig ~rt_max () in
  let link = rig.down in
  let discarded = ref 0 in
  Arq.set_on_discard rig.arq (fun _ -> incr discarded);
  Wireless_link.set_blackout link true;
  send_packets rig 1;
  Simulator.run rig.sim;
  Arq.check_invariants rig.arq;
  let stats = Arq.stats rig.arq in
  (!discarded, stats, Wireless_link.stats link, Arq.idle rig.arq)

let test_arq_discard_at_rt_max_13 () =
  let discarded, stats, link_stats, idle = arq_discard_under_blackout 13 in
  Alcotest.(check int) "one discard" 1 discarded;
  Alcotest.(check int) "14 transmissions (1 + rt_max)" 14 stats.Arq.transmissions;
  Alcotest.(check int) "13 retransmissions" 13 stats.Arq.retransmissions;
  Alcotest.(check int) "every attempt blackholed" 14
    link_stats.Wireless_link.frames_blackholed;
  Alcotest.(check int) "nothing completed" 0 stats.Arq.completions;
  Alcotest.(check bool) "sender idle after discard" true idle

let prop_arq_discard_any_rt_max =
  QCheck2.Test.make ~name:"blackout discard makes exactly 1+rt_max attempts"
    ~count:13
    QCheck2.Gen.(int_range 1 13)
    (fun rt_max ->
      let discarded, stats, link_stats, idle = arq_discard_under_blackout rt_max in
      discarded = 1
      && stats.Arq.transmissions = rt_max + 1
      && link_stats.Wireless_link.frames_blackholed = rt_max + 1
      && stats.Arq.discards = 1 && idle)

let test_reassembly_timeout_under_frame_loss () =
  (* First fragment arrives, then the link disconnects: the receiver's
     partial packet must be timed out and discarded, not held forever. *)
  let sim = Simulator.create () in
  let link = make_link sim in
  let r, delivered = reassembler ~timeout:(sec 1.0) sim in
  Wireless_link.set_receiver link (fun frame ->
      Reassembly.receive r frame.Frame.payload);
  let payloads = Fragmenter.split ~mtu:128 (mk_data ~id:3 ~len:536 ()) in
  List.iteri
    (fun i payload -> Wireless_link.send link { Frame.seq = i; payload })
    payloads;
  (* Disconnect after the first fragment's 80 ms serialisation: the
     rest of the packet is swallowed in flight. *)
  ignore
    (Simulator.schedule_after sim ~delay:(Simtime.span_ms 90) (fun () ->
         Wireless_link.set_blackout link true));
  Simulator.run sim;
  Alcotest.(check (list int)) "nothing delivered" [] !delivered;
  Alcotest.(check int) "partial purged" 0 (Reassembly.pending r);
  Alcotest.(check int) "failure counted" 1 (Reassembly.stats r).Reassembly.failures;
  (* A fresh packet after the loss still reassembles. *)
  Wireless_link.set_blackout link false;
  List.iteri
    (fun i payload -> Wireless_link.send link { Frame.seq = 100 + i; payload })
    (Fragmenter.split ~mtu:128 (mk_data ~id:4 ~len:536 ()));
  Simulator.run sim;
  Alcotest.(check (list int)) "recovers after the loss" [ 4 ] !delivered

let test_arq_crash_reclaims_slots () =
  let rig = make_rig ~rt_max:20 ~window:2 () in
  let link = rig.down in
  Wireless_link.set_blackout link true;
  send_packets rig 6;
  Simulator.run ~until:(Simtime.of_ns 500_000_000) rig.sim;
  Alcotest.(check int) "window full pre-crash" 2 (Arq.in_flight rig.arq);
  Alcotest.(check int) "backlog pre-crash" 4 (Arq.backlog rig.arq);
  let dropped = Arq.crash rig.arq in
  Alcotest.(check int) "all queued state dropped" 6 dropped;
  Alcotest.(check int) "no in-flight after crash" 0 (Arq.in_flight rig.arq);
  Alcotest.(check int) "no backlog after crash" 0 (Arq.backlog rig.arq);
  Alcotest.(check bool) "idle after crash" true (Arq.idle rig.arq);
  Arq.check_invariants rig.arq;
  let stats = Arq.stats rig.arq in
  Alcotest.(check int) "crash counted" 1 stats.Arq.crashes;
  Alcotest.(check int) "dropped tally" 6 stats.Arq.crash_dropped;
  (* The rebooted sender works: new traffic completes end to end. *)
  Wireless_link.set_blackout link false;
  for i = 10 to 12 do
    ignore (Arq.send rig.arq ~conn:0 (Frame.Whole (mk_data ~id:i ~len:88 ())))
  done;
  Simulator.run rig.sim;
  Arq.check_invariants rig.arq;
  Alcotest.(check (list int)) "post-crash traffic delivered" [ 10; 11; 12 ]
    (List.rev !(rig.delivered));
  Alcotest.(check bool) "idle again" true (Arq.idle rig.arq)

let test_arq_crash_ignores_stale_acks () =
  let rig = make_rig ~window:4 () in
  send_packets rig 2;
  (* Crash while both frames are still serialising. *)
  let dropped = Arq.crash rig.arq in
  Alcotest.(check int) "both dropped" 2 dropped;
  Simulator.run rig.sim;
  Arq.check_invariants rig.arq;
  (* The receiver's acks for pre-crash frames are spurious, not fatal. *)
  let stats = Arq.stats rig.arq in
  Alcotest.(check int) "no completions for dropped frames" 0 stats.Arq.completions;
  Alcotest.(check bool) "stale acks counted spurious" true
    (stats.Arq.spurious_acks >= 1);
  Alcotest.(check bool) "idle" true (Arq.idle rig.arq)

let test_reassembly_crash_drops_partials () =
  let sim = Simulator.create () in
  let r, delivered = reassembler ~timeout:(sec 5.0) sim in
  let frags pkt = Fragmenter.split ~mtu:128 pkt in
  (* Two partial packets in the buffer. *)
  (match frags (mk_data ~id:1 ~len:536 ()) with
  | first :: _ -> Reassembly.receive r first
  | [] -> Alcotest.fail "no fragments");
  (match frags (mk_data ~id:2 ~len:536 ()) with
  | first :: _ -> Reassembly.receive r first
  | [] -> Alcotest.fail "no fragments");
  Alcotest.(check int) "two partials" 2 (Reassembly.pending r);
  let lost = Reassembly.crash r in
  Alcotest.(check int) "both lost" 2 lost;
  Alcotest.(check int) "buffer empty" 0 (Reassembly.pending r);
  Alcotest.(check int) "failures counted" 2 (Reassembly.stats r).Reassembly.failures;
  (* No pending purge timers fire later, and new packets reassemble. *)
  List.iter (Reassembly.receive r) (frags (mk_data ~id:3 ~len:536 ()));
  Simulator.run sim;
  Alcotest.(check (list int)) "post-crash delivery" [ 3 ] !delivered

let test_receiver_link_acks_routed () =
  let sim = Simulator.create () in
  let acked = ref [] in
  let receiver =
    Arq_receiver.create sim
      ~on_link_ack:(fun ~acked_seq -> acked := acked_seq :: !acked)
      ~deliver:(fun _ -> ())
      ()
  in
  Arq_receiver.receive receiver
    { Frame.seq = 0; payload = Frame.Link_ack { acked_seq = 17 } };
  Alcotest.(check (list int)) "routed to the ARQ" [ 17 ] !acked

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "linklayer"
    [
      ( "frame",
        [
          Alcotest.test_case "bytes" `Quick test_frame_bytes;
          Alcotest.test_case "accessors" `Quick test_frame_accessors;
        ] );
      ( "fragmenter",
        [
          Alcotest.test_case "count" `Quick test_fragment_count;
          Alcotest.test_case "whole" `Quick test_split_whole;
          Alcotest.test_case "sizes" `Quick test_split_sizes;
          Alcotest.test_case "bad mtu" `Quick test_split_rejects_bad_mtu;
          qc prop_split_conserves_bytes;
          qc prop_split_indices;
        ] );
      ( "reassembly",
        [
          Alcotest.test_case "whole immediate" `Quick test_reassembly_whole_immediate;
          Alcotest.test_case "complete" `Quick test_reassembly_complete;
          Alcotest.test_case "out of order" `Quick test_reassembly_out_of_order;
          Alcotest.test_case "duplicates" `Quick test_reassembly_duplicates_ignored;
          Alcotest.test_case "timeout purges" `Quick test_reassembly_timeout_purges;
          Alcotest.test_case "rejects acks" `Quick test_reassembly_rejects_acks;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "uniform range" `Quick test_backoff_uniform_range;
          Alcotest.test_case "binexp growth" `Quick test_backoff_binexp_window_growth;
          Alcotest.test_case "bad attempt" `Quick test_backoff_rejects_bad_attempt;
          qc prop_backoff_within_window;
        ] );
      ( "sched",
        [
          Alcotest.test_case "fifo order" `Quick test_sched_fifo_order;
          Alcotest.test_case "round robin" `Quick test_sched_round_robin_alternates;
          Alcotest.test_case "skips empty" `Quick test_sched_round_robin_skips_empty;
          Alcotest.test_case "push front" `Quick test_sched_push_front;
          Alcotest.test_case "capacity per lane" `Quick test_sched_capacity_per_lane;
        ] );
      ( "wireless_link",
        [
          Alcotest.test_case "airtime overhead" `Quick test_wireless_airtime_overhead;
          Alcotest.test_case "delivery" `Quick test_wireless_delivery;
          Alcotest.test_case "bad state loses" `Quick test_wireless_bad_state_loses;
          Alcotest.test_case "frame sent hook" `Quick test_wireless_frame_sent_hook;
        ] );
      ( "arq",
        [
          Alcotest.test_case "clean delivery in order" `Quick
            test_arq_delivers_in_order_clean;
          Alcotest.test_case "recovers from fade" `Quick test_arq_recovers_from_fade;
          Alcotest.test_case "discards after rt_max" `Quick
            test_arq_discards_after_rt_max;
          Alcotest.test_case "attempt failure hook" `Quick
            test_arq_attempt_failure_hook_counts;
          Alcotest.test_case "window bounds in-flight" `Quick
            test_arq_window_limits_inflight;
          Alcotest.test_case "spurious ack" `Quick test_arq_spurious_ack_counted;
          Alcotest.test_case "early link ack deferred" `Quick
            test_arq_early_link_ack_deferred;
          Alcotest.test_case "completing link ack allocates nothing" `Quick
            test_arq_link_ack_allocates_nothing;
        ] );
      ( "fault hooks",
        [
          Alcotest.test_case "blackout swallows frames" `Quick
            test_wireless_blackout_swallows;
          Alcotest.test_case "discard at rt_max=13" `Quick
            test_arq_discard_at_rt_max_13;
          qc prop_arq_discard_any_rt_max;
          Alcotest.test_case "reassembly timeout under frame loss" `Quick
            test_reassembly_timeout_under_frame_loss;
          Alcotest.test_case "arq crash reclaims slots" `Quick
            test_arq_crash_reclaims_slots;
          Alcotest.test_case "arq crash ignores stale acks" `Quick
            test_arq_crash_ignores_stale_acks;
          Alcotest.test_case "reassembly crash drops partials" `Quick
            test_reassembly_crash_drops_partials;
        ] );
      ( "arq_receiver",
        [
          Alcotest.test_case "resequences" `Quick test_receiver_resequences;
          Alcotest.test_case "hole timeout flushes" `Quick
            test_receiver_hole_timeout_flushes;
          Alcotest.test_case "duplicates" `Quick test_receiver_duplicates;
          Alcotest.test_case "dedup mode" `Quick test_receiver_dedup_mode;
          Alcotest.test_case "link acks routed" `Quick test_receiver_link_acks_routed;
        ] );
    ]
