(* Layer drives for the traced run: short, seeded calls into one
   layer's public functions, sized from the workload's own counters,
   each timed as host ns (or us) per operation.  Multiplied by the
   workload's operation counts they estimate the time each layer takes
   inside a run; what the estimates leave out is reported as the
   residual. *)

open Core

let now_ns = Spans.now_ns

(* Host ns per operation of [f], which reports how many it did. *)
let per_op name f =
  Spans.within name (fun () ->
      let t0 = now_ns () in
      let ops = f () in
      float_of_int (now_ns () - t0) /. float_of_int (max 1 ops))

(* [Event_queue] add, cancel and pop at [live] pending events, with
   cancels taking [cancel_frac] of the removals as in the workload.
   Choices are drawn before the clock starts. *)
let queue st ~live ~cancel_frac ~steps =
  let live = max 1 live in
  let q = Event_queue.create () in
  let delay () = 1 + Random.State.int st 100_000_000 in
  let handles =
    Array.init live (fun slot -> Event_queue.add q ~time:(Simtime.of_ns (delay ())) slot)
  in
  let cancel = Array.init steps (fun _ -> Random.State.float st 1.0 < cancel_frac) in
  let victim = Array.init steps (fun _ -> Random.State.int st live) in
  let delays = Array.init steps (fun _ -> delay ()) in
  per_op "drive.engine" (fun () ->
      let now = ref 0 in
      for i = 0 to steps - 1 do
        let slot =
          if cancel.(i) then begin
            Event_queue.cancel q handles.(victim.(i));
            victim.(i)
          end
          else begin
            now := Event_queue.next_time_ns q;
            Event_queue.take_exn q
          end
        in
        handles.(slot) <- Event_queue.add q ~time:(Simtime.of_ns (!now + delays.(i))) slot
      done;
      2 * steps)

(* [Loss.frame_lost_in] for back-to-back frames of the workload's mean
   airtime over a Gilbert-Elliott channel with its parameters. *)
let loss st ~(wireless : Scenario.wireless) ~airtime_ns ~frames =
  let rng = Rng.create ~seed:(Random.State.bits st) in
  let channel =
    Gilbert_elliott.create ~rng:(Rng.split rng) ~mean_good:wireless.Scenario.mean_good
      ~mean_bad:wireless.Scenario.mean_bad
  in
  let decision = Loss.Stochastic (Rng.split rng) in
  let bits_per_sec =
    float_of_int (Units.bandwidth_to_bps wireless.Scenario.raw_bandwidth)
  in
  let airtime_ns = max 1 airtime_ns in
  per_op "drive.errors" (fun () ->
      let at = ref 0 in
      for _ = 1 to frames do
        let start = Simtime.of_ns !at in
        at := !at + airtime_ns;
        ignore
          (Loss.frame_lost_in decision wireless.Scenario.ber ~bits_per_sec ~channel
             ~start ~stop:(Simtime.of_ns !at))
      done;
      frames)

let data_packet ~id ~bytes =
  Packet.create ~id ~src:(Address.make 1) ~dst:(Address.make 2)
    ~kind:
      (Packet.Tcp_data { conn = 0; seq = id * bytes; length = max 1 (bytes - 40); is_retransmit = false })
    ~header_bytes:40 ~created:Simtime.zero

(* [Arq] over one [Wireless_link] on a fresh [Simulator], with the
   scenario's link and ARQ settings; the receiver acknowledges each
   delivered frame at once.  ns per ARQ transmission. *)
let arq st ~(scenario : Scenario.t) ~frame_bytes ~frames =
  let sim = Simulator.create ~seed:(Random.State.bits st) () in
  let rng = Simulator.rng sim in
  let w = scenario.Scenario.wireless in
  let channel =
    Gilbert_elliott.create ~rng:(Rng.split rng) ~mean_good:w.Scenario.mean_good
      ~mean_bad:w.Scenario.mean_bad
  in
  let config =
    {
      Wireless_link.bandwidth = w.Scenario.raw_bandwidth;
      delay = w.Scenario.delay;
      overhead_factor = w.Scenario.overhead_factor;
      ber = w.Scenario.ber;
      decision = Loss.Stochastic (Rng.split rng);
    }
  in
  let link =
    Wireless_link.create sim ~name:"drive" ~config
      ~channel_for:(fun _ -> channel)
      ~queue_capacity:scenario.Scenario.frame_queue_capacity
  in
  let arq = Arq.create sim ~rng:(Rng.split rng) ~config:scenario.Scenario.arq ~link in
  Wireless_link.set_receiver link (fun frame ->
      Arq.handle_link_ack arq ~acked_seq:frame.Frame.seq);
  per_op "drive.linklayer" (fun () ->
      let sent = ref 0 in
      while !sent < frames do
        if Arq.backlog arq < 16 then begin
          ignore (Arq.send arq ~conn:0 (Frame.Whole (data_packet ~id:!sent ~bytes:frame_bytes)));
          incr sent
        end
        else ignore (Simulator.step sim)
      done;
      Simulator.run sim;
      (Arq.stats arq).Arq.transmissions)

(* [Tcp_sender.handle_ack] for one cc over a loopback: each data
   segment the sender transmits is either dropped (share [loss]) or
   acknowledged cumulatively by a receiver that keeps only in-order
   data; the simulator steps only when the sender waits on its
   retransmission timer.  ns per ack handled. *)
let tcp st ~(config : Tcp_config.t) ~loss ~segments =
  let sim = Simulator.create ~seed:(Random.State.bits st) () in
  let drops = Array.init 4096 (fun _ -> Random.State.float st 1.0 < loss) in
  let wire = Queue.create () in
  let ids = Ids.create () in
  let sender =
    Tcp_sender.create sim ~config ~conn:0 ~src:(Address.make 0) ~dst:(Address.make 2)
      ~total_bytes:(segments * config.Tcp_config.mss)
      ~alloc_id:(fun () -> Ids.next ids)
      ~transmit:(fun p -> Queue.push p wire)
  in
  per_op
    ("drive.tcp." ^ Tcp_config.cc_name config.Tcp_config.cc)
    (fun () ->
      Tcp_sender.start sender;
      let rcv_nxt = ref 0 and acks = ref 0 and sent = ref 0 in
      while not (Tcp_sender.completed sender) do
        match Queue.take_opt wire with
        | Some { Packet.kind = Packet.Tcp_data { seq; length; _ }; _ } ->
          incr sent;
          if not drops.(!sent land 4095) then begin
            if seq = !rcv_nxt then rcv_nxt := seq + length;
            incr acks;
            Tcp_sender.handle_ack sender ~ack:!rcv_nxt
          end
        | Some _ -> ()
        | None -> if not (Simulator.step sim) then failwith "tcp drive stalled"
      done;
      !acks)

(* [Fingerprint.key] per scenario, in us. *)
let fingerprint scenarios =
  1e-3
  *. per_op "cache.fingerprint" (fun () ->
         Array.iter (fun sc -> ignore (Fingerprint.key sc)) scenarios;
         Array.length scenarios)

(* [Run.measurement_to_string] then [measurement_of_string] per
   measurement, in us. *)
let codec measurements =
  1e-3
  *. per_op "experiments.codec" (fun () ->
         Array.iter
           (fun m -> ignore (Run.measurement_of_string (Run.measurement_to_string m)))
           measurements;
         Array.length measurements)

(* The disk store's write then read of each payload, in us per op. *)
let store ~dir payloads =
  let keys = Array.mapi (fun i p -> Digest.to_hex (Digest.string (string_of_int i ^ p))) payloads in
  let write =
    per_op "drive.cache.write" (fun () ->
        Array.iteri (fun i p -> Cache_store.put ~dir ~key:keys.(i) p) payloads;
        Array.length payloads)
  in
  let read =
    per_op "drive.cache.read" (fun () ->
        Array.iter
          (fun key -> if Cache_store.get ~dir ~key = None then failwith "store drive: lost entry")
          keys;
        Array.length keys)
  in
  (1e-3 *. write, 1e-3 *. read)

(* A campaign manifest of [cells] done lines: us per append (flushed
   once, as one wave would be) and ms per load. *)
let manifest ~dir ~cells =
  let path = Campaign_manifest.path ~dir ~id:"drive" in
  let keys = Array.init cells (fun idx -> Digest.to_hex (Digest.string (string_of_int idx))) in
  let append =
    per_op "drive.supervise.append" (fun () ->
        let m = Campaign_manifest.create ~path ~id:"drive" ~spec:"drive" ~cells in
        Array.iteri
          (fun idx key -> Campaign_manifest.append m ~idx (Campaign_manifest.Done { key }))
          keys;
        Campaign_manifest.flush m;
        Campaign_manifest.close m;
        cells)
  in
  let load =
    per_op "drive.supervise.load" (fun () ->
        (match Campaign_manifest.load ~path with
        | Ok _ -> ()
        | Error e -> failwith ("manifest drive: " ^ e));
        1)
  in
  (1e-3 *. append, 1e-6 *. load)
