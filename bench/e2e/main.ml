(* The end-to-end benchmark: one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick 0|1]

   The untraced run ([--trace 0]) prints the end-to-end metrics; the
   traced run ([--trace 1]) runs the same passes again with spans on,
   drives each layer once, and prints the per-layer metrics.  Either
   way the last line of stdout is one JSON object with [correct],
   [attempted], [failed] and [metrics]; a report for people goes to
   stderr.  Every input is generated from [--seed]; see README.md for
   why each workload exists. *)

open Core

let now_ns = Spans.now_ns
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  quick : bool;  (** tiny sizes for the smoke run; timings meaningless *)
}

let workloads = [ "wan-ebsn"; "lan-tcp"; "wan-checked"; "sweep"; "campaign" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") [--seed N] [--seconds S] [--trace 0|1] [--quick 0|1]");
  exit 2

let parse argv =
  let flag = function "0" -> Some false | "1" -> Some true | _ -> None in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem w workloads ->
      go { o with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { o with seed } rest
      | None -> usage ())
    | "--seconds" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seconds when seconds >= 1 -> go { o with seconds } rest
      | _ -> usage ())
    | "--trace" :: b :: rest -> (
      match flag b with Some trace -> go { o with trace } rest | None -> usage ())
    | "--quick" :: b :: rest -> (
      match flag b with Some quick -> go { o with quick } rest | None -> usage ())
    | _ -> usage ()
  in
  let o =
    go
      { workload = ""; seed = 1; seconds = 10; trace = false; quick = false }
      (List.tl (Array.to_list argv))
  in
  if o.workload = "" then usage ();
  o

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Printed by the untraced run.  BENCHMARK.json lists the same names
   and units; the smoke run in [dune runtest] checks they agree. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("cells_per_s", "cells/s");
    ("warm_cells_per_s", "cells/s");
    ("events_per_s", "events/s");
    ("run_p50_ms", "ms");
    ("run_p99_ms", "ms");
    ("minor_words_per_event", "words");
    ("peak_rss_mb", "MB");
  ]

(* Printed by the traced run; 0 where the workload does not exercise
   the layer. *)
let layer_metrics =
  [
    ("engine.events_per_run", "events");
    ("engine.queue.ops_per_event", "ops");
    ("engine.queue.cancel_frac", "ratio");
    ("engine.queue.near_pop_frac", "ratio");
    ("engine.queue.max_live", "events");
    ("engine.queue.ns_per_op", "ns");
    ("engine.timer.arms_per_event", "arms");
    ("engine.timer.fuse_frac", "ratio");
    ("engine.timer.stale_fires", "count");
    ("engine.est_ms_per_run", "ms");
    ("errors.frames_per_run", "frames");
    ("errors.frame_loss_frac", "ratio");
    ("errors.loss.ns_per_frame", "ns");
    ("errors.est_ms_per_run", "ms");
    ("linklayer.arq.tx_per_run", "frames");
    ("linklayer.arq.retx_frac", "ratio");
    ("linklayer.arq.attempt_failures", "count");
    ("linklayer.arq.discards", "count");
    ("linklayer.reassembly.failures", "count");
    ("linklayer.arq.ns_per_frame", "ns");
    ("tcp.packets_per_run", "packets");
    ("tcp.retx_frac", "ratio");
    ("tcp.timeouts_per_run", "count");
    ("tcp.fast_retx_per_run", "count");
  ]
  @ List.map
      (fun cc -> ("tcp.ns_per_ack." ^ Tcp_config.cc_name cc, "ns"))
      Tcp_config.all_ccs
  @ [
      ("feedback.ebsn_per_run", "count");
      ("feedback.ebsn_per_failure", "ratio");
      ("feedback.ebsn_delivered_frac", "ratio");
      ("obs.trace_bytes_per_event", "bytes");
      ("obs.cost_x", "ratio");
      ("topology.wiring_run_ms", "ms");
      ("topology.residual_ms", "ms");
      ("parallel.tasks", "count");
      ("parallel.chunks", "count");
      ("parallel.steals", "count");
      ("parallel.efficiency", "ratio");
      ("experiments.sweep_s", "s");
      ("experiments.codec_us", "us");
      ("cache.stores", "count");
      ("cache.misses", "count");
      ("cache.disk_hits", "count");
      ("cache.store_bytes", "bytes");
      ("cache.fingerprint_us", "us");
      ("cache.store_write_us", "us");
      ("cache.store_read_us", "us");
      ("supervise.retries", "count");
      ("supervise.deadline_hits", "count");
      ("supervise.backoff_ms", "ms");
      ("supervise.backoff_frac", "ratio");
      ("supervise.quarantined", "count");
      ("supervise.checkpoint_flushes", "count");
      ("supervise.resumed_cells", "count");
      ("supervise.manifest_append_us", "us");
      ("supervise.manifest_load_ms", "ms");
      ("trace_overhead_frac", "ratio");
    ]

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Correctness gates                                                   *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 10 then Printf.eprintf "FAILED: %s\n%!" what
  end

(* MD5 of every cell's measurement, in workload order, for the first
   pass at seed 1: pinned so that a change to what the simulator
   computes cannot pass as a speed-up.  (workload, quick, digest). *)
let pinned =
  [
    ("wan-ebsn", false, "5953606135a2df2c2b3c8b2c5305b8c5");
    ("lan-tcp", false, "1abaab15865a53e8dc2c99c93025d990");
    ("wan-checked", false, "3c4fc5c6748c523165ab668ccf5875a2");
    ("sweep", false, "cb9bfad01a11822bb9895d59ee1f49ed");
    ("campaign", false, "dab9edd3752db78ccaf1059e8b0fc227");
    ("wan-ebsn", true, "e56e143d872986aae51840724af3e68f");
    ("lan-tcp", true, "1586acc4ac95c275edae085a848d1c9c");
    ("wan-checked", true, "d0eae9e3c7fe9a9e92d1a119718d48ba");
    ("sweep", true, "ea6ece47bc9000e35e146f996f98584c");
    ("campaign", true, "45bc408f6d7d03d48415b71a9558cfb2");
  ]

let check_digest o measurements =
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list measurements))) in
  Printf.eprintf "digest (first pass, %d cells): %s\n%!" (Array.length measurements) digest;
  if o.seed = 1 then
    match List.find_opt (fun (w, q, _) -> w = o.workload && q = o.quick) pinned with
    | Some (_, _, pin) when pin <> digest ->
      Printf.eprintf "FAILED: seed-1 digest %s differs from the pinned %s\n%!" digest pin;
      exit 1
    | _ -> ()

(* A completed transfer: goodput in (0,1] and throughput within the
   wireless link's effective rate (the paper's tput_th). *)
let sound sc (o : Wiring.outcome) (m : Run.measurement) =
  o.Wiring.fault = None && m.Run.completed && m.Run.goodput > 0.0
  && m.Run.goodput <= 1.0
  && m.Run.throughput_bps <= Scenario.effective_wireless_bps sc

(* A chaos cell may degrade to the horizon, but must not fault or beat
   tput_th. *)
let sound_chaos sc (o : Wiring.outcome) (m : Run.measurement) =
  o.Wiring.fault = None && m.Run.throughput_bps <= Scenario.effective_wireless_bps sc

(* ------------------------------------------------------------------ *)
(* Host helpers                                                        *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some line -> (
          try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* Everything a run writes lives under [_e2e/] in the working
   directory; the per-process part is removed at exit. *)
let out_dir = "_e2e"
let work = Filename.concat out_dir (Printf.sprintf "run.%d" (Unix.getpid ()))

let work_dir name =
  let d = Filename.concat work name in
  rm_rf d;
  mkdir out_dir;
  mkdir work;
  mkdir d;
  d

let respawn_pool () =
  Parallel.Pool.shutdown ();
  ignore (Parallel.Pool.get ~jobs:2 ())

(* The two vCPUs of the shared reference host can differ in speed by a
   third, and which one is slower changes from minute to minute.  So a
   single-threaded measurement runs its [k]-th repeat on the [k]-th CPU
   in turn, and keeps the fastest repeat.  Start the pool only while
   unpinned: its domains inherit the caller's CPUs. *)
external pin : int -> bool = "e2e_pin"
external unpin : unit -> unit = "e2e_unpin"

let on_cpu k f =
  ignore (pin k);
  Fun.protect ~finally:unpin f

(* ------------------------------------------------------------------ *)
(* Running cells                                                       *)
(* ------------------------------------------------------------------ *)

type run = {
  m : string;  (** [Run.measurement_to_string] of the outcome *)
  events : int;
  t0 : int;
  t1 : int;
  counters : Counters.t;
  ok : bool;
  what : string;
}

(* One [Wiring.run], timed; [settle] records it. *)
let simulate ?faults ~obs ~sound sc =
  let t0 = now_ns () in
  match Wiring.run ~obs ?faults sc with
  | o ->
    let t1 = now_ns () in
    let m = Run.outcome_measurement o in
    {
      m = Run.measurement_to_string m;
      events = o.Wiring.events_executed;
      t0;
      t1;
      counters = Counters.of_outcome o;
      ok = sound sc o m;
      what = Scenario.describe sc;
    }
  | exception e ->
    {
      m = "";
      events = 0;
      t0;
      t1 = now_ns ();
      counters = Counters.zero;
      ok = false;
      what = Scenario.describe sc ^ " raised " ^ Printexc.to_string e;
    }

let settle ~cell r =
  Spans.record ~cell ~parent:(Spans.current ()) "topology.wiring_run"
    ~start_ns:r.t0 ~end_ns:r.t1;
  check r.ok r.what

let total_counters runs = Array.fold_left (fun c r -> Counters.add c r.counters) Counters.zero runs
let total_events runs = Array.fold_left (fun n r -> n + r.events) 0 runs

(* Repeated runs of the same cells: the first repeat's runs, and each
   cell's fastest time.  Host contention on a shared machine comes in
   bursts shorter than a pass and only ever adds time, so the fastest
   of a cell's runs is its steadiest time. *)
type repeats = { mutable first : run array option; mutable best : int array }

let repeats () = { first = None; best = [||] }

let note reps runs =
  match reps.first with
  | None ->
    reps.first <- Some runs;
    reps.best <- Array.map (fun r -> r.t1 - r.t0) runs
  | Some first ->
    check
      (Array.for_all2 (fun (a : run) (b : run) -> a.m = b.m) first runs)
      "a repeated pass gave different results";
    Array.iteri (fun i r -> reps.best.(i) <- min reps.best.(i) (r.t1 - r.t0)) runs

(* Every cell of a parallel workload run on its own, for the run times,
   events and counts the library's fan-outs do not expose.  The pool is
   shut down meanwhile: with two domains alive every minor collection
   stops both, and on a shared 2-vCPU host waiting for the other vCPU
   makes single-run times too noisy to compare. *)
let probe ~cpu reps simulate_cell cells =
  Parallel.Pool.shutdown ();
  on_cpu cpu (fun () ->
      Spans.within "bench.probe" (fun () ->
          let runs = Array.map simulate_cell cells in
          Array.iteri (fun cell r -> settle ~cell r) runs;
          note reps runs));
  ignore (Parallel.Pool.get ~jobs:2 ())

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = { events : int; wall_ns : int; words : float }

let setup_times = ref []

(* Set-up is timed several times through a run, on each CPU in turn:
   four times at the start and again before every cold pass, so that
   one burst of contention cannot cover every sample.  [setup_s] is the
   median, so work moved into set-up shows.  Returns the first set-up's
   result, and the set-up to repeat before each pass. *)
let timed_setup o f =
  let once k =
    Spans.within "bench.setup" (fun () ->
        let t0 = now_ns () in
        let r = on_cpu k f in
        setup_times := secs (now_ns () - t0) :: !setup_times;
        r)
  in
  let first = once 0 in
  for k = 1 to if o.quick then 0 else 3 do
    ignore (once k)
  done;
  (first, fun p -> ignore (once p))

(* [run_pass p] for cold passes p = 0, 1, ... over the same cells, each
   after [setup p]: at least three, then until [--seconds] have gone
   by (one in quick mode).  The traced run runs every pass twice,
   untraced and traced, alternating which goes first, and records the
   difference as the tracing overhead.  Returns the passes whose
   results the metrics use: untraced for the end-to-end run, traced
   for the per-layer run. *)
let cold o ~setup run_pass =
  let plain = ref 0 and spanned = ref 0 and results = ref [] in
  let stop = now_ns () + (o.seconds * 1_000_000_000) in
  let next = ref 0 in
  while !next < (if o.quick then 1 else 3) || ((not o.quick) && now_ns () < stop) do
    let p = !next in
    incr next;
    if not o.quick then setup p;
    if not o.trace then results := run_pass p :: !results
    else begin
      let untraced () =
        Spans.enabled := false;
        let ((pass, _) as r) = run_pass p in
        Spans.enabled := true;
        plain := !plain + pass.wall_ns;
        r
      in
      let traced () =
        let ((pass, _) as r) = Spans.within "bench.pass" (fun () -> run_pass p) in
        spanned := !spanned + pass.wall_ns;
        r
      in
      if p mod 2 = 0 then begin
        ignore (untraced ());
        results := traced () :: !results
      end
      else begin
        results := traced () :: !results;
        ignore (untraced ())
      end
    end
  done;
  if o.trace then set "trace_overhead_frac" (ratio !spanned !plain -. 1.0);
  set "setup_s" (median !setup_times);
  List.rev !results

let rate n ns = float_of_int n /. (ns /. 1e9)
let fastest_wall passes = float_of_int (List.fold_left (fun a p -> min a p.wall_ns) max_int passes)

(* Cells and events per second, given the host ns the cells took. *)
let set_rates ~cells ~events ns =
  set "cells_per_s" (rate cells ns);
  set "events_per_s" (rate events ns)

let set_words passes =
  let words = List.fold_left (fun a p -> a +. p.words) 0.0 passes in
  let events = List.fold_left (fun a p -> a + p.events) 0 passes in
  set "minor_words_per_event" (words /. float_of_int (max 1 events))

let set_latency (lat_ns : int array) =
  let lat_ns = Array.copy lat_ns in
  Array.sort compare lat_ns;
  set "run_p50_ms" (float_of_int (percentile lat_ns 0.50) /. 1e6);
  set "run_p99_ms" (float_of_int (percentile lat_ns 0.99) /. 1e6);
  Printf.eprintf "run latency over %d runs: p50 %.3f ms, p99 %.3f ms\n%!"
    (Array.length lat_ns) (Hashtbl.find values "run_p50_ms") (Hashtbl.find values "run_p99_ms")

let report_passes ~cells passes =
  Printf.eprintf "cold: %d passes, cells/s %s\n%!" (List.length passes)
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.1f" (rate cells (float_of_int p.wall_ns))) passes))

let warm_reps o = if o.quick then 2 else 20

(* Warm passes: the [cells] cold results replayed whole from the
   on-disk store; each replay must return [expected].  Reports the
   fastest replay. *)
let warm_passes ~reps ~label ~cells ~expected replay =
  let walls =
    List.init reps (fun k ->
        Cache.memo_clear ();
        on_cpu k (fun () ->
            let t0 = now_ns () in
            let got = Spans.within label replay in
            let wall = now_ns () - t0 in
            check (got = expected) (label ^ ": replay differs from the cold results");
            float_of_int wall))
  in
  set "warm_cells_per_s" (rate cells (List.fold_left Float.min infinity walls))

let store_size store =
  let s = Cache_store.stats ~dir:store in
  set "cache.stores" (float_of_int s.Cache_store.entries);
  set "cache.store_bytes" (float_of_int s.Cache_store.bytes)

(* Fill the store with the cold results, then [warm ()] replays them
   through [Cache] in mode [On], the memo emptied before each replay so
   every cell is read from disk. *)
let through_cache o ~store ~keys ~expected warm =
  Array.iteri (fun i key -> Cache_store.put ~dir:store ~key expected.(i)) keys;
  store_size store;
  Cache.set_dir store;
  Cache.set_mode Cache.On;
  let s0 = Cache.stats () in
  warm ();
  let s1 = Cache.stats () in
  Cache.set_mode Cache.Off;
  let per_replay n = float_of_int n /. float_of_int (warm_reps o) in
  set "cache.disk_hits" (per_replay (s1.Cache.disk_hits - s0.Cache.disk_hits));
  set "cache.misses" (per_replay (s1.Cache.misses - s0.Cache.misses));
  check (s1.Cache.misses = s0.Cache.misses) "warm replay missed the store"

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run)                                      *)
(* ------------------------------------------------------------------ *)

let uses_arq (sc : Scenario.t) =
  match sc.Scenario.scheme with
  | Scenario.Local_recovery | Scenario.Ebsn | Scenario.Quench -> true
  | Scenario.Basic | Scenario.Snoop | Scenario.Split -> false

(* Counts from one pass's cells, the layer drives sized from them, and
   the span self time of [Wiring.run]. *)
let layers o ~(c : Counters.t) ~(cells : Scenario.t array) ~(runs : run array) =
  let st = Random.State.make [| o.seed; 0x1a7e |] in
  let scale = if o.quick then 100 else 1 in
  let per_run n = ratio n c.runs in
  set "engine.events_per_run" (per_run c.events);
  let ops = c.q_adds + c.q_pops + c.q_cancels in
  set "engine.queue.ops_per_event" (ratio ops c.events);
  set "engine.queue.cancel_frac" (ratio c.q_cancels c.q_adds);
  set "engine.queue.near_pop_frac" (ratio c.q_near_pops c.q_pops);
  set "engine.queue.max_live" (float_of_int c.q_max);
  set "engine.timer.arms_per_event" (ratio c.t_arms c.events);
  set "engine.timer.fuse_frac" (ratio c.t_fuses c.t_arms);
  set "engine.timer.stale_fires" (float_of_int c.t_stale);
  let queue_ns =
    Drives.queue st ~live:c.q_max
      ~cancel_frac:(ratio c.q_cancels (c.q_cancels + c.q_pops))
      ~steps:(200_000 / scale)
  in
  set "engine.queue.ns_per_op" queue_ns;
  set "engine.est_ms_per_run" (queue_ns *. per_run ops /. 1e6);
  set "errors.frames_per_run" (per_run c.frames);
  set "errors.frame_loss_frac" (ratio c.frames_lost c.frames);
  let loss_ns =
    if c.frames = 0 then 0.0
    else
      Drives.loss st ~wireless:cells.(0).Scenario.wireless
        ~airtime_ns:(c.airtime_ns / c.frames) ~frames:(200_000 / scale)
  in
  set "errors.loss.ns_per_frame" loss_ns;
  set "errors.est_ms_per_run" (loss_ns *. per_run c.frames /. 1e6);
  set "linklayer.arq.tx_per_run" (per_run c.arq_tx);
  set "linklayer.arq.retx_frac" (ratio c.arq_retx c.arq_tx);
  set "linklayer.arq.attempt_failures" (float_of_int c.arq_failures);
  set "linklayer.arq.discards" (float_of_int c.arq_discards);
  set "linklayer.reassembly.failures" (float_of_int c.reasm_failures);
  (match Array.find_opt uses_arq cells with
  | Some sc when c.arq_tx > 0 ->
    let frame_bytes =
      match sc.Scenario.wireless.Scenario.mtu with
      | Some mtu -> mtu
      | None -> Tcp_config.packet_size sc.Scenario.tcp
    in
    set "linklayer.arq.ns_per_frame"
      (Drives.arq st ~scenario:sc ~frame_bytes ~frames:(20_000 / scale))
  | _ -> ());
  set "tcp.packets_per_run" (per_run c.tcp_packets);
  set "tcp.retx_frac" (ratio c.tcp_retx c.tcp_packets);
  set "tcp.timeouts_per_run" (per_run c.tcp_timeouts);
  set "tcp.fast_retx_per_run" (per_run c.tcp_fast_retx);
  let loss = Float.min 0.2 (ratio c.tcp_retx c.tcp_packets) in
  List.iter
    (fun cc ->
      let config = { cells.(0).Scenario.tcp with Tcp_config.cc } in
      set
        ("tcp.ns_per_ack." ^ Tcp_config.cc_name cc)
        (Drives.tcp st ~config ~loss ~segments:(20_000 / scale)))
    Tcp_config.all_ccs;
  set "feedback.ebsn_per_run" (per_run c.ebsn_sent);
  set "feedback.ebsn_per_failure" (ratio c.ebsn_sent c.arq_failures);
  set "feedback.ebsn_delivered_frac" (ratio c.ebsn_received c.ebsn_sent);
  set "obs.trace_bytes_per_event" (ratio c.trace_bytes c.events);
  let measurements =
    Array.of_list (List.filter_map (fun r -> Run.measurement_of_string r.m) (Array.to_list runs))
  in
  set "experiments.codec_us" (Drives.codec measurements);
  let sample = Array.sub cells 0 (min 2000 (Array.length cells)) in
  set "cache.fingerprint_us" (Drives.fingerprint sample);
  let write, read =
    Drives.store ~dir:(work_dir "drive-store")
      (Array.map (fun r -> r.m) (Array.sub runs 0 (min 1000 (Array.length runs))))
  in
  set "cache.store_write_us" write;
  set "cache.store_read_us" read;
  let spans = Spans.all () in
  let wiring =
    List.filter_map
      (fun s ->
        if s.Spans.name = "topology.wiring_run" then Some (s.Spans.end_ns - s.Spans.start_ns)
        else None)
      spans
  in
  let wiring_ms =
    float_of_int (List.fold_left ( + ) 0 wiring)
    /. float_of_int (max 1 (List.length wiring))
    /. 1e6
  in
  set "topology.wiring_run_ms" wiring_ms;
  set "topology.residual_ms"
    (wiring_ms -. Hashtbl.find values "engine.est_ms_per_run"
    -. Hashtbl.find values "errors.est_ms_per_run");
  Printf.eprintf "counted over %d runs: %d events (%.1f per run)\n%!" c.runs c.events
    (per_run c.events)

(* Self time per span name, the spans written as JSONL, and nesting
   checked: a child never leaves its parent. *)
let finish_trace o =
  let spans = Spans.all () in
  let path = Filename.concat out_dir (o.workload ^ ".spans.jsonl") in
  mkdir out_dir;
  Spans.write_jsonl path ~workload:o.workload spans;
  let escaping = Spans.escaping spans in
  check (escaping = []) (Printf.sprintf "%d spans leave their parent" (List.length escaping));
  Printf.eprintf "%d spans written to %s\nself time by span:\n" (List.length spans) path;
  List.iter
    (fun (name, n, ns) -> Printf.eprintf "  %-28s %7d spans %10.3f ms\n" name n (float_of_int ns /. 1e6))
    (Spans.self_times spans)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let warm_up f =
  for _ = 1 to 3 do
    ignore (f ())
  done

(* One client calling [Wiring.run] on each cell in turn (jobs=1). *)
let serial o ~obs ~gen ~warmup =
  let store = work_dir "store" in
  let cells, setup =
    timed_setup o (fun () ->
        let cells = gen (Random.State.make [| o.seed |]) in
        ignore (work_dir "store");
        warm_up (fun () -> Wiring.run ~obs warmup);
        cells)
  in
  let n = Array.length cells in
  let reps = repeats () in
  let run_pass p =
    on_cpu p (fun () ->
        let w0 = minor_words () in
        let t0 = now_ns () in
        let runs =
          Array.mapi
            (fun cell sc ->
              let r = simulate ~obs ~sound sc in
              settle ~cell r;
              r)
            cells
        in
        let wall_ns = now_ns () - t0 in
        note reps runs;
        ({ events = total_events runs; wall_ns; words = minor_words () -. w0 }, ()))
  in
  let passes = List.map fst (cold o ~setup run_pass) in
  let runs = Option.get reps.first in
  report_passes ~cells:n passes;
  check_digest o (Array.map (fun r -> r.m) runs);
  set_rates ~cells:n ~events:(total_events runs)
    (float_of_int (Array.fold_left ( + ) 0 reps.best));
  set_words passes;
  set_latency reps.best;
  let expected = Array.map (fun r -> r.m) runs in
  through_cache o ~store ~keys:(Array.map Fingerprint.key cells) ~expected (fun () ->
      let best = Array.make n max_int in
      for k = 1 to warm_reps o do
        Cache.memo_clear ();
        on_cpu k (fun () ->
            Spans.within "bench.warm" (fun () ->
                Array.iteri
                  (fun i sc ->
                    let t0 = now_ns () in
                    let m = Run.measure_cached sc in
                    best.(i) <- min best.(i) (now_ns () - t0);
                    check
                      (Run.measurement_to_string m = expected.(i))
                      "bench.warm: replay differs from the cold results")
                  cells))
      done;
      set "warm_cells_per_s" (rate n (float_of_int (Array.fold_left ( + ) 0 best))));
  if o.trace then begin
    if obs <> Obs.Config.off then begin
      (* What obs costs on these cells: the same pass with obs off. *)
      let t0 = now_ns () in
      Spans.within "drive.obs" (fun () ->
          Array.iter (fun sc -> ignore (Wiring.run ~obs:Obs.Config.off sc)) cells);
      set "obs.cost_x" (fastest_wall passes /. float_of_int (now_ns () - t0))
    end;
    layers o ~c:(total_counters runs) ~cells ~runs
  end

(* The figure-regeneration path: [Sweep.measurements_all] over a
   seed-drawn grid on the 2-domain pool, cache off.  Each pass first
   probes every cell once for its run time, events and counts. *)
let sweep o =
  let sizes, bads, replications =
    if o.quick then ([ 512 ], 2, 2) else (Array.to_list Gen.wan_sizes, 4, 12)
  in
  let store = work_dir "store" in
  let grid, setup =
    timed_setup o (fun () ->
        let grid = Gen.sweep_grid (Random.State.make [| o.seed |]) ~sizes ~bads in
        ignore (work_dir "store");
        respawn_pool ();
        warm_up (fun () -> Wiring.run (Scenario.wan ~scheme:Scenario.Ebsn ()));
        grid)
  in
  let cells =
    Array.concat
      (List.map
         (fun sc -> Array.of_list (List.map (Scenario.with_seed sc) (Sweep.seeds ~replications)))
         (Array.to_list grid))
  in
  let n = Array.length cells in
  let reps = repeats () in
  let sweep_once ~jobs () =
    Spans.within "experiments.sweep" (fun () ->
        Sweep.measurements_all ~replications ~jobs (Array.to_list grid))
  in
  let encode ms = Array.of_list (List.map Run.measurement_to_string (List.concat ms)) in
  let run_pass p =
    probe ~cpu:p reps (simulate ~obs:Obs.Config.off ~sound) cells;
    let runs = Option.get reps.first in
    let w0 = minor_words () and p0 = Parallel.Pool.stats () in
    let t0 = now_ns () in
    let got = sweep_once ~jobs:2 () in
    let wall_ns = now_ns () - t0 in
    check
      (encode got = Array.map (fun r -> r.m) runs)
      "sweep results differ from per-run simulation";
    ( { events = total_events runs; wall_ns; words = minor_words () -. w0 },
      (p0, Parallel.Pool.stats ()) )
  in
  let results = cold o ~setup run_pass in
  let passes = List.map fst results in
  let runs = Option.get reps.first in
  report_passes ~cells:n passes;
  check_digest o (Array.map (fun r -> r.m) runs);
  set_rates ~cells:n ~events:(total_events runs) (fastest_wall passes);
  set_words passes;
  set_latency reps.best;
  let expected = Array.map (fun r -> r.m) runs in
  through_cache o ~store ~keys:(Array.map Fingerprint.key cells) ~expected (fun () ->
      warm_passes ~reps:(warm_reps o) ~label:"bench.warm" ~cells:n ~expected (fun () ->
          encode (sweep_once ~jobs:2 ())));
  if o.trace then begin
    let pool f = median (List.map (fun (_, (a, b)) -> float_of_int (f b - f a)) results) in
    set "parallel.tasks" (pool (fun s -> s.Parallel.Pool.tasks));
    set "parallel.chunks" (pool (fun s -> s.Parallel.Pool.chunks));
    set "parallel.steals" (pool (fun s -> s.Parallel.Pool.steals));
    let sweep_s = fastest_wall passes /. 1e9 in
    set "experiments.sweep_s" sweep_s;
    let t0 = now_ns () in
    ignore (Spans.within "drive.parallel" (sweep_once ~jobs:1));
    set "parallel.efficiency" (secs (now_ns () - t0) /. (2.0 *. sweep_s));
    layers o ~c:(total_counters runs) ~cells ~runs
  end

(* Every ["events": N] of a chaos campaign's JSON report, in run order. *)
let json_events json =
  let key = "\"events\": " in
  let n = String.length json and k = String.length key in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if String.sub json i k <> key then go (i + 1) acc
    else begin
      let j = ref (i + k) in
      while !j < n && json.[!j] >= '0' && json.[!j] <= '9' do incr j done;
      go !j (int_of_string (String.sub json (i + k) (!j - i - k)) :: acc)
    end
  in
  go 0 []

(* A supervised chaos campaign on the 2-domain pool: cold passes into a
   fresh store, then resume passes that only read the store and the
   manifest.  Each pass first probes every cell once, as [sweep] does. *)
let campaign o =
  let plans = if o.quick then 24 else 1000 in
  let store = work_dir "store" in
  let (base_seed, specs), setup =
    timed_setup o (fun () ->
        let base_seed = Gen.campaign_base_seed (Random.State.make [| o.seed |]) in
        let specs =
          Spans.within "topology.scenario" (fun () ->
              Array.of_list (Chaos.specs ~plans ~base_seed ()))
        in
        ignore (work_dir "store");
        respawn_pool ();
        warm_up (fun () -> Chaos.run_spec ~check:false specs.(0));
        (base_seed, specs))
  in
  let reps = repeats () in
  let kind = Campaigns.Chaos { plans; base_seed; cc = None; check = false } in
  let options = ref Campaigns.default_options in
  let campaign_once ~jobs ~events () =
    ignore (work_dir "store");
    let w0 = minor_words () and p0 = Parallel.Pool.stats () and s0 = Supervisor.stats () in
    let t0 = now_ns () in
    let r =
      Spans.within "supervise.campaign" (fun () ->
          Campaigns.run ~jobs ~store_dir:store ~options:!options kind)
    in
    let wall_ns = now_ns () - t0 in
    ( { events; wall_ns; words = minor_words () -. w0 },
      (r, (p0, Parallel.Pool.stats ()), (s0, Supervisor.stats ())) )
  in
  let reference = ref None in
  let run_pass p =
    probe ~cpu:p reps
      (fun sp ->
        simulate ~faults:sp.Chaos.plan ~obs:Obs.Config.off ~sound:sound_chaos
          sp.Chaos.scenario)
      specs;
    let runs = Option.get reps.first in
    if !options.Campaigns.deadline = None then begin
      (* The deadline comes from this campaign's own cell sizes, so the
         largest 4% of cells (at least one) retry whatever the seed. *)
      let sizes = Array.map (fun (r : run) -> r.events) runs in
      Array.sort compare sizes;
      let deadline = max 1 sizes.(plans - 1 - max 1 (plans / 25)) in
      options := { !options with Campaigns.deadline = Some deadline };
      Printf.eprintf "campaign: %d plans from seed %d, deadline %d events\n%!" plans
        base_seed deadline
    end;
    let ((_, (r, _, _)) as result) = campaign_once ~jobs:2 ~events:(total_events runs) () in
    check
      (r.Campaigns.ok && r.Campaigns.total = plans && r.Campaigns.completed = plans
     && r.Campaigns.quarantined = 0 && not r.Campaigns.interrupted)
      "campaign did not settle every cell cleanly";
    (match !reference with
    | None ->
      reference := Some r;
      check
        (json_events (Option.value ~default:"" r.Campaigns.json)
        = Array.to_list (Array.map (fun (r : run) -> r.events) runs))
        "campaign cells differ from per-run simulation"
    | Some first ->
      check
        (r.Campaigns.rendered = first.Campaigns.rendered && r.Campaigns.json = first.Campaigns.json)
        "campaign report changed between passes");
    result
  in
  let results = cold o ~setup run_pass in
  let passes = List.map fst results in
  let runs = Option.get reps.first in
  report_passes ~cells:plans passes;
  check_digest o (Array.map (fun r -> r.m) runs);
  set_rates ~cells:plans ~events:(total_events runs) (fastest_wall passes);
  set_words passes;
  set_latency reps.best;
  store_size store;
  let report r = [| r.Campaigns.rendered; Option.value ~default:"" r.Campaigns.json |] in
  let s0 = Supervisor.stats () and c0 = Cache.stats () in
  (* Resuming a settled campaign runs no cell, so a resuming process
     never starts the pool. *)
  Parallel.Pool.shutdown ();
  warm_passes ~reps:(warm_reps o) ~label:"supervise.resume" ~cells:plans
    ~expected:(report (Option.get !reference))
    (fun () ->
      let r =
        Campaigns.run ~jobs:2 ~store_dir:store
          ~options:{ !options with Campaigns.resume = true }
          kind
      in
      check (r.Campaigns.resumed = plans) "resume re-simulated cells";
      report r);
  let s1 = Supervisor.stats () and c1 = Cache.stats () in
  let per_resume n = float_of_int n /. float_of_int (warm_reps o) in
  set "supervise.resumed_cells"
    (per_resume (s1.Supervisor.resumed_cells - s0.Supervisor.resumed_cells));
  set "cache.disk_hits" (Hashtbl.find values "supervise.resumed_cells");
  set "cache.misses" (per_resume (c1.Cache.misses - c0.Cache.misses));
  if o.trace then begin
    let per_pass f =
      median (List.map (fun (_, (_, _, (a, b))) -> float_of_int (f b - f a)) results)
    in
    set "supervise.retries" (per_pass (fun s -> s.Supervisor.retries));
    set "supervise.deadline_hits" (per_pass (fun s -> s.Supervisor.deadline_hits));
    set "supervise.backoff_ms" (per_pass (fun s -> s.Supervisor.backoff_ms));
    set "supervise.quarantined" (per_pass (fun s -> s.Supervisor.quarantined));
    set "supervise.checkpoint_flushes" (per_pass (fun s -> s.Supervisor.checkpoint_flushes));
    let cold_ms = fastest_wall passes /. 1e6 in
    set "supervise.backoff_frac" (Hashtbl.find values "supervise.backoff_ms" /. (2.0 *. cold_ms));
    let pool f = median (List.map (fun (_, (_, (a, b), _)) -> float_of_int (f b - f a)) results) in
    set "parallel.tasks" (pool (fun s -> s.Parallel.Pool.tasks));
    set "parallel.chunks" (pool (fun s -> s.Parallel.Pool.chunks));
    set "parallel.steals" (pool (fun s -> s.Parallel.Pool.steals));
    let single, _ =
      Spans.within "drive.parallel" (campaign_once ~jobs:1 ~events:(total_events runs))
    in
    set "parallel.efficiency" (float_of_int single.wall_ns /. 1e6 /. (2.0 *. cold_ms));
    let append_us, load_ms = Drives.manifest ~dir:(work_dir "drive-manifest") ~cells:plans in
    set "supervise.manifest_append_us" append_us;
    set "supervise.manifest_load_ms" load_ms;
    layers o ~c:(total_counters runs)
      ~cells:(Array.map (fun sp -> sp.Chaos.scenario) specs)
      ~runs
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit o =
  let metrics = if o.trace then layer_metrics else e2e_metrics in
  if not o.trace then
    List.iter
      (fun (name, _) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt values name) in
        check (Float.is_finite v && v > 0.0) (name ^ " was not measured"))
      metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_float (Option.value ~default:0.0 (Hashtbl.find_opt values name)))
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

let () =
  let o = parse Sys.argv in
  at_exit (fun () -> rm_rf work);
  Spans.enabled := o.trace;
  Printf.eprintf "workload %s, seed %d, %d s%s%s\n%!" o.workload o.seed o.seconds
    (if o.trace then ", traced" else "")
    (if o.quick then ", quick" else "");
  (match o.workload with
  | "wan-ebsn" ->
    serial o ~obs:Obs.Config.off
      ~gen:(Gen.wan_ebsn ?file_bytes:None ~n:(if o.quick then 14 else 1001))
      ~warmup:(Scenario.wan ~scheme:Scenario.Ebsn ())
  | "lan-tcp" ->
    serial o ~obs:Obs.Config.off
      ~gen:(Gen.lan_tcp ~n:(if o.quick then 10 else 1600))
      ~warmup:(Scenario.lan ())
  | "wan-checked" ->
    serial o ~obs:Obs.Config.all
      ~gen:(Gen.wan_ebsn ~file_bytes:32768 ~n:(if o.quick then 7 else 1050))
      ~warmup:(Scenario.wan ~scheme:Scenario.Ebsn ~file_bytes:32768 ())
  | "sweep" -> sweep o
  | _ -> campaign o);
  set "peak_rss_mb" (peak_rss_mb ());
  if o.trace then finish_trace o;
  emit o
