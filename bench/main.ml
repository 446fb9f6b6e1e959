(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation plus the ablations from DESIGN.md.

   Usage: main.exe [target ...] [reps=N] [jobs=N] [csv=DIR] [check=0|1]
          [trace=PATH] [metrics=PATH] [plans=N]

   With csv=DIR each figure target also writes its data as
   DIR/<figure>.csv for external plotting.  jobs=N fans the
   replications of every sweep point across N OCaml domains (default:
   the host's recommended domain count minus one, at least 1); the
   seed schedule is unchanged, so output is byte-identical at any N.
   check=1 runs every simulation under the runtime invariant
   checkers; trace=PATH and metrics=PATH make the `obs` target write
   its structured trace and metrics output to files.

   Targets: figs (Figures 3-5), fig7, fig8, fig9, fig10, fig11,
   advisor (the §4.1 packet-size table), goodput, ablation-schemes,
   ablation-quench, ablation-tick, ablation-rtmax, ablation-window,
   ablation-window-tcp, ablation-rearm, ablation-pacing,
   ablation-cc, ablation-cc-table, ablation-delack, ablation-congestion,
   ablation-sched, ablation-handoff, micro (Bechamel engine
   micro-benchmarks), parallel (sequential vs parallel wall-clock of
   the fig7+fig10+fig11 battery on the persistent domain pool, plus
   pool spawn-once and byte-identity assertions, recorded in
   BENCH_parallel.json; jobs defaults to the host's recommended
   domain count for this target), engine (event-queue ops/sec and
   end-to-end events/sec vs the recorded pre-PR baseline under a
   minor-heap-size sweep, plus a fig7/fig10 byte-identity check,
   recorded in BENCH_engine.json),
   obs (observability determinism: trace+metrics byte-identical at
   any jobs=N), chaos (campaign of plans=N seeded fault plans under
   the invariant checkers, plus the empty-fault-plan byte-identity
   check, recorded in BENCH_chaos.json), cc (Tahoe-via-Cc fig7/fig10
   byte-identity gate at jobs=1 and jobs=N plus a per-variant goodput
   battery, recorded in BENCH_cc.json), cache (figure battery cold vs
   warm through the content-addressed replication cache, verify-mode
   replay of every hit, and the cc-table memo-dedup proof, recorded
   in BENCH_cache.json).  No target runs everything. *)

let replications = ref 10
let jobs = ref (Core.Parallel.default_jobs ())

(* Whether jobs= was given explicitly: the `parallel` target sizes
   its fan-out from the host's recommended domain count when it
   wasn't, so BENCH_parallel.json reflects the hardware rather than a
   hard-coded job count. *)
let jobs_set = ref false
let csv_dir : string option ref = ref None
let check = ref false
let trace_path : string option ref = ref None
let metrics_path : string option ref = ref None
let plans = ref 50

let write_csv name contents =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path

let section body =
  print_newline ();
  print_endline body

(* ------------------------------------------------------------------ *)
(* Paper figures                                                       *)
(* ------------------------------------------------------------------ *)

let figs () = section (Core.Fig_traces.render_all ())

let fig7 () =
  section (Core.Fig7.render ~replications:!replications ~jobs:!jobs ());
  if !csv_dir <> None then
    write_csv "fig7"
      (Core.Wan_sweep.to_csv
         (Core.Fig7.compute ~replications:!replications ~jobs:!jobs ()))

let fig8 () =
  section (Core.Fig8.render ~replications:!replications ~jobs:!jobs ());
  if !csv_dir <> None then
    write_csv "fig8"
      (Core.Wan_sweep.to_csv
         (Core.Fig8.compute ~replications:!replications ~jobs:!jobs ()))

let fig9 () =
  section (Core.Fig9.render ~replications:!replications ~jobs:!jobs ());
  if !csv_dir <> None then begin
    write_csv "fig9a"
      (Core.Wan_sweep.to_csv
         (Core.Fig9.compute_basic ~replications:!replications ~jobs:!jobs ()));
    write_csv "fig9b"
      (Core.Wan_sweep.to_csv
         (Core.Fig9.compute_ebsn ~replications:!replications ~jobs:!jobs ()))
  end

let fig10 () =
  section (Core.Fig10.render ~replications:!replications ~jobs:!jobs ());
  if !csv_dir <> None then begin
    let basic, ebsn =
      Core.Fig10.compute ~replications:!replications ~jobs:!jobs ()
    in
    write_csv "fig10" (Core.Lan_sweep.to_csv [ basic; ebsn ])
  end

let fig11 () =
  section (Core.Fig11.render ~replications:!replications ~jobs:!jobs ());
  if !csv_dir <> None then begin
    let basic, ebsn =
      Core.Fig11.compute ~replications:!replications ~jobs:!jobs ()
    in
    write_csv "fig11" (Core.Lan_sweep.to_csv [ basic; ebsn ])
  end

let advisor () =
  let table =
    Core.Packet_size_advisor.build_table ~replications:!replications
      ~jobs:!jobs ~mean_bad_secs:[ 1.0; 2.0; 3.0; 4.0 ] ()
  in
  let rows =
    List.map
      (fun e ->
        [
          Printf.sprintf "%.0f" e.Core.Packet_size_advisor.mean_bad_sec;
          string_of_int e.Core.Packet_size_advisor.best_size;
          Core.Report.kbps e.Core.Packet_size_advisor.best_throughput_bps;
          Printf.sprintf "%+.0f%%"
            (100.0 *. e.Core.Packet_size_advisor.gain_over_worst);
        ])
      table
  in
  section
    (String.concat "\n"
       [
         Core.Report.heading
           "§4.1 — base-station packet-size table (basic TCP, wide area)";
         Core.Report.table
           ~columns:
             [ "bad period (s)"; "best size (B)"; "tput kbps"; "vs worst" ]
           ~rows;
         Core.Report.note
           "the paper's proposed fixed lookup table: error characteristic \
            -> good packet size";
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let r () = !replications
let j () = !jobs

let ablation_schemes () =
  section (Core.Ablations.schemes ~replications:(r ()) ~jobs:(j ()) ())

let ablation_quench () =
  section (Core.Ablations.quench ~replications:(r ()) ~jobs:(j ()) ())

let ablation_tick () =
  section (Core.Ablations.tick_granularity ~replications:(r ()) ~jobs:(j ()) ())

let ablation_rtmax () =
  section (Core.Ablations.rt_max ~replications:(r ()) ~jobs:(j ()) ())

let ablation_window () =
  section (Core.Ablations.arq_window ~replications:(r ()) ~jobs:(j ()) ())

let ablation_pacing () =
  section (Core.Ablations.ebsn_pacing ~replications:(r ()) ~jobs:(j ()) ())

let ablation_tcp_window () =
  section (Core.Ablations.tcp_window ~replications:(r ()) ~jobs:(j ()) ())

let goodput () =
  section
    (String.concat "\n\n"
       [
         Core.Wan_sweep.render_metric
           ~title:"Goodput vs packet size — basic TCP (wide area)"
           ~note:"paper metric: useful data delivered / data transmitted"
           ~unit_label:"goodput (fraction, mean over replications)"
           (Core.Wan_sweep.compute ~replications:!replications ~jobs:!jobs
              ~scheme:Core.Scenario.Basic ~metric:Core.Sweep.goodput ());
         Core.Wan_sweep.render_metric
           ~title:"Goodput vs packet size — TCP with EBSN (wide area)"
           ~note:"paper: goodput with EBSN is ~100% at every size"
           ~unit_label:"goodput (fraction, mean over replications)"
           (Core.Wan_sweep.compute ~replications:!replications ~jobs:!jobs
              ~scheme:Core.Scenario.Ebsn ~metric:Core.Sweep.goodput ());
       ])

let ablation_rearm () =
  section (Core.Ablations.ebsn_rearm ~replications:(r ()) ~jobs:(j ()) ())

let ablation_cc () =
  section (Core.Ablations.cc ~replications:(r ()) ~jobs:(j ()) ())

let ablation_cc_table () =
  section (Core.Ablations.cc_table ~replications:(r ()) ~jobs:(j ()) ())

let ablation_delack () =
  section (Core.Ablations.delayed_ack ~replications:(r ()) ~jobs:(j ()) ())

let ablation_congestion () =
  section (Core.Ablations.congestion ~replications:(r ()) ~jobs:(j ()) ())

let ablation_sched () = section (Core.Csdp.render ~jobs:(j ()) ())
let ablation_handoff () = section (Core.Handoff.render ~jobs:(j ()) ())

(* ------------------------------------------------------------------ *)
(* Engine micro-benchmarks (Bechamel)                                  *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let event_queue_cycle =
    Test.make ~name:"event_queue add+pop (256 events)"
      (Staged.stage (fun () ->
           let q = Core.Event_queue.create () in
           for i = 0 to 255 do
             ignore (Core.Event_queue.add q ~time:(Core.Simtime.of_ns i) i)
           done;
           while Core.Event_queue.pop q <> None do
             ()
           done))
  in
  let channel_segments =
    let rng = Core.Rng.create ~seed:42 in
    let channel =
      Core.Gilbert_elliott.create ~rng
        ~mean_good:(Core.Simtime.span_sec 10.0)
        ~mean_bad:(Core.Simtime.span_sec 4.0)
    in
    let cursor = ref 0 in
    Test.make ~name:"gilbert-elliott segment query (100ms)"
      (Staged.stage (fun () ->
           let start = Core.Simtime.of_ns (!cursor * 100_000) in
           cursor := (!cursor + 1) mod 1_000_000;
           ignore
             (Core.Channel.segments channel ~start
                ~stop:(Core.Simtime.add start (Core.Simtime.span_ms 100)))))
  in
  let wan_run =
    let seed = ref 0 in
    Test.make ~name:"full WAN run (100KB, basic)"
      (Staged.stage (fun () ->
           incr seed;
           ignore
             (Core.Wiring.run
                (Core.Scenario.wan ~scheme:Core.Scenario.Basic ~seed:!seed ()))))
  in
  let rng_draws =
    let rng = Core.Rng.create ~seed:7 in
    Test.make ~name:"rng exponential draw"
      (Staged.stage (fun () -> ignore (Core.Rng.exponential rng ~mean:1.0)))
  in
  Test.make_grouped ~name:"micro"
    [ event_queue_cycle; channel_segments; wan_run; rng_draws ]

let micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) ->
          if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | Some [] | None -> "n/a"
      in
      rows := [ name; cell ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  section
    (String.concat "\n"
       [
         Core.Report.heading "Engine micro-benchmarks (Bechamel)";
         Core.Report.table ~columns:[ "benchmark"; "time/run" ] ~rows;
       ])

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel wall-clock                                   *)
(* ------------------------------------------------------------------ *)

(* Times the figure battery (fig7's 48 WAN points plus the fig10 and
   fig11 LAN sweeps, reps replications each) at jobs=1 and jobs=N on
   the persistent domain pool, checks the outputs are byte-identical,
   and records the speedup plus the pool's lifetime counters in
   BENCH_parallel.json so the perf trajectory is tracked across PRs.

   jobs=N defaults to the host's recommended domain count (not a
   hard-coded fan-out), and the speedup is recorded, never asserted:
   on a 1–2 core CI runner the honest number simply documents that
   parallelism cannot pay there.  What *is* asserted is correctness:
   byte-identity of the battery across jobs, and the pool's
   spawn-once property (total domains spawned <= jobs-1 for the whole
   process, via Parallel.Pool.stats). *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

(* The fig7+fig10+fig11 battery rendered as one string: the unit of
   work the parallel and cache targets time and compare byte for
   byte. *)
let figs_battery jobs =
  let fig7 =
    Core.Wan_sweep.to_csv
      (Core.Fig7.compute ~replications:!replications ~jobs ())
  in
  let basic10, ebsn10 =
    Core.Fig10.compute ~replications:!replications ~jobs ()
  in
  let basic11, ebsn11 =
    Core.Fig11.compute ~replications:!replications ~jobs ()
  in
  String.concat "\n"
    [
      fig7;
      Core.Lan_sweep.to_csv [ basic10; ebsn10 ];
      Core.Lan_sweep.to_csv [ basic11; ebsn11 ];
    ]

let parallel_bench () =
  let cores = Domain.recommended_domain_count () in
  let par_jobs = if !jobs_set then !jobs else Stdlib.max 1 cores in
  let seq_out, seq_sec = timed (fun () -> figs_battery 1) in
  let par_out, par_sec = timed (fun () -> figs_battery par_jobs) in
  let identical = seq_out = par_out in
  let speedup = if par_sec > 0.0 then seq_sec /. par_sec else 0.0 in
  let pool = Core.Parallel.Pool.stats () in
  (* Every pooled call in this process used at most
     max(!jobs, par_jobs) workers, so a persistent pool can never
     have spawned more helpers than that; a fresh-spawning regression
     trips this immediately (one spawn set per map call). *)
  let max_jobs = Stdlib.max !jobs par_jobs in
  let pool_ok =
    pool.Core.Parallel.Pool.domains_spawned <= Stdlib.max 0 (max_jobs - 1)
  in
  section
    (String.concat "\n"
       [
         Core.Report.heading
           "Parallel replication engine — wall-clock (persistent pool)";
         Core.Report.table
           ~columns:[ "config"; "wall-clock"; "speedup" ]
           ~rows:
             [
               [ "jobs=1"; Printf.sprintf "%.3f s" seq_sec; "1.00x" ];
               [
                 Printf.sprintf "jobs=%d" par_jobs;
                 Printf.sprintf "%.3f s" par_sec;
                 Printf.sprintf "%.2fx" speedup;
               ];
             ];
         Core.Report.note
           (Printf.sprintf
              "fig7+fig10+fig11 battery, reps=%d, %d recommended domain(s) \
               (map_array caps jobs there: domains beyond the core count \
               only stall each other's minor GCs); outputs byte-identical: \
               %b"
              !replications cores identical);
         Core.Report.note
           (Printf.sprintf
              "pool: %d domain(s) spawned this process (<= jobs-1: %b), %d \
               tasks in %d chunks (%d stolen) over %d batches"
              pool.Core.Parallel.Pool.domains_spawned pool_ok
              pool.Core.Parallel.Pool.tasks pool.Core.Parallel.Pool.chunks
              pool.Core.Parallel.Pool.steals
              pool.Core.Parallel.Pool.batches);
       ]);
  Core.Report.write_atomic ~path:"BENCH_parallel.json"
    (Printf.sprintf
       "{\n\
       \  \"target\": \"figs-battery\",\n\
       \  \"replications\": %d,\n\
       \  \"jobs\": %d,\n\
       \  \"recommended_domains\": %d,\n\
       \  \"sequential_sec\": %.3f,\n\
       \  \"parallel_sec\": %.3f,\n\
       \  \"speedup\": %.3f,\n\
       \  \"outputs_identical\": %b,\n\
       \  \"pool\": {\n\
       \    \"domains_spawned\": %d,\n\
       \    \"tasks\": %d,\n\
       \    \"steals\": %d,\n\
       \    \"chunks\": %d,\n\
       \    \"batches\": %d\n\
       \  }\n\
        }\n"
       !replications par_jobs cores seq_sec par_sec speedup identical
       pool.Core.Parallel.Pool.domains_spawned pool.Core.Parallel.Pool.tasks
       pool.Core.Parallel.Pool.steals pool.Core.Parallel.Pool.chunks
       pool.Core.Parallel.Pool.batches);
  print_endline "wrote BENCH_parallel.json";
  if not identical then
    prerr_endline "FAIL: parallel output differs from sequential";
  if not pool_ok then
    Printf.eprintf
      "FAIL: pool spawned %d domains, persistent pool allows at most %d\n"
      pool.Core.Parallel.Pool.domains_spawned
      (Stdlib.max 0 (max_jobs - 1));
  if not (identical && pool_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Engine hot path (BENCH_engine.json)                                 *)
(* ------------------------------------------------------------------ *)

(* Pre-PR baseline: wall-clock of the exact end-to-end batches below,
   measured on the reference machine at commit 17ccb7b (array-of-
   records binary heap, lazy deletion without compaction, untuned GC;
   best of 4 trials).  The simulation is deterministic, so the event
   totals of the batches are engine-independent: the recorded seconds
   reconstruct the pre-PR events/sec against today's event count. *)
let pre_pr_wan_sec = 0.4048
let pre_pr_lan_sec = 0.0982

(* MD5 of the fig7 / fig10 CSVs at reps=3, captured at the same
   commit (identical at jobs=1 and jobs=4).  The engine target fails
   hard if the rebuilt event queue ever reorders a single pop: ties
   are broken by insertion order, and that contract must survive any
   heap layout. *)
let pre_pr_fig7_md5 = "5964875618a07db07de4f4b01357197f"
let pre_pr_fig10_md5 = "6a785698082a6381fa59aac6710439b5"

(* Queue and cancel-fusion counters of the latest WAN batch, summed
   over its 100 replications.  Deterministic, so re-running the
   batch for timing leaves them unchanged. *)
let wan_queue_stats = ref None
let wan_timer_stats = ref None

let wan_batch () =
  let events = ref 0 in
  let qs = ref Core.Event_queue.{
      adds = 0; pops = 0; cancels = 0; max_size = 0; recycled = 0;
      near_pops = 0;
    }
  in
  let ts = Core.Soft_timer.create_counters () in
  for seed = 1 to 100 do
    let o = Core.Wiring.run (Core.Scenario.wan ~scheme:Core.Scenario.Ebsn ~seed ()) in
    events := !events + o.Core.Wiring.events_executed;
    let q = o.Core.Wiring.queue_stats in
    qs :=
      Core.Event_queue.{
        adds = !qs.adds + q.adds;
        pops = !qs.pops + q.pops;
        cancels = !qs.cancels + q.cancels;
        max_size = Stdlib.max !qs.max_size q.max_size;
        recycled = !qs.recycled + q.recycled;
        near_pops = 0;
      };
    let t = o.Core.Wiring.timer_stats in
    Core.Soft_timer.(
      ts.arms <- ts.arms + t.arms;
      ts.fuses <- ts.fuses + t.fuses;
      ts.lazy_cancels <- ts.lazy_cancels + t.lazy_cancels;
      ts.fires <- ts.fires + t.fires;
      ts.stale_fires <- ts.stale_fires + t.stale_fires;
      ts.chases <- ts.chases + t.chases)
  done;
  wan_queue_stats := Some !qs;
  wan_timer_stats := Some ts;
  !events

let lan_batch () =
  let events = ref 0 in
  for seed = 1 to 60 do
    let o =
      Core.Wiring.run
        (Core.Scenario.lan ~scheme:Core.Scenario.Ebsn
           ~file_bytes:(512 * 1024) ~seed ())
    in
    events := !events + o.Core.Wiring.events_executed
  done;
  !events

(* Best wall-clock over [trials] runs of [f]; returns (f's result,
   best seconds). *)
let timed_best trials f =
  let best = ref infinity in
  let result = ref 0 in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    result := f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (!result, !best)

(* Synthetic event-queue workloads at a steady live size, driven by a
   deterministic LCG so every run times the identical op sequence. *)
let queue_mix ~cancel_heavy ~live ~iters =
  let q = Core.Event_queue.create () in
  let state = ref 0x123456789 in
  let next_time () =
    (* The 48-bit LCG from POSIX drand48: deterministic, cheap, and
       spread well enough to exercise arbitrary sift paths. *)
    state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
    Core.Simtime.of_ns (!state land 0x3FFFFFFF)
  in
  let handles = Array.init live (fun i ->
      Core.Event_queue.add q ~time:(next_time ()) i)
  in
  let ops = ref 0 in
  let t0 = Unix.gettimeofday () in
  if cancel_heavy then
    (* The RTO pattern: every ACK re-arms the retransmission timer, so
       almost every scheduled event is cancelled before it can fire;
       one in 16 survives to pop (a genuine timeout / departure). *)
    for i = 0 to iters - 1 do
      let k = i mod live in
      Core.Event_queue.cancel q handles.(k);
      handles.(k) <- Core.Event_queue.add q ~time:(next_time ()) i;
      ops := !ops + 2;
      if i land 15 = 0 then begin
        (match Core.Event_queue.pop q with
        | Some (_, v) -> handles.(v mod live) <- Core.Event_queue.add q ~time:(next_time ()) v
        | None -> ());
        ops := !ops + 2
      end
    done
  else
    for i = 0 to iters - 1 do
      (match Core.Event_queue.pop q with Some _ -> () | None -> ());
      handles.(i mod live) <- Core.Event_queue.add q ~time:(next_time ()) i;
      ops := !ops + 2
    done;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int !ops /. dt

let engine_bench () =
  let trials = Stdlib.max 1 (Stdlib.min !replications 3) in
  (* 1. Event-queue ops/sec at several live sizes. *)
  let live_sizes = [ 256; 4096; 65536 ] in
  let queue_rows =
    List.concat_map
      (fun live ->
        let iters = 400_000 in
        let ap = queue_mix ~cancel_heavy:false ~live ~iters in
        let acp = queue_mix ~cancel_heavy:true ~live ~iters in
        [ ("add/pop", live, ap); ("add/cancel/pop", live, acp) ])
      live_sizes
  in
  (* 2. End-to-end simulator events/sec, WAN and LAN, at the
     runtime's default GC settings. *)
  ignore (wan_batch ()) (* warm up *);
  let wan_events, wan_sec = timed_best trials wan_batch in
  let lan_events, lan_sec = timed_best trials lan_batch in
  let eps events sec = float_of_int events /. sec in
  let wan_speedup = pre_pr_wan_sec /. wan_sec in
  let lan_speedup = pre_pr_lan_sec /. lan_sec in
  (* 3. Byte-identity safety net against the pre-PR engine. *)
  let fig7_csv jobs =
    Core.Wan_sweep.to_csv (Core.Fig7.compute ~replications:3 ~jobs ())
  in
  let fig10_csv jobs =
    let basic, ebsn = Core.Fig10.compute ~replications:3 ~jobs () in
    Core.Lan_sweep.to_csv [ basic; ebsn ]
  in
  let digest csv = Digest.to_hex (Digest.string csv) in
  let identity =
    [
      ("fig7", 1, digest (fig7_csv 1), pre_pr_fig7_md5);
      ("fig7", !jobs, digest (fig7_csv !jobs), pre_pr_fig7_md5);
      ("fig10", 1, digest (fig10_csv 1), pre_pr_fig10_md5);
      ("fig10", !jobs, digest (fig10_csv !jobs), pre_pr_fig10_md5);
    ]
  in
  let identical = List.for_all (fun (_, _, got, want) -> got = want) identity in
  section
    (String.concat "\n"
       [
         Core.Report.heading "Engine hot path — event-queue ops/sec";
         Core.Report.table
           ~columns:[ "mix"; "live size"; "Mops/s" ]
           ~rows:
             (List.map
                (fun (mix, live, ops) ->
                  [ mix; string_of_int live; Printf.sprintf "%.2f" (ops /. 1e6) ])
                queue_rows);
         "";
         Core.Report.heading "Engine hot path — end-to-end events/sec";
         Core.Report.table
           ~columns:
             [ "scenario"; "events"; "wall-clock"; "Mev/s"; "vs pre-PR" ]
           ~rows:
             [
               [
                 "wan (ebsn, 100 seeds)";
                 string_of_int wan_events;
                 Printf.sprintf "%.3f s" wan_sec;
                 Printf.sprintf "%.2f" (eps wan_events wan_sec /. 1e6);
                 Printf.sprintf "%.2fx" wan_speedup;
               ];
               [
                 "lan (ebsn, 60 seeds)";
                 string_of_int lan_events;
                 Printf.sprintf "%.3f s" lan_sec;
                 Printf.sprintf "%.2f" (eps lan_events lan_sec /. 1e6);
                 Printf.sprintf "%.2fx" lan_speedup;
               ];
             ];
         Core.Report.note
           (Printf.sprintf
              "fig7+fig10 byte-identical to pre-PR at jobs=1 and jobs=%d: %b"
              !jobs identical);
       ]);
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\n  \"target\": \"engine\",\n  \"queue_ops\": [\n";
  let n = List.length queue_rows in
  List.iteri
    (fun i (mix, live, ops) ->
      Printf.bprintf buf
        "    {\"mix\": %S, \"live\": %d, \"ops_per_sec\": %.0f}%s\n" mix live
        ops
        (if i = n - 1 then "" else ","))
    queue_rows;
  Printf.bprintf buf "  ],\n";
  let scenario_json name events sec pre_sec speedup =
    Printf.bprintf buf
      "  \"%s\": {\n\
      \    \"events\": %d,\n\
      \    \"sec\": %.4f,\n\
      \    \"events_per_sec\": %.0f,\n\
      \    \"pre_pr_sec\": %.4f,\n\
      \    \"pre_pr_events_per_sec\": %.0f,\n\
      \    \"speedup_vs_pre_pr\": %.3f\n\
      \  },\n"
      name events sec
      (eps events sec)
      pre_sec
      (eps events pre_sec)
      speedup
  in
  scenario_json "wan" wan_events wan_sec pre_pr_wan_sec wan_speedup;
  scenario_json "lan" lan_events lan_sec pre_pr_lan_sec lan_speedup;
  (* Lifetime engine counters summed over the 100-seed WAN batch:
     queue traffic, and how much timer churn the soft-timer layer
     absorbed without touching the queue. *)
  (match !wan_queue_stats with
  | Some s ->
    Printf.bprintf buf
      "  \"wan_queue\": {\"adds\": %d, \"pops\": %d, \"cancels\": %d, \
       \"recycled\": %d, \"max_size\": %d},\n"
      s.Core.Event_queue.adds s.Core.Event_queue.pops
      s.Core.Event_queue.cancels s.Core.Event_queue.recycled
      s.Core.Event_queue.max_size
  | None -> ());
  (match !wan_timer_stats with
  | Some t ->
    Printf.bprintf buf
      "  \"wan_timers\": {\"arms\": %d, \"fuses\": %d, \"lazy_cancels\": %d, \
       \"fires\": %d, \"stale_fires\": %d, \"chases\": %d},\n"
      t.Core.Soft_timer.arms t.Core.Soft_timer.fuses
      t.Core.Soft_timer.lazy_cancels t.Core.Soft_timer.fires
      t.Core.Soft_timer.stale_fires t.Core.Soft_timer.chases
  | None -> ());
  Printf.bprintf buf "  \"identity\": {\n    \"jobs\": [1, %d],\n" !jobs;
  Printf.bprintf buf "    \"fig7_md5\": %S,\n    \"fig10_md5\": %S,\n"
    pre_pr_fig7_md5 pre_pr_fig10_md5;
  Printf.bprintf buf "    \"identical_to_pre_pr\": %b\n  }\n}\n" identical;
  Core.Report.write_atomic ~path:"BENCH_engine.json" (Buffer.contents buf);
  print_endline "wrote BENCH_engine.json";
  if not identical then begin
    List.iter
      (fun (fig, jobs, got, want) ->
        if got <> want then
          Printf.eprintf "FAIL: %s at jobs=%d digests %s, pre-PR was %s\n" fig
            jobs got want)
      identity;
    prerr_endline "FAIL: engine output differs from the pre-PR engine";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Observability determinism                                           *)
(* ------------------------------------------------------------------ *)

(* Runs a handful of WAN and LAN scenarios with trace + metrics
   collection (and the invariant checkers when check=1), at jobs=1 and
   jobs=N, and fails if the observability output is not byte-identical
   — the same guarantee the parallel target gives for the figures. *)
let obs_bench () =
  let scenarios =
    List.concat_map
      (fun seed ->
        let tag name = Printf.sprintf "%s seed=%d" name seed in
        [
          (tag "wan-basic", Core.Scenario.wan ~scheme:Core.Scenario.Basic ~seed ());
          (tag "wan-ebsn", Core.Scenario.wan ~scheme:Core.Scenario.Ebsn ~seed ());
          ( tag "wan-local",
            Core.Scenario.wan ~scheme:Core.Scenario.Local_recovery ~seed () );
          ( tag "lan-basic",
            Core.Scenario.lan ~scheme:Core.Scenario.Basic
              ~file_bytes:(512 * 1024) ~seed () );
          ( tag "lan-ebsn",
            Core.Scenario.lan ~scheme:Core.Scenario.Ebsn
              ~file_bytes:(512 * 1024) ~seed () );
        ])
      [ 1; 2 ]
  in
  let obs =
    Core.Obs.Config.{ check = !check; trace = true; metrics = true }
  in
  let collect jobs =
    Core.Parallel.map ~jobs
      (fun (_, scenario) ->
        let o = Core.Wiring.run ~obs scenario in
        (o.Core.Wiring.obs_trace, o.Core.Wiring.obs_metrics))
      scenarios
  in
  let concat part results =
    String.concat ""
      (List.map2
         (fun (name, _) r ->
           Printf.sprintf "# %s\n%s" name (Option.value (part r) ~default:""))
         scenarios results)
  in
  let render results = (concat fst results, concat snd results) in
  let seq_trace, seq_metrics = render (collect 1) in
  let par_trace, par_metrics = render (collect !jobs) in
  let identical = seq_trace = par_trace && seq_metrics = par_metrics in
  let write label path contents =
    match path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s (%s)\n" path label
  in
  write "trace" !trace_path seq_trace;
  write "metrics" !metrics_path seq_metrics;
  section
    (String.concat "\n"
       [
         Core.Report.heading "Observability — determinism across domains";
         Core.Report.table
           ~columns:[ "output"; "bytes"; "identical jobs=1 vs jobs=N" ]
           ~rows:
             [
               [
                 "trace";
                 string_of_int (String.length seq_trace);
                 string_of_bool (seq_trace = par_trace);
               ];
               [
                 "metrics";
                 string_of_int (String.length seq_metrics);
                 string_of_bool (seq_metrics = par_metrics);
               ];
             ];
         Core.Report.note
           (Printf.sprintf "%d runs (WAN + LAN), jobs=%d, check=%b"
              (List.length scenarios) !jobs !check);
       ]);
  if not identical then begin
    prerr_endline "FAIL: observability output differs across jobs= settings";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Chaos campaign (BENCH_chaos.json)                                   *)
(* ------------------------------------------------------------------ *)

(* Runs plans=N seeded fault plans under the invariant checkers —
   every plan must end Clean (completed or degraded; never a fault or
   an uncaught exception) — and then re-derives the fig7 sweep with
   the *empty* fault plan installed as the process default: a no-op
   plan must leave the figures byte-identical to the pre-PR engine at
   jobs=1 and jobs=N, proving the injector perturbs nothing when it
   injects nothing. *)
let chaos_bench () =
  let results = Core.Chaos.campaign ~plans:!plans ~jobs:!jobs ~check:true () in
  let campaign_ok = Core.Chaos.ok results in
  (* The default plan is read by every Wiring.run that isn't given an
     explicit ~faults; set it before Fig7's domains spawn. *)
  Core.Fault_plan.set_default (Some Core.Fault_plan.empty);
  let fig7_csv jobs =
    Core.Wan_sweep.to_csv (Core.Fig7.compute ~replications:3 ~jobs ())
  in
  let md5_seq = Digest.to_hex (Digest.string (fig7_csv 1)) in
  let md5_par = Digest.to_hex (Digest.string (fig7_csv !jobs)) in
  Core.Fault_plan.set_default None;
  let identical = md5_seq = pre_pr_fig7_md5 && md5_par = pre_pr_fig7_md5 in
  section
    (String.concat "\n"
       [
         Core.Report.heading "Chaos — seeded fault-plan campaign (check=1)";
         Core.Chaos.render results
         ^ Core.Report.note
             (Printf.sprintf
                "empty fault plan byte-identical to a plain run (fig7 \
                 reps=3, jobs=1 and jobs=%d): %b"
                !jobs identical);
       ]);
  Core.Report.write_atomic ~path:"BENCH_chaos.json"
    (Core.Chaos.to_json
       ~extra:
         [
           ("jobs", string_of_int !jobs);
           ("empty_plan_fig7_md5_jobs1", Printf.sprintf "%S" md5_seq);
           ("empty_plan_fig7_md5_jobsN", Printf.sprintf "%S" md5_par);
           ("expected_fig7_md5", Printf.sprintf "%S" pre_pr_fig7_md5);
           ("empty_plan_identical", string_of_bool identical);
         ]
       results);
  print_endline "wrote BENCH_chaos.json";
  if not campaign_ok then
    prerr_endline "FAIL: chaos campaign had faulted or uncaught runs";
  if not identical then
    Printf.eprintf
      "FAIL: empty fault plan perturbed fig7 (jobs=1 %s, jobs=%d %s, want %s)\n"
      md5_seq !jobs md5_par pre_pr_fig7_md5;
  if not (campaign_ok && identical) then exit 1

(* ------------------------------------------------------------------ *)
(* Congestion-control battery (BENCH_cc.json)                          *)
(* ------------------------------------------------------------------ *)

(* The Cc-extraction acceptance gate: Tahoe expressed through the
   pluggable Cc interface must reproduce the pre-refactor fig7/fig10
   CSVs byte for byte, at jobs=1 and jobs=N.  On top of that, one
   short WAN run per variant (basic and EBSN) records the cross-CC
   goodput battery so a regression in any variant's state machine
   shows up as a numeric drift in BENCH_cc.json. *)
let cc_bench () =
  let fig7_csv jobs =
    Core.Wan_sweep.to_csv (Core.Fig7.compute ~replications:3 ~jobs ())
  in
  let fig10_csv jobs =
    let basic, ebsn = Core.Fig10.compute ~replications:3 ~jobs () in
    Core.Lan_sweep.to_csv [ basic; ebsn ]
  in
  let digest csv = Digest.to_hex (Digest.string csv) in
  let identity =
    [
      ("fig7", 1, digest (fig7_csv 1), pre_pr_fig7_md5);
      ("fig7", !jobs, digest (fig7_csv !jobs), pre_pr_fig7_md5);
      ("fig10", 1, digest (fig10_csv 1), pre_pr_fig10_md5);
      ("fig10", !jobs, digest (fig10_csv !jobs), pre_pr_fig10_md5);
    ]
  in
  let identical = List.for_all (fun (_, _, got, want) -> got = want) identity in
  (* Per-variant battery: one WAN scenario per (scheme, cc) cell. *)
  let ccs = Core.Tcp_config.all_ccs in
  let schemes = [ Core.Scenario.Basic; Core.Scenario.Ebsn ] in
  let cells =
    List.concat_map
      (fun scheme ->
        List.map
          (fun cc ->
            ( scheme,
              cc,
              Core.Scenario.with_cc
                (Core.Scenario.wan ~scheme ~mean_bad_sec:4.0 ())
                cc ))
          ccs)
      schemes
  in
  let measurements =
    Core.Sweep.measurements_all ~replications:3 ~jobs:!jobs
      (List.map (fun (_, _, s) -> s) cells)
  in
  let battery =
    List.map2
      (fun (scheme, cc, _) ms ->
        let mean metric =
          (Core.Summary.of_list (List.map metric ms)).Core.Summary.mean
        in
        ( Core.Scenario.scheme_name scheme,
          Core.Tcp_config.cc_name cc,
          mean Core.Sweep.throughput,
          mean Core.Sweep.goodput ))
      cells measurements
  in
  section
    (String.concat "\n"
       [
         Core.Report.heading
           "Congestion control — Tahoe-via-Cc identity + variant battery";
         Core.Report.table
           ~columns:[ "scheme"; "cc"; "tput kbps"; "goodput" ]
           ~rows:
             (List.map
                (fun (scheme, cc, tput, goodput) ->
                  [
                    scheme; cc; Core.Report.kbps tput;
                    Core.Report.fixed 3 goodput;
                  ])
                battery);
         Core.Report.note
           (Printf.sprintf
              "fig7+fig10 via the Cc interface byte-identical to pre-PR at \
               jobs=1 and jobs=%d: %b"
              !jobs identical);
       ]);
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\n  \"target\": \"cc\",\n";
  Printf.bprintf buf "  \"identity\": {\n    \"jobs\": [1, %d],\n" !jobs;
  Printf.bprintf buf "    \"fig7_md5\": %S,\n    \"fig10_md5\": %S,\n"
    pre_pr_fig7_md5 pre_pr_fig10_md5;
  Printf.bprintf buf "    \"identical_to_pre_pr\": %b\n  },\n" identical;
  Printf.bprintf buf "  \"battery\": [\n";
  let n = List.length battery in
  List.iteri
    (fun i (scheme, cc, tput, goodput) ->
      Printf.bprintf buf
        "    {\"scheme\": %S, \"cc\": %S, \"throughput_bps\": %.1f, \
         \"goodput\": %.4f}%s\n"
        scheme cc tput goodput
        (if i = n - 1 then "" else ","))
    battery;
  Printf.bprintf buf "  ]\n}\n";
  Core.Report.write_atomic ~path:"BENCH_cc.json" (Buffer.contents buf);
  print_endline "wrote BENCH_cc.json";
  if not identical then begin
    List.iter
      (fun (fig, jobs, got, want) ->
        if got <> want then
          Printf.eprintf "FAIL: %s at jobs=%d digests %s, pre-PR was %s\n" fig
            jobs got want)
      identity;
    prerr_endline "FAIL: Tahoe via the Cc interface drifted from pre-PR output";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Replication cache (BENCH_cache.json)                                *)
(* ------------------------------------------------------------------ *)

(* Times the figure battery with the content-addressed replication
   cache off, cold (empty store: every cell misses, simulates and is
   stored), warm from disk (fresh process memo, every cell a disk
   hit) and warm from the in-process memo, then replays the whole
   battery under verify mode (every hit re-simulated and compared
   byte for byte), and finally proves the cc cross table dedups the
   baseline cells it shares with the cc ablation via the memo
   counters.  Timings are recorded in BENCH_cache.json, never
   asserted — the speedup is whatever the host gives.  What *is*
   asserted is correctness: all battery outputs byte-identical, zero
   verify failures, and nonzero hit/dedup counts where hits are the
   point. *)
let cache_bench () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wtcp-bench-cache.%d" (Unix.getpid ()))
  in
  let fresh_counters () =
    Core.Cache.memo_clear ();
    Core.Cache.reset_stats ()
  in
  Core.Cache.set_dir dir;
  ignore (Core.Cache_store.clear ~dir);
  Core.Cache.set_mode Core.Cache.Off;
  let off_out, off_sec = timed (fun () -> figs_battery !jobs) in
  Core.Cache.set_mode Core.Cache.On;
  fresh_counters ();
  let cold_out, cold_sec = timed (fun () -> figs_battery !jobs) in
  let cold = Core.Cache.stats () in
  fresh_counters ();
  let disk_out, disk_sec = timed (fun () -> figs_battery !jobs) in
  let disk = Core.Cache.stats () in
  Core.Cache.reset_stats ();
  let memo_out, memo_sec = timed (fun () -> figs_battery !jobs) in
  let memo = Core.Cache.stats () in
  Core.Cache.set_mode Core.Cache.Verify;
  fresh_counters ();
  let verify_result =
    match timed (fun () -> figs_battery !jobs) with
    | out, sec -> Ok (out, sec)
    | exception Core.Cache.Verify_mismatch { key; _ } -> Error key
  in
  let verify = Core.Cache.stats () in
  (* Intra-invocation dedup proof: the cc cross table re-measures
     every (basic|ebsn) × cc cell the cc ablation just measured, so
     with a clean store those cells must come back as memo hits. *)
  Core.Cache.set_mode Core.Cache.On;
  ignore (Core.Cache_store.clear ~dir);
  fresh_counters ();
  ignore (Core.Ablations.cc ~replications:!replications ~jobs:!jobs ());
  let after_cc = Core.Cache.stats () in
  ignore (Core.Ablations.cc_table ~replications:!replications ~jobs:!jobs ());
  let after_table = Core.Cache.stats () in
  let shared_hits =
    after_table.Core.Cache.memo_hits - after_cc.Core.Cache.memo_hits
  in
  Core.Cache.set_mode Core.Cache.Off;
  Core.Cache.memo_clear ();
  ignore (Core.Cache_store.clear ~dir);
  Core.Cache.set_dir "_cache";
  let verify_ok_run, verify_sec =
    match verify_result with Ok (_, sec) -> (true, sec) | Error _ -> (false, 0.0)
  in
  let outputs_identical =
    off_out = cold_out && cold_out = disk_out && disk_out = memo_out
    && match verify_result with Ok (out, _) -> out = memo_out | Error _ -> false
  in
  let counters_ok =
    cold.Core.Cache.misses > 0
    && cold.Core.Cache.stores = cold.Core.Cache.misses
    && disk.Core.Cache.disk_hits > 0
    && disk.Core.Cache.misses = 0
    && memo.Core.Cache.memo_hits > 0
    && memo.Core.Cache.disk_hits = 0
    && memo.Core.Cache.misses = 0
    && verify.Core.Cache.verify_fail = 0
    && verify.Core.Cache.verify_ok > 0
    && shared_hits > 0
  in
  let speedup base sec = if sec > 0.0 then base /. sec else 0.0 in
  section
    (String.concat "\n"
       [
         Core.Report.heading
           "Replication cache — figure battery cold vs warm";
         Core.Report.table
           ~columns:[ "config"; "wall-clock"; "vs cold"; "hits"; "misses" ]
           ~rows:
             [
               [ "off"; Printf.sprintf "%.3f s" off_sec; "-"; "-"; "-" ];
               [
                 "cold (store+memo empty)";
                 Printf.sprintf "%.3f s" cold_sec;
                 "1.00x"; "0";
                 string_of_int cold.Core.Cache.misses;
               ];
               [
                 "warm (disk)";
                 Printf.sprintf "%.3f s" disk_sec;
                 Printf.sprintf "%.0fx" (speedup cold_sec disk_sec);
                 string_of_int disk.Core.Cache.disk_hits;
                 string_of_int disk.Core.Cache.misses;
               ];
               [
                 "warm (memo)";
                 Printf.sprintf "%.3f s" memo_sec;
                 Printf.sprintf "%.0fx" (speedup cold_sec memo_sec);
                 string_of_int memo.Core.Cache.memo_hits;
                 string_of_int memo.Core.Cache.misses;
               ];
               [
                 "verify (re-simulates hits)";
                 Printf.sprintf "%.3f s" verify_sec;
                 Printf.sprintf "%.2fx" (speedup cold_sec verify_sec);
                 string_of_int verify.Core.Cache.verify_ok;
                 string_of_int verify.Core.Cache.misses;
               ];
             ];
         Core.Report.note
           (Printf.sprintf
              "reps=%d jobs=%d; outputs byte-identical across all modes: %b; \
               verify divergences: %d"
              !replications !jobs outputs_identical
              verify.Core.Cache.verify_fail);
         Core.Report.note
           (Printf.sprintf
              "cc table dedup: ablation-cc stored %d cells, ablation-cc-table \
               then served %d of its cells from the in-process memo"
              after_cc.Core.Cache.stores shared_hits);
       ]);
  Core.Report.write_atomic ~path:"BENCH_cache.json"
    (Printf.sprintf
       "{\n\
       \  \"target\": \"cache\",\n\
       \  \"replications\": %d,\n\
       \  \"jobs\": %d,\n\
       \  \"engine_version\": %S,\n\
       \  \"off_sec\": %.3f,\n\
       \  \"cold_sec\": %.3f,\n\
       \  \"warm_disk_sec\": %.3f,\n\
       \  \"warm_memo_sec\": %.3f,\n\
       \  \"verify_sec\": %.3f,\n\
       \  \"warm_disk_speedup\": %.1f,\n\
       \  \"warm_memo_speedup\": %.1f,\n\
       \  \"cold\": {\"misses\": %d, \"stores\": %d},\n\
       \  \"warm_disk\": {\"disk_hits\": %d, \"misses\": %d},\n\
       \  \"warm_memo\": {\"memo_hits\": %d, \"misses\": %d},\n\
       \  \"verify\": {\"ok\": %d, \"fail\": %d, \"passed\": %b},\n\
       \  \"cc_table_memo_dedup\": %d,\n\
       \  \"outputs_identical\": %b\n\
        }\n"
       !replications !jobs Core.Fingerprint.engine_version off_sec cold_sec
       disk_sec memo_sec verify_sec
       (speedup cold_sec disk_sec)
       (speedup cold_sec memo_sec)
       cold.Core.Cache.misses cold.Core.Cache.stores
       disk.Core.Cache.disk_hits disk.Core.Cache.misses
       memo.Core.Cache.memo_hits memo.Core.Cache.misses
       verify.Core.Cache.verify_ok verify.Core.Cache.verify_fail verify_ok_run
       shared_hits outputs_identical);
  print_endline "wrote BENCH_cache.json";
  (match verify_result with
  | Error key ->
    Printf.eprintf "FAIL: cache verify diverged on entry %s\n" key
  | Ok _ -> ());
  if not outputs_identical then
    prerr_endline "FAIL: cached battery output differs across cache modes";
  if not counters_ok then
    Printf.eprintf
      "FAIL: cache counters inconsistent (cold %d/%d, disk %d/%d, memo %d, \
       verify %d/%d, dedup %d)\n"
      cold.Core.Cache.misses cold.Core.Cache.stores
      disk.Core.Cache.disk_hits disk.Core.Cache.misses
      memo.Core.Cache.memo_hits verify.Core.Cache.verify_ok
      verify.Core.Cache.verify_fail shared_hits;
  if not (outputs_identical && counters_ok && verify_ok_run) then exit 1

(* ------------------------------------------------------------------ *)
(* Supervised campaign runner (BENCH_supervise.json)                   *)
(* ------------------------------------------------------------------ *)

(* Robustness gates for the supervisor, all against one chaos
   campaign: (1) an interrupted-at-~50% run resumed from its manifest
   must print byte-identically to the uninterrupted reference, at
   jobs=1 and jobs=N; (2) a verify-mode resume must re-simulate every
   restored cell with zero divergences; (3) a forced-deadline cell
   must be retried then quarantined without failing the campaign;
   (4) a killed worker and a poisoned checkpoint payload must both
   recover to the identical report.  Timings record what resume and
   recovery cost relative to the straight run. *)
let supervise_bench () =
  let plans = Stdlib.max 4 !plans in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wtcp_bench_supervise_%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let kind =
    Core.Campaigns.Chaos { plans; base_seed = 1; cc = None; check = true }
  in
  let opts = Core.Campaigns.default_options in
  let resume_opts = { opts with Core.Campaigns.resume = true } in
  let store phase = Filename.concat root phase in
  let run_campaign ?wave_size ?sabotage ?should_stop ~options ~jobs phase =
    Core.Campaigns.run ~jobs ?wave_size ?sabotage ?should_stop
      ~store_dir:(store phase) ~options kind
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  rm_rf root;
  (* Reference: straight supervised run, jobs=1. *)
  let ref_report, straight_sec =
    time (fun () -> run_campaign ~options:opts ~jobs:1 "ref")
  in
  let identical r =
    r.Core.Campaigns.rendered = ref_report.Core.Campaigns.rendered
    && r.Core.Campaigns.json = ref_report.Core.Campaigns.json
  in
  (* Kill at ~50%: small waves so the interrupt poll actually fires
     mid-campaign, then resume at jobs=1 and jobs=N. *)
  let half = Stdlib.max 1 (plans / 2) in
  let kill_recover jobs phase =
    let interrupted =
      run_campaign ~wave_size:2
        ~should_stop:(fun ~completed -> completed >= half)
        ~options:opts ~jobs phase
    in
    let resumed, sec =
      time (fun () -> run_campaign ~options:resume_opts ~jobs phase)
    in
    (interrupted, resumed, sec)
  in
  let int1, res1, resume1_sec = kill_recover 1 "kill1" in
  let intn, resn, _ = kill_recover !jobs "killN" in
  let kill_ok =
    int1.Core.Campaigns.interrupted && intn.Core.Campaigns.interrupted
    && identical res1 && identical resn
    && res1.Core.Campaigns.resumed > 0
  in
  (* Resume overhead: re-resuming the finished jobs=1 campaign (every
     cell restored from its manifest, nothing simulated). *)
  let warm, warm_resume_sec =
    time (fun () -> run_campaign ~options:resume_opts ~jobs:1 "kill1")
  in
  let warm_ok = identical warm && warm.Core.Campaigns.completed = 0 in
  (* Verify-mode resume: every restored cell re-simulates and must
     match its checkpoint byte for byte. *)
  Core.Cache.reset_stats ();
  Core.Cache.set_mode Core.Cache.Verify;
  let verify_report, verify_outcome =
    match run_campaign ~options:resume_opts ~jobs:1 "kill1" with
    | r -> (Some r, Ok ())
    | exception Core.Cache.Verify_mismatch { key; _ } -> (None, Error key)
  in
  Core.Cache.set_mode Core.Cache.Off;
  let vstats = Core.Cache.stats () in
  let verify_ok =
    verify_outcome = Ok ()
    && (match verify_report with Some r -> identical r | None -> false)
    && vstats.Core.Cache.verify_ok = plans
    && vstats.Core.Cache.verify_fail = 0
  in
  (* Forced deadline: cell 1 pinned to a 1-event budget on every
     attempt — retried, then quarantined; the campaign itself stays
     ok. *)
  Core.Supervisor.reset_stats ();
  let deadline_report =
    run_campaign
      ~sabotage:
        {
          Core.Supervisor.no_sabotage with
          Core.Supervisor.force_deadline_cell = Some 1;
        }
      ~options:{ opts with Core.Campaigns.retries = 2 }
      ~jobs:1 "deadline"
  in
  let s = Core.Supervisor.stats () in
  let deadline_ok =
    deadline_report.Core.Campaigns.quarantined = 1
    && deadline_report.Core.Campaigns.ok
    && s.Core.Supervisor.deadline_hits >= 2
    && s.Core.Supervisor.retries >= 1
  in
  (* Worker killed mid-cell: retried transparently, identical report. *)
  let killed_report =
    run_campaign
      ~sabotage:
        {
          Core.Supervisor.no_sabotage with
          Core.Supervisor.kill_cell = Some 0;
        }
      ~options:opts ~jobs:1 "worker"
  in
  (* Poisoned checkpoint: the cell's payload line is written corrupt;
     the resume must heal it by re-simulation. *)
  let _poisoned =
    run_campaign
      ~sabotage:
        {
          Core.Supervisor.no_sabotage with
          Core.Supervisor.poison_cell = Some 0;
        }
      ~options:opts ~jobs:1 "poison"
  in
  let healed_report =
    run_campaign ~options:resume_opts ~jobs:1 "poison"
  in
  let sabotage_ok = identical killed_report && identical healed_report in
  let all_ok = kill_ok && warm_ok && verify_ok && deadline_ok && sabotage_ok in
  Core.Supervisor.record_metrics (Obs.Registry.create ());
  section
    (String.concat "\n"
       [
         Core.Report.heading "Supervise — checkpoint/resume and quarantine";
         Core.Report.note
           (Printf.sprintf
              "plans=%d jobs=%d; straight %.2fs, resume-after-kill %.2fs, \
               warm resume %.2fs (%.0f%% of straight)"
              plans !jobs straight_sec resume1_sec warm_resume_sec
              (100.0 *. warm_resume_sec /. Float.max 1e-9 straight_sec));
         Core.Report.note
           (Printf.sprintf
              "kill@50%%+resume identical (jobs=1 and jobs=%d): %b; warm \
               resume identical: %b; verify-mode resume ok: %b"
              !jobs kill_ok warm_ok verify_ok);
         Core.Report.note
           (Printf.sprintf
              "forced deadline quarantined without failing campaign: %b \
               (deadline_hits=%d retries=%d); kill/poison recovery \
               identical: %b"
              deadline_ok s.Core.Supervisor.deadline_hits
              s.Core.Supervisor.retries sabotage_ok);
       ]);
  Core.Report.write_atomic ~path:"BENCH_supervise.json"
    (Printf.sprintf
       "{\n\
       \  \"target\": \"supervise\",\n\
       \  \"plans\": %d,\n\
       \  \"jobs\": %d,\n\
       \  \"engine_version\": %S,\n\
       \  \"straight_sec\": %.3f,\n\
       \  \"resume_after_kill_sec\": %.3f,\n\
       \  \"warm_resume_sec\": %.3f,\n\
       \  \"resume_overhead\": %.3f,\n\
       \  \"kill_resume_identical\": %b,\n\
       \  \"warm_resume_identical\": %b,\n\
       \  \"verify\": {\"ok\": %d, \"fail\": %d, \"passed\": %b},\n\
       \  \"deadline\": {\"quarantined\": %d, \"campaign_ok\": %b, \
        \"deadline_hits\": %d, \"retries\": %d},\n\
       \  \"sabotage_recovery_identical\": %b,\n\
       \  \"ok\": %b\n\
        }\n"
       plans !jobs Core.Fingerprint.engine_version straight_sec resume1_sec
       warm_resume_sec
       (warm_resume_sec /. Float.max 1e-9 straight_sec)
       kill_ok warm_ok vstats.Core.Cache.verify_ok
       vstats.Core.Cache.verify_fail verify_ok
       deadline_report.Core.Campaigns.quarantined
       deadline_report.Core.Campaigns.ok s.Core.Supervisor.deadline_hits
       s.Core.Supervisor.retries sabotage_ok all_ok);
  print_endline "wrote BENCH_supervise.json";
  rm_rf root;
  if not kill_ok then
    prerr_endline "FAIL: kill@50%+resume diverged from the straight run";
  if not warm_ok then prerr_endline "FAIL: warm resume diverged or re-simulated";
  (match verify_outcome with
  | Error key ->
    Printf.eprintf "FAIL: verify-mode resume diverged on entry %s\n" key
  | Ok () ->
    if not verify_ok then
      Printf.eprintf "FAIL: verify-mode resume counters (ok=%d fail=%d)\n"
        vstats.Core.Cache.verify_ok vstats.Core.Cache.verify_fail);
  if not deadline_ok then
    prerr_endline "FAIL: forced-deadline cell not quarantined as expected";
  if not sabotage_ok then
    prerr_endline "FAIL: kill/poison sabotage did not recover identically";
  if not all_ok then exit 1

(* ------------------------------------------------------------------ *)

let targets =
  [
    ("figs", figs);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("advisor", advisor);
    ("goodput", goodput);
    ("ablation-schemes", ablation_schemes);
    ("ablation-quench", ablation_quench);
    ("ablation-tick", ablation_tick);
    ("ablation-rtmax", ablation_rtmax);
    ("ablation-window", ablation_window);
    ("ablation-pacing", ablation_pacing);
    ("ablation-window-tcp", ablation_tcp_window);
    ("ablation-rearm", ablation_rearm);
    ("ablation-cc", ablation_cc);
    ("ablation-cc-table", ablation_cc_table);
    ("ablation-delack", ablation_delack);
    ("ablation-congestion", ablation_congestion);
    ("ablation-sched", ablation_sched);
    ("ablation-handoff", ablation_handoff);
    ("micro", micro);
    ("parallel", parallel_bench);
    ("engine", engine_bench);
    ("obs", obs_bench);
    ("chaos", chaos_bench);
    ("cc", cc_bench);
    ("cache", cache_bench);
    ("supervise", supervise_bench);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [target ...] [reps=N] [jobs=N] [csv=DIR] [check=0|1] \
     [trace=PATH] [metrics=PATH] [plans=N]\n\
     targets: %s\n"
    (String.concat ", " (List.map fst targets));
  exit 2

let int_flag ~key value =
  match int_of_string_opt value with
  | Some n when n >= 1 -> n
  | Some _ | None ->
    Printf.eprintf "%s=%s: expected a positive integer\n" key value;
    usage ()

let set_flag flag =
  match String.index_opt flag '=' with
  | None -> assert false (* flags are exactly the '='-carrying args *)
  | Some i ->
    let key = String.sub flag 0 i in
    let value = String.sub flag (i + 1) (String.length flag - i - 1) in
    (match key with
    | "reps" -> replications := int_flag ~key value
    | "jobs" ->
      jobs := int_flag ~key value;
      jobs_set := true
    | "csv" -> csv_dir := Some value
    | "check" -> (
      match value with
      | "0" -> check := false
      | "1" -> check := true
      | _ ->
        Printf.eprintf "check=%s: expected 0 or 1\n" value;
        usage ())
    | "trace" -> trace_path := Some value
    | "metrics" -> metrics_path := Some value
    | "plans" -> plans := int_flag ~key value
    | _ ->
      Printf.eprintf "unknown flag %S\n" flag;
      usage ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let named, flags =
    List.partition (fun a -> not (String.contains a '=')) args
  in
  List.iter set_flag flags;
  (* Checked mode applies to every run the targets launch, including
     those fanned out across domains; set before any domain spawns. *)
  if !check then
    Core.Obs.Config.set_default
      Core.Obs.Config.{ off with check = true };
  let to_run = match named with [] -> List.map fst targets | names -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %S; available: %s\n" name
          (String.concat ", " (List.map fst targets));
        exit 2)
    to_run
