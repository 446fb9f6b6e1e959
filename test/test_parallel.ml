(* Tests for the persistent work-stealing domain pool (Parallel) and
   the parallel replication contract: same seeds => same measurements
   at any jobs.

   Ordering matters: the "pool" group's spawn-once assertions run
   before the shutdown/restart test, which deliberately respawns
   domains and therefore bumps the cumulative spawn counter. *)

open Core

(* ------------------------------------------------------------------ *)
(* Parallel.map                                                        *)
(* ------------------------------------------------------------------ *)

let test_default_jobs () =
  Alcotest.(check bool) "at least 1" true (Parallel.default_jobs () >= 1)

let test_map_empty () =
  Alcotest.(check (list int)) "empty input" []
    (Parallel.map ~jobs:4 (fun x -> x) [])

let test_map_singleton () =
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Parallel.map ~jobs:4 (fun x -> x * x) [ 3 ])

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "jobs=4 preserves order" expected
    (Parallel.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "jobs=1 is List.map" expected
    (Parallel.map ~jobs:1 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more jobs than elements" [ 1; 4; 9 ]
    (Parallel.map ~jobs:16 (fun x -> x * x) [ 1; 2; 3 ])

let test_map_exception () =
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom")
    (fun () ->
      ignore
        (Parallel.map ~jobs:4
           (fun x -> if x = 37 then failwith "boom" else x)
           (List.init 64 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Parallel.map_array                                                  *)
(* ------------------------------------------------------------------ *)

let test_map_array_basic () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map_array ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Parallel.map_array ~jobs:4 (fun x -> x * x) [| 3 |]);
  let xs = Array.init 257 Fun.id in
  let expected = Array.map (fun x -> (x * 31) + 7) xs in
  Alcotest.(check (array int)) "jobs=4 = Array.map" expected
    (Parallel.map_array ~jobs:4 (fun x -> (x * 31) + 7) xs);
  Alcotest.(check (array int)) "jobs=1 = Array.map" expected
    (Parallel.map_array ~jobs:1 (fun x -> (x * 31) + 7) xs)

let test_map_array_nested () =
  (* A map issued from inside a pool task must run inline instead of
     deadlocking on its own pool.  The outer batch goes through
     [Pool.submit_map] (no core cap), so helpers really do execute
     the inner maps even on a one-core host. *)
  let f x =
    Array.fold_left ( + ) 0
      (Parallel.map_array ~jobs:2 (fun y -> y * x) (Array.init 8 Fun.id))
  in
  let xs = Array.init 16 Fun.id in
  let pool = Parallel.Pool.get ~jobs:2 () in
  Alcotest.(check (array int)) "nested map = sequential" (Array.map f xs)
    (Parallel.Pool.submit_map pool f xs)

let prop_map_array_matches_sequential =
  QCheck2.Test.make ~name:"map_array ~jobs = Array.map at jobs in {1,2,4}"
    ~count:100
    QCheck2.Gen.(list_size (int_bound 200) small_int)
    (fun xs ->
      let arr = Array.of_list xs in
      let f x = (x * x) - (3 * x) + 1 in
      let expected = Array.map f arr in
      List.for_all
        (fun jobs -> Parallel.map_array ~jobs f arr = expected)
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Determinism: jobs=1 and jobs=4 give identical measurements          *)
(* ------------------------------------------------------------------ *)

let measurement =
  Alcotest.testable
    (fun ppf (m : Run.measurement) ->
      Format.fprintf ppf "tput=%g goodput=%g retx=%g timeouts=%d"
        m.Run.throughput_bps m.Run.goodput m.Run.retransmitted_kbytes
        m.Run.source_timeouts)
    ( = )

let check_scenario_deterministic label scenario =
  let seq = Sweep.measurements ~replications:6 ~jobs:1 scenario in
  let par = Sweep.measurements ~replications:6 ~jobs:4 scenario in
  Alcotest.(check (list measurement)) label seq par

let test_wan_determinism () =
  check_scenario_deterministic "wan: jobs=1 = jobs=4"
    (Scenario.wan ~scheme:Scenario.Ebsn ~mean_bad_sec:2.0 ())

let test_lan_determinism () =
  (* A smaller transfer than the paper's 4 MB keeps the test quick
     without changing the code paths exercised. *)
  check_scenario_deterministic "lan: jobs=1 = jobs=4"
    (Scenario.lan ~scheme:Scenario.Basic ~mean_bad_sec:0.8
       ~file_bytes:200_000 ())

let test_csv_byte_identical () =
  let csv jobs =
    Wan_sweep.to_csv
      (Wan_sweep.compute ~replications:3 ~jobs ~packet_sizes:[ 256; 768 ]
         ~bad_periods_sec:[ 1.0; 4.0 ] ~scheme:Scenario.Basic
         ~metric:Sweep.throughput ())
  in
  let reference = csv 1 in
  Alcotest.(check string) "sweep CSV byte-identical at jobs=2" reference
    (csv 2);
  Alcotest.(check string) "sweep CSV byte-identical at jobs=3" reference
    (csv 3);
  Alcotest.(check string) "sweep CSV byte-identical at jobs=4" reference
    (csv 4)

(* ------------------------------------------------------------------ *)
(* The persistent pool: reuse, metrics, exceptions, shutdown           *)
(* ------------------------------------------------------------------ *)

(* These go through [Pool.get] + [Pool.submit_map] — the entry point
   without the core-count cap — so the pool machinery (spawn, steal,
   shard merge) is really exercised even on a one-core CI host, where
   [map_array] would legitimately run everything sequentially.

   Every test in this file requests at most 4 workers, so a
   spawn-once pool can have created at most 3 helper domains by the
   time these assertions run. *)
let pool_jobs = 4

let test_pool_spawn_once () =
  let before = Parallel.Pool.stats () in
  let pool = Parallel.Pool.get ~jobs:pool_jobs () in
  for i = 1 to 5 do
    let xs = Array.init (64 * i) Fun.id in
    Alcotest.(check (array int))
      (Printf.sprintf "call %d correct" i)
      (Array.map succ xs)
      (Parallel.Pool.submit_map pool succ xs)
  done;
  let after = Parallel.Pool.stats () in
  Alcotest.(check bool) "warm pool spawns no new domains" true
    (after.Parallel.Pool.domains_spawned
     - before.Parallel.Pool.domains_spawned
    <= pool_jobs - 1);
  Alcotest.(check bool) "process-lifetime spawns <= jobs-1" true
    (after.Parallel.Pool.domains_spawned <= pool_jobs - 1);
  Alcotest.(check bool) "batches counted" true
    (after.Parallel.Pool.batches - before.Parallel.Pool.batches >= 5);
  Alcotest.(check bool) "tasks counted" true
    (after.Parallel.Pool.tasks - before.Parallel.Pool.tasks
    >= 64 + 128 + 192 + 256 + 320);
  Alcotest.(check bool) "chunks >= steals" true
    (after.Parallel.Pool.chunks >= after.Parallel.Pool.steals)

let test_pool_exception_propagation () =
  Printexc.record_backtrace true;
  (* Two failing indices: the caller must see the smallest one, so
     the surfaced error does not depend on steal interleaving. *)
  let f x =
    if x = 10 then failwith "first"
    else if x = 50 then failwith "second"
    else x
  in
  let pool = Parallel.Pool.get ~jobs:pool_jobs () in
  (match Parallel.Pool.submit_map pool f (Array.init 64 Fun.id) with
  | _ -> Alcotest.fail "expected Failure \"first\""
  | exception Failure msg ->
    Alcotest.(check string) "smallest failing index wins" "first" msg);
  (* The pool must survive a failed batch: every task still ran, the
     batch completed, and the next batch is clean. *)
  let xs = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "pool usable after exception"
    (Array.map succ xs)
    (Parallel.Pool.submit_map pool succ xs)

let test_pool_spawn_failure_resets () =
  (* A Domain.spawn failure mid-grow must leave the pool consistent:
     the exception propagates, no helper slot is half-registered, and
     the very next map at the same jobs retries the spawn and
     succeeds. *)
  let target = (Parallel.Pool.stats ()).Parallel.Pool.domains_spawned + 2 in
  Parallel.Pool.shutdown ();
  Parallel.Pool.fail_spawns_for_tests 1;
  (match Parallel.Pool.get ~jobs:target () with
  | _ -> Alcotest.fail "expected injected spawn failure"
  | exception Failure _ -> ());
  Parallel.Pool.fail_spawns_for_tests 0;
  let xs = Array.init 96 Fun.id in
  let pool = Parallel.Pool.get ~jobs:target () in
  Alcotest.(check (array int)) "pool recovers after spawn failure"
    (Array.map succ xs)
    (Parallel.Pool.submit_map pool succ xs);
  Parallel.Pool.shutdown ()

let test_pool_shutdown_restart () =
  let before = Parallel.Pool.stats () in
  Parallel.Pool.shutdown ();
  Parallel.Pool.shutdown ();
  (* idempotent *)
  let xs = Array.init 80 Fun.id in
  let pool = Parallel.Pool.get ~jobs:2 () in
  Alcotest.(check (array int)) "map works after shutdown"
    (Array.map succ xs)
    (Parallel.Pool.submit_map pool succ xs);
  let after = Parallel.Pool.stats () in
  Alcotest.(check bool) "restart spawns at most jobs-1 new domains" true
    (after.Parallel.Pool.domains_spawned
     - before.Parallel.Pool.domains_spawned
    <= 1);
  Parallel.Pool.shutdown ()

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
          Alcotest.test_case "empty" `Quick test_map_empty;
          Alcotest.test_case "singleton" `Quick test_map_singleton;
          Alcotest.test_case "order" `Quick test_map_order;
          Alcotest.test_case "exception" `Quick test_map_exception;
        ] );
      ( "map_array",
        [
          Alcotest.test_case "basic" `Quick test_map_array_basic;
          Alcotest.test_case "nested" `Quick test_map_array_nested;
          qc prop_map_array_matches_sequential;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "wan measurements" `Quick test_wan_determinism;
          Alcotest.test_case "lan measurements" `Quick test_lan_determinism;
          Alcotest.test_case "sweep csv" `Quick test_csv_byte_identical;
        ] );
      ( "pool",
        [
          Alcotest.test_case "spawn once per process" `Quick
            test_pool_spawn_once;
          Alcotest.test_case "exception and backtrace" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "spawn failure resets cleanly" `Quick
            test_pool_spawn_failure_resets;
          Alcotest.test_case "shutdown and restart" `Quick
            test_pool_shutdown_restart;
        ] );
    ]
