(* Tests for the persistent domain pool (Parallel) and
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
   without the core-count cap — so the pool machinery (spawn, claim
   loop, participation tokens) is really exercised even on a one-core
   CI host, where
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

exception Fail_at of int

(* Random sets of failing indices at jobs 2, 3 and 4: the caller must
   see the smallest one, raised from its own site, whatever the claim
   interleaving was, and the pool must survive the failed batch. *)
let prop_pool_exception_propagation =
  QCheck2.Test.make ~name:"exception and backtrace" ~count:100
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      let* n = int_range 1 200 in
      let+ failing = list_size (int_range 1 5) (int_bound (n - 1)) in
      (n, failing))
    (fun (n, failing) ->
      Printexc.record_backtrace true;
      let f x = if List.mem x failing then raise (Fail_at x) else x in
      let smallest = List.fold_left Stdlib.min max_int failing in
      let xs = Array.init n Fun.id in
      let pool = Parallel.Pool.get ~jobs:pool_jobs () in
      let raised_at_site bt =
        (* The first frame is [f]'s raise, not a re-raise in the
           pool.  Builds without debug info carry no locations. *)
        match Printexc.backtrace_slots bt with
        | Some slots when Array.length slots > 0 -> (
          match Printexc.Slot.location slots.(0) with
          | Some loc ->
            Filename.basename loc.Printexc.filename = "test_parallel.ml"
          | None -> true)
        | _ -> true
      in
      List.for_all
        (fun jobs ->
          (match Parallel.Pool.submit_map ~jobs pool f xs with
          | _ -> false
          | exception Fail_at i ->
            i = smallest && raised_at_site (Printexc.get_raw_backtrace ()))
          && Parallel.Pool.submit_map ~jobs pool succ xs = Array.map succ xs)
        [ 2; 3; 4 ])

let test_pool_helper_takes_work () =
  (* The caller's first task blocks until a helper has run every other
     index, so the batch completes only if helpers claim work while
     the caller is busy.  The wait is bounded, so a pool whose helpers
     never take work fails here instead of hanging. *)
  let n = 32 in
  let pool = Parallel.Pool.get ~jobs:2 () in
  let by_helpers = Atomic.make 0 in
  let timed_out = Atomic.make false in
  let f _ =
    if Domain.is_main_domain () then begin
      let deadline = Sys.time () +. 10.0 in
      while Atomic.get by_helpers < n - 1 && not (Atomic.get timed_out) do
        if Sys.time () > deadline then Atomic.set timed_out true;
        Domain.cpu_relax ()
      done
    end
    else Atomic.incr by_helpers
  in
  let before = Parallel.Pool.stats () in
  ignore (Parallel.Pool.submit_map ~jobs:2 pool f (Array.init n Fun.id));
  let after = Parallel.Pool.stats () in
  Alcotest.(check bool) "helper ran the others within 10 s" false
    (Atomic.get timed_out);
  Alcotest.(check bool) "steals >= n-1" true
    (after.Parallel.Pool.steals - before.Parallel.Pool.steals >= n - 1)

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
          qc prop_pool_exception_propagation;
          Alcotest.test_case "helper takes work while the caller waits"
            `Quick test_pool_helper_takes_work;
          Alcotest.test_case "spawn failure resets cleanly" `Quick
            test_pool_spawn_failure_resets;
          Alcotest.test_case "shutdown and restart" `Quick
            test_pool_shutdown_restart;
        ] );
    ]
