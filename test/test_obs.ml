(* Tests for the observability layer: Jsonl, Registry, Trace,
   Invariant, checked-mode simulation, and the determinism of the
   trace/metrics output across domain counts. *)

open Core

(* ------------------------------------------------------------------ *)
(* Jsonl                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonl_field_order () =
  Alcotest.(check string) "fields render in order"
    "{\"t\":12,\"ratio\":0.5,\"name\":\"x\",\"ok\":true}\n"
    (Obs.Jsonl.line
       [
         ("t", Obs.Jsonl.Int 12);
         ("ratio", Obs.Jsonl.Float 0.5);
         ("name", Obs.Jsonl.Str "x");
         ("ok", Obs.Jsonl.Bool true);
       ])

let test_jsonl_float_repr () =
  let render v = Obs.Jsonl.line [ ("v", Obs.Jsonl.Float v) ] in
  Alcotest.(check string) "whole floats without exponent" "{\"v\":1042}\n"
    (render 1042.0);
  Alcotest.(check string) "negative whole" "{\"v\":-3}\n" (render (-3.0));
  Alcotest.(check string) "fraction round-trips" "{\"v\":2.5}\n" (render 2.5)

let test_jsonl_escaping () =
  Alcotest.(check string) "quotes, backslash, newline, control"
    "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\"}\n"
    (Obs.Jsonl.line [ ("k", Obs.Jsonl.Str "a\"b\\c\nd\001") ])

(* The digit writer runs several times per traced event, and whole
   floats go through it too. *)
let test_jsonl_digits_allocate_nothing () =
  let buf = Buffer.create 65536 in
  Obs.Jsonl.add_int buf 10;
  let before = Gc.minor_words () in
  for n = -1000 to 999 do
    Obs.Jsonl.add_int buf (n * 1_000_003);
    Obs.Jsonl.add_float buf 536.0
  done;
  Obs.Jsonl.add_int buf min_int;
  Obs.Jsonl.add_float buf (-0.0);
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words" 0.0 words

(* Extreme and boundary numbers for the renderers below. *)
let gen_edge_int =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ 0; 9; -9; 10; -10; 99; 100; min_int; max_int; min_int + 1 ];
        int;
        small_signed_int;
      ])

(* Finite floats over the whole exponent range, subnormals included,
   up to [2^max_exp]. *)
let gen_finite_float ~max_exp =
  QCheck2.Gen.(
    map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0)
      (int_range (-1074) max_exp))

let gen_gauge_value =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            0.0; -0.0; 1e15; -1e15; 1e15 -. 1.0; 1.0 -. 1e15; 1e15 +. 2.0;
            0.5; -2.5; 0.1; 5e-324; -5e-324; 2.2250738585072009e-308;
            1e300; -1e300;
          ];
        map float_of_int gen_edge_int;
        map float_of_int small_signed_int;
        gen_finite_float ~max_exp:1023;
      ])

(* Ints render as [string_of_int], and floats as [%.0f] when whole and
   below 1e15 in magnitude, [%.17g] otherwise. *)
let prop_jsonl_numbers =
  QCheck2.Test.make ~name:"numbers render as string_of_int, %.0f and %.17g"
    ~count:1000 (QCheck2.Gen.pair gen_edge_int gen_gauge_value) (fun (n, v) ->
      let float_ref =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.17g" v
      in
      Obs.Jsonl.line [ ("n", Obs.Jsonl.Int n); ("v", Obs.Jsonl.Float v) ]
      = Printf.sprintf "{\"n\":%s,\"v\":%s}\n" (string_of_int n) float_ref)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_counters_and_gauges () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "runs" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  (* Same name returns the same instrument. *)
  Obs.Registry.incr (Obs.Registry.counter r "runs");
  Obs.Registry.set (Obs.Registry.gauge r "cwnd") 536.0;
  Alcotest.(check string) "rendered sorted by name"
    "{\"metric\":\"cwnd\",\"type\":\"gauge\",\"value\":536}\n\
     {\"metric\":\"runs\",\"type\":\"counter\",\"value\":6}\n"
    (Obs.Registry.to_jsonl r)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec find i =
    i + nn <= nh && (String.sub haystack i nn = needle || find (i + 1))
  in
  find 0

let test_registry_histogram () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "rtt" in
  List.iter (Obs.Registry.observe h) [ 1.0; 2.0; 3.0; 100.0 ];
  let line = Obs.Registry.to_jsonl r in
  Alcotest.(check bool) "count" true (contains_sub line "\"count\":4");
  Alcotest.(check bool) "sum" true (contains_sub line "\"sum\":106");
  Alcotest.(check bool) "min" true (contains_sub line "\"min\":1");
  Alcotest.(check bool) "max" true (contains_sub line "\"max\":100")

let test_registry_disabled_noop () =
  let c = Obs.Registry.counter Obs.Registry.disabled "x" in
  let h = Obs.Registry.histogram Obs.Registry.disabled "y" in
  Obs.Registry.incr c;
  Obs.Registry.observe h 5.0;
  Alcotest.(check bool) "disabled registry not enabled" false
    (Obs.Registry.enabled Obs.Registry.disabled);
  Alcotest.(check string) "renders empty" "" (Obs.Registry.to_jsonl Obs.Registry.disabled)

(* [observe_int] records what [observe] of the converted float does,
   and on a disabled histogram it allocates nothing: the ARQ attempt
   and RTT histograms take one sample per frame or ack on every run.
   On a live histogram neither allocates either: the sum, min and max
   are stored unboxed and the bucket comes from the exponent bits. *)
let test_registry_observe_int () =
  let render observe =
    let r = Obs.Registry.create () in
    let h = Obs.Registry.histogram r "attempts" in
    List.iter (observe h) [ 1; 2; 13; 0 ];
    Obs.Registry.to_jsonl r
  in
  Alcotest.(check string) "same line as observe"
    (render (fun h n -> Obs.Registry.observe h (float_of_int n)))
    (render Obs.Registry.observe_int);
  let h = Obs.Registry.histogram Obs.Registry.disabled "attempts" in
  let before = Gc.minor_words () in
  for n = 1 to 1000 do
    Obs.Registry.observe_int h n
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words on a disabled histogram" 0.0 words;
  let h = Obs.Registry.histogram (Obs.Registry.create ()) "attempts" in
  (* Boxed before the count starts, as a caller's float field is. *)
  let samples = List.init 1000 (fun i -> (float_of_int (i - 100) *. 1.5) +. 0.25) in
  let observe = Obs.Registry.observe h in
  let before = Gc.minor_words () in
  List.iter observe samples;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words of observe on a live histogram" 0.0 words;
  let before = Gc.minor_words () in
  for n = -100 to 899 do
    Obs.Registry.observe_int h n
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "words of observe_int on a live histogram" 0.0
    words

(* The registry renders what [Jsonl.line] renders for a model of its
   instruments: counters sum, a gauge keeps its last value, and a
   histogram's bucket is [Float.frexp]'s exponent shifted by 32 and
   clamped to [0, 63] (bucket 0 also holds every non-positive sample).
   Lines sort by name; a name shared by two kinds renders histogram,
   then gauge, then counter. *)
let registry_reference ops =
  let open Obs.Jsonl in
  (* Merge updates by name, keeping each name once. *)
  let merge combine pairs =
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some old -> (k, combine old v) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      [] pairs
  in
  let counters =
    merge ( + ) (List.filter_map (function `C c -> Some c | _ -> None) ops)
  in
  let gauges =
    merge (fun _ v -> v) (List.filter_map (function `G g -> Some g | _ -> None) ops)
  in
  let histograms =
    merge ( @ ) (List.filter_map (function `H h -> Some h | _ -> None) ops)
  in
  let bucket v =
    if v <= 0.0 then 0 else Int.max 0 (Int.min 63 (snd (Float.frexp v) + 32))
  in
  let histogram_line (name, samples) =
    let n = List.length samples in
    let sum = List.fold_left ( +. ) 0.0 samples in
    let lo = List.fold_left (fun m v -> if v < m then v else m) Float.infinity samples in
    let hi =
      List.fold_left (fun m v -> if v > m then v else m) Float.neg_infinity samples
    in
    let counts = Array.make 64 0 in
    List.iter (fun v -> counts.(bucket v) <- counts.(bucket v) + 1) samples;
    let buckets =
      List.filter_map
        (fun b ->
          if counts.(b) > 0 then Some (Printf.sprintf "b%d" (b - 32), Int counts.(b))
          else None)
        (List.init 64 Fun.id)
    in
    ( name,
      line
        ([
           ("metric", Str name);
           ("type", Str "histogram");
           ("count", Int n);
           ("sum", Float sum);
         ]
        @ (if n = 0 then [] else [ ("min", Float lo); ("max", Float hi) ])
        @ buckets) )
  in
  List.map histogram_line histograms
  @ List.map
      (fun (name, v) ->
        (name, line [ ("metric", Str name); ("type", Str "gauge"); ("value", Float v) ]))
      gauges
  @ List.map
      (fun (name, n) ->
        (name, line [ ("metric", Str name); ("type", Str "counter"); ("value", Int n) ]))
      counters
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd |> String.concat ""

let prop_registry_equals_reference =
  let open QCheck2.Gen in
  let name =
    string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '"'; '\\'; '\n'; '\001' ]) (int_range 0 4)
  in
  (* Zero, negatives, subnormals, and values past both clamped end
     buckets (below 2^-32 and from 2^30 up). *)
  let sample =
    oneof
      [
        oneofl
          [
            0.0; -0.0; -1.0; -1e300; 5e-324; 1e-310; 1e-300; 1e-20;
            Float.ldexp 1.0 (-33); Float.ldexp 1.0 (-32); Float.ldexp 1.0 30;
            Float.ldexp 1.0 31; 1e20; 1e300; 1.0; 0.75; 3.0; 13.0;
          ];
        gen_finite_float ~max_exp:200;
        map float_of_int small_signed_int;
      ]
  in
  let op =
    oneof
      [
        map2 (fun k n -> `C (k, n)) name gen_edge_int;
        map2 (fun k v -> `G (k, v)) name gen_gauge_value;
        map2 (fun k s -> `H (k, s)) name (list_size (int_range 0 6) sample);
      ]
  in
  QCheck2.Test.make ~name:"to_jsonl equals the Jsonl.line reference" ~count:500
    (let* before = list_size (int_range 0 8) op in
     let* after = list_size (int_range 0 8) op in
     let* shared = name in
     let* n = gen_edge_int in
     let* v = gen_gauge_value in
     let* samples = list_size (int_range 0 4) sample in
     let+ kinds = oneofl [ `Cg; `Ch; `Gh; `Cgh ] in
     let shared_ops =
       (match kinds with `Gh -> [] | _ -> [ `C (shared, n) ])
       @ (match kinds with `Ch -> [] | _ -> [ `G (shared, v) ])
       @ match kinds with `Cg -> [] | _ -> [ `H (shared, samples) ]
     in
     before @ shared_ops @ after)
    (fun ops ->
      let r = Obs.Registry.create () in
      List.iter
        (function
          | `C (k, n) -> Obs.Registry.add (Obs.Registry.counter r k) n
          | `G (k, v) -> Obs.Registry.set (Obs.Registry.gauge r k) v
          | `H (k, samples) ->
            let h = Obs.Registry.histogram r k in
            List.iter (Obs.Registry.observe h) samples)
        ops;
      Obs.Registry.to_jsonl r = registry_reference ops)

(* ------------------------------------------------------------------ *)
(* Trace and Invariant                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_emit () =
  let tr = Obs.Trace.create () in
  let send =
    Obs.Trace.event tr ~comp:"tcp" ~ev:"send"
      [
        Obs.Trace.Fixed ("conn", Obs.Jsonl.Int 0);
        Arg "seq";
        Fixed ("retx", Obs.Jsonl.Bool true);
        Arg "cwnd";
      ]
  in
  Obs.Trace.emit2 send ~t_ns:42 7 (-536);
  Alcotest.(check (option string)) "line with t/comp/ev first"
    (Some
       "{\"t\":42,\"comp\":\"tcp\",\"ev\":\"send\",\"conn\":0,\"seq\":7,\
        \"retx\":true,\"cwnd\":-536}\n")
    (Obs.Trace.contents tr);
  Alcotest.check_raises "arity is checked"
    (Invalid_argument "Obs.Trace.emit: arity mismatch") (fun () ->
      Obs.Trace.emit1 send ~t_ns:0 1);
  Alcotest.(check bool) "disabled trace not enabled" false
    (Obs.Trace.enabled Obs.Trace.disabled);
  let off = Obs.Trace.event Obs.Trace.disabled ~comp:"x" ~ev:"y" [ Arg "n" ] in
  Obs.Trace.emit1 off ~t_ns:0 1;
  Alcotest.(check (option string)) "disabled trace keeps nothing" None
    (Obs.Trace.contents Obs.Trace.disabled)

(* Templates must render exactly what [Jsonl.line] renders for the same
   fields, whatever the strings and however extreme the integers. *)
let prop_template_equals_jsonl =
  let open QCheck2.Gen in
  let str =
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '"'; '\\'; '\n'; '\001'; ' '; ':' ])
      (int_range 0 6)
  in
  let int =
    oneof [ oneofl [ 0; -1; 9; 10; -10; min_int; max_int ]; int; small_signed_int ]
  in
  let value =
    oneof
      [
        map (fun n -> Obs.Jsonl.Int n) int;
        map (fun s -> Obs.Jsonl.Str s) str;
        map (fun b -> Obs.Jsonl.Bool b) bool;
      ]
  in
  let field =
    oneof
      [
        map2 (fun k n -> `Arg (k, n)) str int;
        map2 (fun k v -> `Fixed (k, v)) str value;
      ]
  in
  QCheck2.Test.make ~name:"template emission equals Jsonl.line" ~count:500
    (let* comp = str in
     let* ev = str in
     let* t_ns = int in
     let* fields = list_size (int_range 0 4) field in
     let+ args = list_size (int_range 1 3) (pair str int) in
     (comp, ev, t_ns, fields @ List.map (fun a -> `Arg a) args))
    (fun (comp, ev, t_ns, fields) ->
      let fields =
        (* Keep at most three integer arguments. *)
        let n = ref 0 in
        List.filter
          (function
            | `Arg _ ->
              incr n;
              !n <= 3
            | `Fixed _ -> true)
          fields
      in
      let tr = Obs.Trace.create () in
      let e =
        Obs.Trace.event tr ~comp ~ev
          (List.map
             (function
               | `Arg (k, _) -> Obs.Trace.Arg k
               | `Fixed (k, v) -> Obs.Trace.Fixed (k, v))
             fields)
      in
      let args =
        List.filter_map (function `Arg (_, n) -> Some n | `Fixed _ -> None) fields
      in
      (match args with
      | [ a ] -> Obs.Trace.emit1 e ~t_ns a
      | [ a; b ] -> Obs.Trace.emit2 e ~t_ns a b
      | [ a; b; c ] -> Obs.Trace.emit3 e ~t_ns a b c
      | _ -> assert false);
      let reference =
        Obs.Jsonl.line
          (("t", Obs.Jsonl.Int t_ns)
          :: ("comp", Obs.Jsonl.Str comp)
          :: ("ev", Obs.Jsonl.Str ev)
          :: List.map
               (function
                 | `Arg (k, n) -> (k, Obs.Jsonl.Int n) | `Fixed (k, v) -> (k, v))
               fields)
      in
      Obs.Trace.contents tr = Some reference)

let test_invariant_require () =
  match Obs.Invariant.fail ~name:"broken" "why" with
  | () -> Alcotest.fail "expected Violation"
  | exception Obs.Invariant.Violation { name; detail } ->
    Alcotest.(check string) "name" "broken" name;
    Alcotest.(check string) "detail" "why" detail

(* ------------------------------------------------------------------ *)
(* Checked end-to-end runs                                             *)
(* ------------------------------------------------------------------ *)

let small_lan ~scheme ~seed =
  Scenario.lan ~scheme ~file_bytes:(256 * 1024) ~seed ()

let checked_scenarios =
  [
    ("wan basic", Scenario.wan ~scheme:Scenario.Basic ());
    ("wan ebsn", Scenario.wan ~scheme:Scenario.Ebsn ());
    ("wan local-recovery", Scenario.wan ~scheme:Scenario.Local_recovery ());
    ("lan basic", small_lan ~scheme:Scenario.Basic ~seed:1);
    ("lan ebsn", small_lan ~scheme:Scenario.Ebsn ~seed:1);
  ]

let test_checked_runs_clean () =
  (* Every invariant holds at every event of representative WAN and
     LAN runs; a single violation raises out of Wiring.run. *)
  List.iter
    (fun (name, scenario) ->
      let outcome = Wiring.run ~obs:Obs.Config.checked scenario in
      Alcotest.(check bool) (name ^ " completes under check") true
        outcome.Wiring.completed)
    checked_scenarios

let test_checked_equals_unchecked () =
  (* Checked mode observes, never perturbs: same outcome either way. *)
  let scenario = Scenario.wan ~scheme:Scenario.Ebsn ~seed:3 () in
  let plain = Wiring.run ~obs:Obs.Config.off scenario in
  let checked = Wiring.run ~obs:Obs.Config.checked scenario in
  Alcotest.(check int) "same end time"
    (Simtime.to_ns plain.Wiring.end_time)
    (Simtime.to_ns checked.Wiring.end_time);
  Alcotest.(check int) "same sends"
    plain.Wiring.sender_stats.Tcp_stats.packets_sent
    checked.Wiring.sender_stats.Tcp_stats.packets_sent

let test_mutation_canary () =
  (* The checker must bite: corrupt the sender's sequence state behind
     its back and the next event aborts with tcp.sequence_order. *)
  let sim = Simulator.create ~seed:1 () in
  let sender =
    Tcp_sender.create sim ~config:Tcp_config.default ~conn:0
      ~src:(Address.make 0) ~dst:(Address.make 2) ~total_bytes:100_000
      ~alloc_id:(fun () -> 0)
      ~transmit:(fun _ -> ())
  in
  Simulator.set_checked sim true;
  Simulator.add_invariant sim (fun () ->
      Tcp_sender.check_invariants sender);
  ignore
    (Simulator.schedule sim ~at:(Simtime.of_ns 10) (fun () ->
         Tcp_sender.For_testing.corrupt_sequence_state sender));
  (* [Simulator.run] wraps handler exceptions — violations included —
     in a fault report carrying queue state at the point of failure. *)
  (match Simulator.run sim with
  | () -> Alcotest.fail "corrupted sender must trip the checker"
  | exception Simulator.Fault report ->
    (match report.Simulator.error with
    | Obs.Invariant.Violation { name; _ } ->
      Alcotest.(check string) "named invariant" "tcp.sequence_order" name
    | exn -> Alcotest.fail ("expected a violation, got " ^ Printexc.to_string exn));
    Alcotest.(check bool) "events counted in report" true
      (report.Simulator.events_executed > 0));
  (* Unchecked, the same corruption passes silently — the canary shows
     the checker, not the schedule, catches it. *)
  let sim2 = Simulator.create ~seed:1 () in
  let sender2 =
    Tcp_sender.create sim2 ~config:Tcp_config.default ~conn:0
      ~src:(Address.make 0) ~dst:(Address.make 2) ~total_bytes:100_000
      ~alloc_id:(fun () -> 0)
      ~transmit:(fun _ -> ())
  in
  ignore
    (Simulator.schedule sim2 ~at:(Simtime.of_ns 10) (fun () ->
         Tcp_sender.For_testing.corrupt_sequence_state sender2));
  Simulator.run sim2

let test_time_monotonic_guard () =
  (* Feeding the queue an in-order schedule passes; the monotonicity
     check is exercised by every checked run above.  Here: checked
     stepping executes and counts events. *)
  let sim = Simulator.create () in
  Simulator.set_checked sim true;
  let fired = ref 0 in
  for i = 1 to 5 do
    ignore (Simulator.schedule sim ~at:(Simtime.of_ns i) (fun () -> incr fired))
  done;
  Simulator.run sim;
  Alcotest.(check int) "all events ran checked" 5 !fired;
  Alcotest.(check int) "events counted" 5 (Simulator.events_executed sim);
  Alcotest.(check bool) "queue stats maintained" true
    ((Simulator.queue_stats sim).Event_queue.adds >= 5)

(* ------------------------------------------------------------------ *)
(* Determinism across domains                                          *)
(* ------------------------------------------------------------------ *)

let collect ~jobs =
  Parallel.map ~jobs
    (fun (_, scenario) ->
      let o = Wiring.run ~obs:Obs.Config.all scenario in
      ( Option.value o.Wiring.obs_trace ~default:"",
        Option.value o.Wiring.obs_metrics ~default:"" ))
    checked_scenarios

let test_obs_output_deterministic () =
  let seq = collect ~jobs:1 in
  let par = collect ~jobs:2 in
  List.iteri
    (fun i ((t1, m1), (t2, m2)) ->
      let name = fst (List.nth checked_scenarios i) in
      Alcotest.(check bool) (name ^ ": trace non-empty") true
        (String.length t1 > 0);
      Alcotest.(check bool) (name ^ ": metrics non-empty") true
        (String.length m1 > 0);
      Alcotest.(check bool) (name ^ ": trace byte-identical") true (t1 = t2);
      Alcotest.(check bool) (name ^ ": metrics byte-identical") true (m1 = m2))
    (List.combine seq par)

(* ------------------------------------------------------------------ *)
(* Golden bytes: trace and metrics output pinned by MD5                *)
(* ------------------------------------------------------------------ *)

(* Two fault-injected cells that reach the trace sites the plain
   scenarios above never do: link blackholing and queue overflow, an
   ARQ crash and rt_max discards, paced-EBSN suppression and source
   quench. *)
let chaos_specs =
  let open Simtime in
  let at sec action = { Fault_plan.after = span_sec sec; action } in
  let spec index label scenario events =
    {
      Chaos.index;
      seed = scenario.Scenario.seed;
      scenario;
      plan = Fault_plan.make ~seed:scenario.Scenario.seed events;
      label;
    }
  in
  [
    spec 0 "chaos wan ebsn"
      {
        (Scenario.wan ~scheme:Scenario.Ebsn ~seed:7 ()) with
        Scenario.ebsn_pacing = Ebsn.Min_interval (span_sec 1.0);
      }
      [
        at 5.0 Fault_plan.Bs_crash;
        at 12.0
          (Fault_plan.Link_down
             { target = Fault_plan.Both; duration = span_sec 40.0 });
        at 60.0
          (Fault_plan.Queue_squeeze
             { target = Fault_plan.Down; duration = span_sec 20.0 });
      ];
    spec 1 "chaos wan quench"
      (Scenario.wan ~scheme:Scenario.Quench ~mean_bad_sec:2.0 ~seed:11 ())
      [
        at 8.0 (Fault_plan.Handoff { blackout = span_sec 3.0 });
        at 20.0 (Fault_plan.Ack_blackout { duration = span_sec 6.0 });
      ];
  ]

(* (name, trace md5, trace bytes, metrics md5) under Obs.Config.all.
   The traces were recorded with the list-based emitter the templates
   replaced.  The metrics were re-pinned when the event queue became
   an indexed heap: only the engine.queue.* lines changed (the
   lazy-deletion and calendar counters went away, and max_size became
   the live peak). *)
let golden =
  [
    ("wan basic", "1cbec3d0b9eba0687141c1ddc61343a8", 249260,
     "232f71b62d390fe2a63d890b7437b958");
    ("wan ebsn", "f1e1cbd342800613773eeecf78a6a51e", 610612,
     "3817120927f861b3305dca75cd70e2e0");
    ("wan local-recovery", "0b0c0df91656ae99a9c9e34c05ba6daf", 731402,
     "8e68c99b45d54a6a0b37903b64863e6c");
    ("lan basic", "b17d4d83d8bfd0c203eaf9c41fe483ca", 62117,
     "d2992a8c13895596a7c043d6bb9a1e76");
    ("lan ebsn", "1ae0e6bd0c455f27d3b0aaccbb6cb0d3", 109147,
     "e4079856a6fd022a199f322c07c39523");
    ("chaos wan ebsn", "42bb8f7bc76227e81ba53368cf369316", 664356,
     "85fda1764b4be1ece82cef184f97aed0");
    ("chaos wan quench", "ebebb759fb2ee1cbcfa725fe05586cdc", 626176,
     "409a57b687f1492819e9e4028d225c98");
  ]

(* The names of the metrics lines whose name starts with [prefix], in
   order. *)
let metric_names ~prefix metrics =
  List.filter_map
    (fun line ->
      match String.split_on_char '"' line with
      | _ :: "metric" :: _ :: name :: _ when String.starts_with ~prefix name ->
        Some name
      | _ -> None)
    (String.split_on_char '\n' metrics)

let golden_runs () =
  List.map
    (fun (name, scenario) -> (name, Wiring.run ~obs:Obs.Config.all scenario))
    checked_scenarios
  @ List.map
      (fun spec ->
        ( spec.Chaos.label,
          Wiring.run ~obs:Obs.Config.all ~faults:spec.Chaos.plan
            spec.Chaos.scenario ))
      chaos_specs

let test_golden_bytes () =
  List.iter2
    (fun (name, outcome) (gname, trace_md5, trace_len, metrics_md5) ->
      Alcotest.(check string) "golden table order" gname name;
      let trace = Option.value outcome.Wiring.obs_trace ~default:"" in
      let metrics = Option.value outcome.Wiring.obs_metrics ~default:"" in
      Alcotest.(check string) (name ^ ": trace md5") trace_md5
        (Digest.to_hex (Digest.string trace));
      Alcotest.(check int) (name ^ ": trace bytes") trace_len
        (String.length trace);
      Alcotest.(check string) (name ^ ": metrics md5") metrics_md5
        (Digest.to_hex (Digest.string metrics));
      Alcotest.(check (list string)) (name ^ ": engine.queue.* names")
        [
          "engine.queue.adds";
          "engine.queue.cancels";
          "engine.queue.max_size";
          "engine.queue.pops";
          "engine.queue.recycled";
        ]
        (metric_names ~prefix:"engine.queue." metrics))
    (golden_runs ()) golden

let test_chaos_trace_coverage () =
  (* The pinned chaos cells must keep reaching the rare emit sites, or
     their digests stop guarding them. *)
  let traces =
    List.map
      (fun spec ->
        Option.value ~default:""
          (Wiring.run ~obs:Obs.Config.all ~faults:spec.Chaos.plan
             spec.Chaos.scenario)
            .Wiring.obs_trace)
      chaos_specs
  in
  List.iter
    (fun ev ->
      let tag = Printf.sprintf "\"ev\":\"%s\"" ev in
      Alcotest.(check bool) (ev ^ " emitted") true
        (List.exists (fun t -> contains_sub t tag) traces))
    [
      "lost"; "blackholed"; "dropped"; "crash"; "discard"; "attempt_failure";
      "suppress"; "quench";
    ]

(* The ns-format link trace, pinned by MD5 and length.  Every link
   monitor event (enqueue, tx start, receive, drop, loss) and the FIFOs
   that order them feed these bytes; the fault cells are the ones that
   reach the drop and loss lines. *)
let nstrace_golden =
  [
    ("wan ebsn seed 3", "113e70f5baa3667f2fa206ce43abd3ba", 23653);
    ("lan basic", "c5a3666000532f60e1a8b2294608247f", 64928);
    ("chaos wan ebsn", "91230e0c15f0317a1d9c9bdf5aa5672e", 362772);
    ("chaos wan quench", "13aeb93a9ba2819846ec791410401ca6", 380688);
  ]

let test_nstrace_golden () =
  let collect s = { s with Scenario.collect_nstrace = true } in
  let runs =
    ( "wan ebsn seed 3",
      Wiring.run
        (collect (Scenario.wan ~scheme:Scenario.Ebsn ~seed:3 ~file_bytes:10_240 ())) )
    :: ("lan basic", Wiring.run (collect (small_lan ~scheme:Scenario.Basic ~seed:1)))
    :: List.map
         (fun spec ->
           ( spec.Chaos.label,
             Wiring.run ~faults:spec.Chaos.plan (collect spec.Chaos.scenario) ))
         chaos_specs
  in
  List.iter2
    (fun (name, outcome) (gname, md5, len) ->
      Alcotest.(check string) "golden table order" gname name;
      let trace = Option.value outcome.Wiring.nstrace ~default:"" in
      Alcotest.(check string) (name ^ ": nstrace md5") md5
        (Digest.to_hex (Digest.string trace));
      Alcotest.(check int) (name ^ ": nstrace bytes") len (String.length trace))
    runs nstrace_golden;
  let ops =
    List.concat_map
      (fun (_, o) ->
        List.filter_map
          (fun line -> if line = "" then None else Some (String.sub line 0 1))
          (String.split_on_char '\n' (Option.value o.Wiring.nstrace ~default:"")))
      runs
  in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " lines present") true (List.mem op ops))
    [ "+"; "-"; "r"; "d"; "x" ]

(* ------------------------------------------------------------------ *)
(* Randomised Gilbert–Elliott scenarios stay invariant-clean           *)
(* ------------------------------------------------------------------ *)

let prop_checked_random_scenarios =
  QCheck2.Test.make
    ~name:"randomised WAN scenarios run invariant-clean under check"
    ~count:12
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* scheme = oneofl [ Scenario.Basic; Scenario.Ebsn; Scenario.Local_recovery ] in
      let* packet_size = oneofl [ 200; 576; 1000 ] in
      let* mean_bad_sec = float_range 0.5 6.0 in
      let+ mean_good_sec = float_range 2.0 15.0 in
      (seed, scheme, packet_size, mean_bad_sec, mean_good_sec))
    (fun (seed, scheme, packet_size, mean_bad_sec, mean_good_sec) ->
      let scenario =
        Scenario.wan ~scheme ~packet_size ~mean_bad_sec ~mean_good_sec
          ~file_bytes:30_000 ~seed ()
      in
      (* Any Violation escapes and fails the property. *)
      let outcome = Wiring.run ~obs:Obs.Config.checked scenario in
      Simtime.to_ns outcome.Wiring.end_time > 0)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "jsonl",
        [
          Alcotest.test_case "field order" `Quick test_jsonl_field_order;
          Alcotest.test_case "float repr" `Quick test_jsonl_float_repr;
          Alcotest.test_case "escaping" `Quick test_jsonl_escaping;
          qc prop_jsonl_numbers;
          Alcotest.test_case "digits allocate nothing" `Quick
            test_jsonl_digits_allocate_nothing;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_registry_counters_and_gauges;
          Alcotest.test_case "histogram" `Quick test_registry_histogram;
          Alcotest.test_case "disabled noop" `Quick test_registry_disabled_noop;
          Alcotest.test_case "observe_int" `Quick test_registry_observe_int;
          qc prop_registry_equals_reference;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emit" `Quick test_trace_emit;
          qc prop_template_equals_jsonl;
          Alcotest.test_case "invariant require" `Quick test_invariant_require;
        ] );
      ( "checked",
        [
          Alcotest.test_case "wan+lan run clean" `Slow test_checked_runs_clean;
          Alcotest.test_case "checked equals unchecked" `Slow
            test_checked_equals_unchecked;
          Alcotest.test_case "mutation canary" `Quick test_mutation_canary;
          Alcotest.test_case "monotonic stepping" `Quick
            test_time_monotonic_guard;
          qc prop_checked_random_scenarios;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace+metrics identical across jobs" `Slow
            test_obs_output_deterministic;
        ] );
      ( "golden",
        [
          Alcotest.test_case "trace+metrics bytes pinned" `Slow
            test_golden_bytes;
          Alcotest.test_case "chaos cells reach rare trace sites" `Slow
            test_chaos_trace_coverage;
          Alcotest.test_case "ns-trace bytes pinned" `Slow test_nstrace_golden;
        ] );
    ]
