(* Tests for the wireless error models: Channel_state, State_timeline,
   Gilbert_elliott, Deterministic_channel, Uniform_channel, Loss. *)

open Core

let sec = Simtime.span_sec
let at = Simtime.of_ns

(* ------------------------------------------------------------------ *)
(* Channel_state                                                       *)
(* ------------------------------------------------------------------ *)

let test_state_basics () =
  Alcotest.(check bool) "good=good" true
    (Channel_state.equal Channel_state.Good Channel_state.Good);
  Alcotest.(check bool) "good<>bad" false
    (Channel_state.equal Channel_state.Good Channel_state.Bad);
  Alcotest.(check bool) "flip good" true
    (Channel_state.equal (Channel_state.flip Channel_state.Good)
       Channel_state.Bad);
  Alcotest.(check bool) "flip twice" true
    (Channel_state.equal
       (Channel_state.flip (Channel_state.flip Channel_state.Bad))
       Channel_state.Bad)

(* ------------------------------------------------------------------ *)
(* State_timeline                                                      *)
(* ------------------------------------------------------------------ *)

let fixed_timeline ~good ~bad =
  State_timeline.create
    ~duration_of:(function
      | Channel_state.Good -> sec good
      | Channel_state.Bad -> sec bad)
    ()

let total_span segments =
  List.fold_left
    (fun acc (_, d) -> Simtime.span_add acc d)
    Simtime.span_zero segments

let test_timeline_covers_interval () =
  let tl = fixed_timeline ~good:10.0 ~bad:4.0 in
  let segments =
    State_timeline.segments tl ~start:(at 3_000_000_000)
      ~stop:(at 27_000_000_000)
  in
  Alcotest.(check int) "durations cover the interval" 24_000_000_000
    (Simtime.span_to_ns (total_span segments))

let test_timeline_alternates () =
  let tl = fixed_timeline ~good:10.0 ~bad:4.0 in
  let segments =
    State_timeline.segments tl ~start:Simtime.zero ~stop:(at 24_000_000_000)
  in
  let states = List.map fst segments in
  Alcotest.(check int) "three segments" 3 (List.length states);
  match states with
  | [ Channel_state.Good; Channel_state.Bad; Channel_state.Good ] -> ()
  | _ -> Alcotest.fail "expected good/bad/good"

let test_timeline_mid_period_query () =
  let tl = fixed_timeline ~good:10.0 ~bad:4.0 in
  (* [11s, 13s) lies inside the first bad period (10-14s). *)
  match
    State_timeline.segments tl ~start:(at 11_000_000_000)
      ~stop:(at 13_000_000_000)
  with
  | [ (Channel_state.Bad, d) ] ->
    Alcotest.(check int) "two seconds of bad" 2_000_000_000
      (Simtime.span_to_ns d)
  | _ -> Alcotest.fail "expected single bad segment"

let test_timeline_queries_cached () =
  (* Non-monotonic queries must see the same realisation. *)
  let draws = ref 0 in
  let tl =
    State_timeline.create
      ~duration_of:(fun _ ->
        incr draws;
        sec 1.0)
      ()
  in
  let s1 = State_timeline.segments tl ~start:(at 0) ~stop:(at 5_000_000_000) in
  let before = !draws in
  let s2 = State_timeline.segments tl ~start:(at 0) ~stop:(at 5_000_000_000) in
  Alcotest.(check int) "no new draws on replay" before !draws;
  Alcotest.(check bool) "same segments" true (s1 = s2)

let test_timeline_empty_interval () =
  let tl = fixed_timeline ~good:1.0 ~bad:1.0 in
  Alcotest.(check int) "empty" 0
    (List.length (State_timeline.segments tl ~start:(at 5) ~stop:(at 5)))

let test_timeline_positive_duration_enforced () =
  let tl = State_timeline.create ~duration_of:(fun _ -> Simtime.span_zero) () in
  Alcotest.check_raises "zero duration rejected"
    (Invalid_argument "State_timeline: duration must be positive") (fun () ->
      ignore (State_timeline.segments tl ~start:(at 0) ~stop:(at 1)))

(* A period too long for the clock ends at its last instant, and the
   timeline stops there instead of wrapping to negative times. *)
let test_timeline_saturates_at_clock_end () =
  let tl =
    State_timeline.create
      ~duration_of:(function
        | Channel_state.Good -> sec 1.0
        | Channel_state.Bad -> Simtime.max_span)
      ()
  in
  let segments =
    State_timeline.segments tl ~start:Simtime.zero ~stop:(at max_int)
  in
  Alcotest.(check (list int)) "good 1 s, then bad to the clock's end"
    [ 1_000_000_000; max_int - 1_000_000_000 ]
    (List.map (fun (_, d) -> Simtime.span_to_ns d) segments);
  Alcotest.(check int) "no period past the last" 2
    (State_timeline.periods_materialised tl)

let prop_timeline_coverage =
  QCheck2.Test.make ~name:"timeline segments always cover [start,stop)"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 40_000) (int_range 1 40_000))
    (fun (start_ms, len_ms) ->
      let tl = fixed_timeline ~good:3.0 ~bad:2.0 in
      let start = at (start_ms * 1_000_000) in
      let stop = Simtime.add start (Simtime.span_ms len_ms) in
      let segments = State_timeline.segments tl ~start ~stop in
      Simtime.span_to_ns (total_span segments) = len_ms * 1_000_000)

let test_index_at_guards () =
  let tl = fixed_timeline ~good:10.0 ~bad:4.0 in
  (* Before anything is materialised the binary search would read the
     stale ends.(0); guarded instead. *)
  Alcotest.check_raises "empty timeline"
    (Invalid_argument "State_timeline.index_at: empty timeline") (fun () ->
      ignore (State_timeline.index_at tl Simtime.zero));
  (* Materialises periods [0,10s) good and [10s,14s) bad. *)
  ignore
    (State_timeline.segments tl ~start:Simtime.zero ~stop:(at 12_000_000_000));
  Alcotest.(check int) "inside first period" 0
    (State_timeline.index_at tl (at 3_000_000_000));
  Alcotest.(check int) "period end belongs to the next period" 1
    (State_timeline.index_at tl (at 10_000_000_000));
  Alcotest.(check int) "inside last period" 1
    (State_timeline.index_at tl (at 13_999_999_999));
  (* Past the horizon the unguarded search would silently return the
     last index as if the time fell inside it. *)
  Alcotest.check_raises "beyond materialised horizon"
    (Invalid_argument
       "State_timeline.index_at: time beyond materialised horizon") (fun () ->
      ignore (State_timeline.index_at tl (at 14_000_000_000)))

let prop_weighted_seconds_matches_fold =
  (* The allocation-free walk must reproduce the segment-list fold
     bit for bit: same additions, same order, exact float equality. *)
  QCheck2.Test.make ~name:"weighted_seconds == segment fold, exactly"
    ~count:200
    QCheck2.Gen.(
      pair
        (pair (int_range 0 40_000) (int_range 1 40_000))
        (pair (int_range 0 1_000) (int_range 0 1_000)))
    (fun ((start_ms, len_ms), (g_i, b_i)) ->
      let tl = fixed_timeline ~good:3.0 ~bad:2.0 in
      let good = float_of_int g_i *. 0.0192
      and bad = float_of_int b_i *. 1.92 in
      let start = at (start_ms * 1_000_000) in
      let stop = Simtime.add start (Simtime.span_ms len_ms) in
      let weighted_seconds ~start ~stop =
        let w = { State_timeline.good; bad; sum = nan } in
        State_timeline.weigh tl w ~start ~stop;
        w.State_timeline.sum
      in
      let walked = weighted_seconds ~start ~stop in
      let folded =
        List.fold_left
          (fun acc (state, d) ->
            let rate =
              match state with
              | Channel_state.Good -> good
              | Channel_state.Bad -> bad
            in
            acc +. (rate *. Simtime.span_to_sec d))
          0.0
          (State_timeline.segments tl ~start ~stop)
      in
      walked = folded && weighted_seconds ~start ~stop:start = 0.0)

(* ------------------------------------------------------------------ *)
(* Channel wrappers                                                    *)
(* ------------------------------------------------------------------ *)

let test_deterministic_channel () =
  let ch = Deterministic_channel.create ~good:(sec 10.0) ~bad:(sec 4.0) in
  Alcotest.(check bool) "good at start" true
    (Channel_state.equal (Channel.state_at ch Simtime.zero) Channel_state.Good);
  Alcotest.(check bool) "bad at 12s" true
    (Channel_state.equal
       (Channel.state_at ch (at 12_000_000_000))
       Channel_state.Bad);
  Alcotest.(check bool) "good again at 15s" true
    (Channel_state.equal
       (Channel.state_at ch (at 15_000_000_000))
       Channel_state.Good);
  let bad_time =
    Channel.time_in_state ch ~start:Simtime.zero ~stop:(at 28_000_000_000)
      Channel_state.Bad
  in
  Alcotest.(check int) "8s of bad in two cycles" 8_000_000_000
    (Simtime.span_to_ns bad_time)

let test_deterministic_rejects_zero () =
  Alcotest.check_raises "zero period"
    (Invalid_argument "Deterministic_channel.create: zero period") (fun () ->
      ignore (Deterministic_channel.create ~good:Simtime.span_zero ~bad:(sec 1.0)))

let test_uniform_channel () =
  let ch = Uniform_channel.always Channel_state.Bad in
  Alcotest.(check bool) "pinned bad" true
    (Channel_state.equal (Channel.state_at ch (at 123)) Channel_state.Bad);
  let perfect = Uniform_channel.perfect () in
  Alcotest.(check bool) "perfect good" true
    (Channel_state.equal
       (Channel.state_at perfect (at 99_999_999))
       Channel_state.Good)

let test_gilbert_elliott_statistics () =
  let rng = Rng.create ~seed:11 in
  let ch =
    Gilbert_elliott.create ~rng ~mean_good:(sec 10.0) ~mean_bad:(sec 4.0)
  in
  (* Over a long horizon the bad fraction approaches 4/14. *)
  let horizon = at 2_000_000_000_000 (* 2000 s *) in
  let bad =
    Channel.time_in_state ch ~start:Simtime.zero ~stop:horizon
      Channel_state.Bad
  in
  let fraction =
    Simtime.span_to_sec bad /. Simtime.to_sec horizon
  in
  Alcotest.(check bool)
    (Printf.sprintf "bad fraction %.3f near 0.286" fraction)
    true
    (Float.abs (fraction -. (4.0 /. 14.0)) < 0.04)

(* Holding times are clamped to the spans the clock holds.  A 1-ns
   mean draws below 0.5 ns (0 ns once rounded) about 39% of the time,
   and a mean of the largest span draws past it about as often; every
   seed must still give periods that cover the queried interval. *)
let test_gilbert_elliott_extreme_means () =
  let largest = Simtime.max_span in
  List.iter
    (fun (name, mean_good, mean_bad, stop) ->
      for seed = 1 to 20 do
        let ch =
          Gilbert_elliott.create ~rng:(Rng.create ~seed) ~mean_good ~mean_bad
        in
        Alcotest.(check int)
          (Printf.sprintf "%s, seed %d: periods cover the interval" name seed)
          (Simtime.to_ns stop)
          (Simtime.span_to_ns
             (total_span (Channel.segments ch ~start:Simtime.zero ~stop)))
      done)
    [
      ("1-ns bad", sec 10.0, Simtime.span_ns 1, at 1_000_000_000_000);
      ("1-ns good", Simtime.span_ns 1, sec 4.0, at 1_000_000_000_000);
      ("largest good", largest, sec 4.0, at max_int);
      ("largest bad", sec 10.0, largest, at max_int);
    ]

let test_gilbert_elliott_deterministic_by_seed () =
  let build seed =
    let rng = Rng.create ~seed in
    Gilbert_elliott.create ~rng ~mean_good:(sec 10.0) ~mean_bad:(sec 4.0)
  in
  let a = build 5 and b = build 5 in
  let sa = Channel.segments a ~start:Simtime.zero ~stop:(at 100_000_000_000) in
  let sb = Channel.segments b ~start:Simtime.zero ~stop:(at 100_000_000_000) in
  Alcotest.(check bool) "same seed, same realisation" true (sa = sb)

(* ------------------------------------------------------------------ *)
(* Trace_channel                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_channel_replays () =
  let ch =
    Trace_channel.create
      [ (Channel_state.Good, sec 2.0); (Channel_state.Bad, sec 1.0) ]
  in
  Alcotest.(check bool) "good at 1s" true
    (Channel_state.equal (Channel.state_at ch (at 1_000_000_000))
       Channel_state.Good);
  Alcotest.(check bool) "bad at 2.5s" true
    (Channel_state.equal
       (Channel.state_at ch (at 2_500_000_000))
       Channel_state.Bad)

let test_trace_channel_cycles () =
  let ch =
    Trace_channel.create
      [ (Channel_state.Good, sec 2.0); (Channel_state.Bad, sec 1.0) ]
  in
  (* Cycle length 3 s: 7.5 s is 1.5 s into the third cycle -> good. *)
  Alcotest.(check bool) "good at 7.5s (cycled)" true
    (Channel_state.equal
       (Channel.state_at ch (at 7_500_000_000))
       Channel_state.Good);
  Alcotest.(check bool) "bad at 8.5s (cycled)" true
    (Channel_state.equal
       (Channel.state_at ch (at 8_500_000_000))
       Channel_state.Bad);
  let bad =
    Channel.time_in_state ch ~start:Simtime.zero ~stop:(at 9_000_000_000)
      Channel_state.Bad
  in
  Alcotest.(check int) "3s of bad over three cycles" 3_000_000_000
    (Simtime.span_to_ns bad)

let test_trace_channel_holds () =
  let ch =
    Trace_channel.create ~continuation:Trace_channel.Hold
      [ (Channel_state.Good, sec 1.0); (Channel_state.Bad, sec 1.0) ]
  in
  Alcotest.(check bool) "holds final state" true
    (Channel_state.equal
       (Channel.state_at ch (at 50_000_000_000))
       Channel_state.Bad)

let test_trace_channel_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Trace_channel.create: empty trace")
    (fun () -> ignore (Trace_channel.create []));
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Trace_channel.create: non-positive duration") (fun () ->
      ignore (Trace_channel.create [ (Channel_state.Good, Simtime.span_zero) ]))

let test_trace_channel_covers_intervals () =
  let ch =
    Trace_channel.create
      [ (Channel_state.Good, sec 0.7); (Channel_state.Bad, sec 0.3) ]
  in
  let segments =
    Channel.segments ch ~start:(at 350_000_000) ~stop:(at 2_050_000_000)
  in
  let total =
    List.fold_left (fun acc (_, d) -> acc + Simtime.span_to_ns d) 0 segments
  in
  Alcotest.(check int) "durations cover the query" 1_700_000_000 total

(* ------------------------------------------------------------------ *)
(* Loss                                                                *)
(* ------------------------------------------------------------------ *)

let test_expected_errors () =
  let ber = Loss.{ good = 1e-6; bad = 1e-2 } in
  (* 1 second of good + 0.5 s of bad at 19200 bps. *)
  let segments =
    [ (Channel_state.Good, sec 1.0); (Channel_state.Bad, sec 0.5) ]
  in
  let expected = Loss.expected_errors ber ~bits_per_sec:19_200.0 ~segments in
  Alcotest.(check (float 1e-6)) "integral" (0.0192 +. 96.0) expected

let test_loss_probability () =
  Alcotest.(check (float 1e-9)) "zero errors" 0.0
    (Loss.loss_probability ~expected:0.0);
  Alcotest.(check bool) "huge expected ~1" true
    (Loss.loss_probability ~expected:50.0 > 0.999999)

(* The per-frame loss draw allocates nothing once the Gilbert–Elliott
   timeline covers the frames: rates go into the channel's float
   accumulator, and the uniform draw is scaled where it is compared. *)
let test_frame_lost_in_allocates_nothing () =
  let channel =
    Gilbert_elliott.create ~rng:(Rng.create ~seed:5) ~mean_good:(sec 2.0)
      ~mean_bad:(sec 0.5)
  in
  let decision = Loss.Stochastic (Rng.create ~seed:6) in
  let frames = 1_000 and airtime = Simtime.span_ms 80 in
  ignore
    (Channel.segments channel ~start:Simtime.zero
       ~stop:(at ((frames + 1) * Simtime.span_to_ns airtime)));
  let lost = ref 0 in
  let draw () =
    for i = 0 to frames - 1 do
      let start = at (i * Simtime.span_to_ns airtime) in
      if
        Loss.frame_lost_in decision Loss.paper_ber ~bits_per_sec:19_200.0
          ~channel ~start ~stop:(Simtime.add start airtime)
      then incr lost
    done
  in
  draw ();
  let before = Gc.minor_words () in
  draw ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some frames lost, some not" true
    (!lost > 0 && !lost < 2 * frames);
  Alcotest.(check (float 0.0)) "minor words per frame" 0.0
    (words /. float_of_int frames)

let test_threshold_decision () =
  let ber = Loss.paper_ber in
  let good_only = [ (Channel_state.Good, sec 0.08) ] in
  Alcotest.(check bool) "good frame survives" false
    (Loss.frame_lost Loss.Threshold ber ~bits_per_sec:19_200.0
       ~segments:good_only);
  let bad_only = [ (Channel_state.Bad, sec 0.08) ] in
  Alcotest.(check bool) "bad frame lost" true
    (Loss.frame_lost Loss.Threshold ber ~bits_per_sec:19_200.0
       ~segments:bad_only)

let test_stochastic_decision_rates () =
  let rng = Rng.create ~seed:21 in
  let ber = Loss.paper_ber in
  let bad = [ (Channel_state.Bad, sec 0.08) ] in
  let losses = ref 0 in
  let n = 2_000 in
  for _ = 1 to n do
    if
      Loss.frame_lost (Loss.Stochastic rng) ber ~bits_per_sec:19_200.0
        ~segments:bad
    then incr losses
  done;
  Alcotest.(check bool) "bad-state frames nearly always lost" true
    (!losses > n * 99 / 100);
  let good = [ (Channel_state.Good, sec 0.08) ] in
  let losses = ref 0 in
  for _ = 1 to n do
    if
      Loss.frame_lost (Loss.Stochastic rng) ber ~bits_per_sec:19_200.0
        ~segments:good
    then incr losses
  done;
  Alcotest.(check bool) "good-state frames nearly never lost" true
    (!losses < n / 100)

let test_no_errors_never_loses () =
  let rng = Rng.create ~seed:3 in
  let segments = [ (Channel_state.Bad, sec 10.0) ] in
  Alcotest.(check bool) "ber 0" false
    (Loss.frame_lost (Loss.Stochastic rng) Loss.no_errors
       ~bits_per_sec:19_200.0 ~segments)

let prop_loss_monotone_in_exposure =
  QCheck2.Test.make ~name:"expected errors grow with bad-state exposure"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (a_ms, b_ms) ->
      let lo = Stdlib.min a_ms b_ms and hi = Stdlib.max a_ms b_ms in
      let expected ms =
        Loss.expected_errors Loss.paper_ber ~bits_per_sec:19_200.0
          ~segments:[ (Channel_state.Bad, Simtime.span_ms ms) ]
      in
      expected lo <= expected hi)

let prop_batched_loss_equals_per_frame =
  (* The tentpole identity: deciding frame losses through the
     channel-direct weighted walk must match the original per-frame
     segment-list fold — same decisions, same decision-stream draws,
     same channel randomness consumed — across random Gilbert–Elliott
     parameters, seeds and frame schedules. *)
  QCheck2.Test.make
    ~name:"channel-direct loss == per-frame segment draws (GE, random seeds)"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 1 1_000_000)
        (pair (int_range 50 20_000) (int_range 20 8_000))
        (list_size (int_range 1 50)
           (pair (int_range 0 3_000) (int_range 1 400))))
    (fun (seed, (good_ms, bad_ms), frames) ->
      let make_channel () =
        let rng = Rng.create ~seed in
        Gilbert_elliott.create ~rng
          ~mean_good:(Simtime.span_ms good_ms)
          ~mean_bad:(Simtime.span_ms bad_ms)
      in
      let direct_ch = make_channel () and folded_ch = make_channel () in
      let direct_rng = Rng.create ~seed:(seed + 7)
      and folded_rng = Rng.create ~seed:(seed + 7) in
      let ber = Loss.paper_ber in
      let bits_per_sec = 19_200.0 in
      let cursor = ref Simtime.zero in
      let agree = ref true in
      List.iter
        (fun (gap_ms, air_us) ->
          let start = Simtime.add !cursor (Simtime.span_ms gap_ms) in
          let stop = Simtime.add start (Simtime.span_us air_us) in
          cursor := stop;
          let direct =
            Loss.frame_lost_in (Loss.Stochastic direct_rng) ber ~bits_per_sec
              ~channel:direct_ch ~start ~stop
          in
          let folded =
            Loss.frame_lost (Loss.Stochastic folded_rng) ber ~bits_per_sec
              ~segments:(Channel.segments folded_ch ~start ~stop)
          in
          if direct <> folded then agree := false)
        frames;
      (* Both decision streams and both channel streams must be in the
         same position afterwards: any divergence in consumption shows
         up in the next draw / the next materialised periods. *)
      let horizon = Simtime.add !cursor (Simtime.span_ms 5_000) in
      !agree
      && Rng.bits64 direct_rng = Rng.bits64 folded_rng
      && Channel.segments direct_ch ~start:!cursor ~stop:horizon
         = Channel.segments folded_ch ~start:!cursor ~stop:horizon)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "errors"
    [
      ( "channel_state",
        [ Alcotest.test_case "basics" `Quick test_state_basics ] );
      ( "state_timeline",
        [
          Alcotest.test_case "covers interval" `Quick
            test_timeline_covers_interval;
          Alcotest.test_case "alternates" `Quick test_timeline_alternates;
          Alcotest.test_case "mid-period query" `Quick
            test_timeline_mid_period_query;
          Alcotest.test_case "queries cached" `Quick test_timeline_queries_cached;
          Alcotest.test_case "empty interval" `Quick test_timeline_empty_interval;
          Alcotest.test_case "positive durations" `Quick
            test_timeline_positive_duration_enforced;
          Alcotest.test_case "index_at guards" `Quick test_index_at_guards;
          Alcotest.test_case "saturates at the clock's end" `Quick
            test_timeline_saturates_at_clock_end;
          qc prop_timeline_coverage;
          qc prop_weighted_seconds_matches_fold;
        ] );
      ( "channels",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_channel;
          Alcotest.test_case "deterministic rejects zero" `Quick
            test_deterministic_rejects_zero;
          Alcotest.test_case "uniform" `Quick test_uniform_channel;
          Alcotest.test_case "gilbert-elliott statistics" `Slow
            test_gilbert_elliott_statistics;
          Alcotest.test_case "gilbert-elliott determinism" `Quick
            test_gilbert_elliott_deterministic_by_seed;
          Alcotest.test_case "gilbert-elliott extreme means" `Quick
            test_gilbert_elliott_extreme_means;
        ] );
      ( "trace_channel",
        [
          Alcotest.test_case "replays" `Quick test_trace_channel_replays;
          Alcotest.test_case "cycles" `Quick test_trace_channel_cycles;
          Alcotest.test_case "holds" `Quick test_trace_channel_holds;
          Alcotest.test_case "validation" `Quick test_trace_channel_validation;
          Alcotest.test_case "covers intervals" `Quick
            test_trace_channel_covers_intervals;
        ] );
      ( "loss",
        [
          Alcotest.test_case "expected errors" `Quick test_expected_errors;
          Alcotest.test_case "loss probability" `Quick test_loss_probability;
          Alcotest.test_case "threshold decision" `Quick test_threshold_decision;
          Alcotest.test_case "stochastic rates" `Slow
            test_stochastic_decision_rates;
          Alcotest.test_case "no errors never loses" `Quick
            test_no_errors_never_loses;
          qc prop_loss_monotone_in_exposure;
          qc prop_batched_loss_equals_per_frame;
          Alcotest.test_case "frame_lost_in allocates nothing" `Quick
            test_frame_lost_in_allocates_nothing;
        ] );
    ]
