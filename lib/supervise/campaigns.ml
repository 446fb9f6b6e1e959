(* Campaign kinds: the one runner behind [wtcp compare], [wtcp advisor]
   and [wtcp chaos].  A kind builds keyed cells, settles them and
   renders the outcomes into the command's report.  Plain, each cell
   runs once on the domain pool; checkpointed, the same cells run
   under the supervisor (manifest, deadlines, retries, resume).  The
   report is a function of the settled outcomes only, so both print
   the same bytes.

   Everything a campaign needs to rebuild its cells is captured in a
   single-line [spec] (floats carried as hex "%h" literals, so the
   round-trip is exact) — that line is what the manifest pins and what
   [wtcp resume] parses.  Supervisor runtime stats never reach the
   report, so an interrupted-and-resumed campaign prints
   byte-identically to an uninterrupted one at any [jobs]. *)

type preset = Wan | Lan

type kind =
  | Chaos of {
      plans : int;
      base_seed : int;
      cc : Tcp_tahoe.Tcp_config.cc option;
      check : bool;
    }
  | Compare of {
      preset : preset;
      packet_size : int option;
      bad : float option;
      good : float option;
      file : int option;
      seed : int;
      replications : int;
      cc : Tcp_tahoe.Tcp_config.cc;
    }
  | Advisor of { bads : float list; replications : int }

type options = { deadline : int option; retries : int; resume : bool }

let default_options = { deadline = None; retries = 3; resume = false }

type report = {
  rendered : string;
  json : string option;
  ok : bool;
  total : int;
  completed : int;
  resumed : int;
  quarantined : int;
  interrupted : bool;
  manifest_path : string option;
}

let preset_name = function Wan -> "wan" | Lan -> "lan"

let scenario preset ?packet_size ?bad ?good ?file ?error_mode ?seed scheme =
  (match preset with
  | Wan -> Topology.Scenario.wan
  | Lan -> Topology.Scenario.lan)
    ~scheme ?packet_size ?mean_bad_sec:bad ?mean_good_sec:good
    ?file_bytes:file ?error_mode ?seed ()

(* ------------------------------------------------------------------ *)
(* Input ranges                                                        *)
(* ------------------------------------------------------------------ *)

(* [Simtime.span_sec] rounds to whole nanoseconds; as a float the
   largest span is 2^62, the first value past it. *)
let max_span_ns =
  Float.of_int Sim_engine.Simtime.(span_to_ns max_span)

let span_in_range sec =
  let ns = Float.round (sec *. 1e9) in
  ns >= 1.0 && ns < max_span_ns

(* A channel's timeline keeps every period it draws, so a run whose
   periods are tiny fills memory long before its file moves.  Two
   periods per mean good+bad cycle over the preset's horizon may not
   pass [max_periods]. *)
let max_periods = 1 lsl 22

let check_inputs ~preset ~packet_size ~periods ~channels =
  let s = scenario preset Topology.Scenario.Basic in
  let tcp = s.Topology.Scenario.tcp in
  let header = tcp.Tcp_tahoe.Tcp_config.header_bytes in
  let window = tcp.Tcp_tahoe.Tcp_config.window in
  let out_of_range (_, sec) =
    match sec with Some sec -> not (span_in_range sec) | None -> false
  in
  let sec = Sim_engine.Simtime.span_to_sec in
  let min_cycle = 2.0 *. sec s.Topology.Scenario.horizon /. float max_periods in
  let cycle (bad, good) =
    let w = s.Topology.Scenario.wireless in
    Option.value bad ~default:(sec w.Topology.Scenario.mean_bad)
    +. Option.value good ~default:(sec w.Topology.Scenario.mean_good)
  in
  match
    ( packet_size,
      List.find_opt out_of_range periods,
      List.find_opt (fun c -> cycle c < min_cycle) channels )
  with
  | Some size, _, _ when size <= header || size - header > window ->
    Error
      (Printf.sprintf
         "packet size %d B is outside %d..%d B (the %s preset's %d-B \
          header plus its %d-B TCP window)"
         size (header + 1) (header + window) (preset_name preset) header
         window)
  | _, Some (name, Some sec), _ ->
    Error
      (Printf.sprintf "%s %g s is outside the 1 ns..%g s the simulator holds"
         name sec
         ((max_span_ns -. 1.0) /. 1e9))
  | _, _, Some c ->
    Error
      (Printf.sprintf
         "mean good + bad period %g s is under the %g s that keeps a %s \
          run within %d channel periods"
         (cycle c) min_cycle (preset_name preset) max_periods)
  | _ -> Ok ()

(* What the CLI's convs check one flag at a time, plus
   [check_inputs], so a spec read back from a manifest is held to the
   same ranges as the command line that wrote it. *)
let check_kind = function
  | Chaos { plans; _ } when plans < 1 -> Error "plans must be positive"
  | Chaos _ -> Ok ()
  | Compare { replications; file; _ }
    when replications < 1 || Option.fold ~none:false ~some:(fun f -> f < 1) file
    ->
    Error "replications and file size must be positive"
  | Compare { preset; packet_size; bad; good; _ } ->
    check_inputs ~preset ~packet_size
      ~periods:[ ("bad period", bad); ("good period", good) ]
      ~channels:[ (bad, good) ]
  | Advisor { replications; _ } when replications < 1 ->
    Error "replications must be positive"
  | Advisor { bads; _ } ->
    check_inputs ~preset:Wan ~packet_size:None
      ~periods:(List.map (fun b -> ("bad period", Some b)) bads)
      ~channels:(List.map (fun b -> (Some b, None)) bads)

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)
(* ------------------------------------------------------------------ *)

let preset_of_name s = List.find_opt (fun p -> preset_name p = s) [ Wan; Lan ]

(* Floats as exact hex literals; an absent optional value as "-". *)
let hex = Printf.sprintf "%h"
let show_opt show = Option.fold ~none:"-" ~some:show

let spec_string = function
  | Chaos { plans; base_seed; cc; check } ->
    Printf.sprintf "chaos plans=%d seed=%d cc=%s check=%d" plans base_seed
      (show_opt Tcp_tahoe.Tcp_config.cc_name cc)
      (if check then 1 else 0)
  | Compare { preset; packet_size; bad; good; file; seed; replications; cc } ->
    Printf.sprintf "compare preset=%s cc=%s size=%s bad=%s good=%s file=%s \
                    seed=%d reps=%d"
      (preset_name preset)
      (Tcp_tahoe.Tcp_config.cc_name cc)
      (show_opt string_of_int packet_size)
      (show_opt hex bad) (show_opt hex good) (show_opt string_of_int file) seed
      replications
  | Advisor { bads; replications } ->
    Printf.sprintf "advisor bads=%s reps=%d"
      (String.concat "," (List.map hex bads))
      replications

let kind_of_spec line =
  let ( let* ) = Option.bind in
  let kvs =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> None
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) ))
      (String.split_on_char ' ' line)
  in
  let str k = List.assoc_opt k kvs in
  let int k = Option.bind (str k) int_of_string_opt in
  let opt parse k =
    match str k with
    | Some "-" -> Some None
    | Some s -> Option.map Option.some (parse s)
    | None -> None
  in
  let parsed =
    match String.split_on_char ' ' line with
    | "chaos" :: _ ->
      let* plans = int "plans" in
      let* base_seed = int "seed" in
      let* check = int "check" in
      let* cc = opt Tcp_tahoe.Tcp_config.cc_of_name "cc" in
      Some (Chaos { plans; base_seed; cc; check = check <> 0 })
    | "compare" :: _ ->
      let* preset = Option.bind (str "preset") preset_of_name in
      let* cc = Option.bind (str "cc") Tcp_tahoe.Tcp_config.cc_of_name in
      let* packet_size = opt int_of_string_opt "size" in
      let* bad = opt float_of_string_opt "bad" in
      let* good = opt float_of_string_opt "good" in
      let* file = opt int_of_string_opt "file" in
      let* seed = int "seed" in
      let* replications = int "reps" in
      Some
        (Compare { preset; packet_size; bad; good; file; seed; replications; cc })
    | "advisor" :: _ ->
      let* raw = str "bads" in
      let bads = List.map float_of_string_opt (String.split_on_char ',' raw) in
      let* replications = int "reps" in
      if List.mem None bads then None
      else Some (Advisor { bads = List.filter_map Fun.id bads; replications })
    | _ -> None
  in
  match parsed with
  | None -> Error (Printf.sprintf "unparseable campaign spec: %s" line)
  | Some k -> (
    match check_kind k with
    | Ok () -> Ok k
    | Error msg ->
      Error (Printf.sprintf "campaign spec out of range (%s): %s" msg line))

(* ------------------------------------------------------------------ *)
(* Shared driver                                                       *)
(* ------------------------------------------------------------------ *)

(* Every cell once on the domain pool, merged by index: no manifest,
   no deadline, no retry and no quarantine, so a cell's exception
   propagates to the caller. *)
let run_plain ~jobs cells =
  {
    Supervisor.outcomes =
      Sim_engine.Parallel.map_array ~jobs
        (fun c -> Some (Supervisor.Done (c.Supervisor.simulate ())))
        cells;
    completed = Array.length cells;
    resumed = 0;
    quarantined = 0;
    interrupted = false;
    manifest_path = None;
  }

let count_quarantined outcomes =
  Array.fold_left
    (fun acc o ->
      match o with Some (Supervisor.Quarantined _) -> acc + 1 | _ -> acc)
    0 outcomes

let partial_header total outcomes =
  let settled =
    Array.fold_left
      (fun acc o -> if o = None then acc else acc + 1)
      0 outcomes
  in
  Printf.sprintf "partial: %d/%d cells settled (resume to finish)\n" settled
    total

let assemble ~(sup : 'a Supervisor.report) ~ok ~rendered ~json =
  let total = Array.length sup.Supervisor.outcomes in
  let rendered =
    if sup.Supervisor.interrupted then
      partial_header total sup.Supervisor.outcomes ^ rendered
    else rendered
  in
  {
    rendered;
    json;
    ok;
    total;
    completed = sup.Supervisor.completed;
    resumed = sup.Supervisor.resumed;
    quarantined = count_quarantined sup.Supervisor.outcomes;
    interrupted = sup.Supervisor.interrupted;
    manifest_path = sup.Supervisor.manifest_path;
  }

let quarantined_line label ~attempts ~error =
  Printf.sprintf "QUARANTINED %s (attempts=%d): %s\n" label attempts error

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* A chaos payload key must cover [check]: the same (scenario, plan)
   cell yields a different result record when the invariant checkers
   are on, so the two must never share a key. *)
let chaos_key ~check sp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "chaos check=%b %s" check
          (Repcache.Fingerprint.key ~faults:sp.Experiments.Chaos.plan
             sp.Experiments.Chaos.scenario)))

let chaos_cells ~plans ~base_seed ~cc ~check =
  let specs = Experiments.Chaos.specs ?cc ~plans ~base_seed () in
  ( Array.of_list specs,
    Array.of_list
      (List.map
         (fun sp ->
           {
             Supervisor.key = chaos_key ~check sp;
             simulate = (fun () -> Experiments.Chaos.run_spec ~check sp);
             encode = Experiments.Chaos.result_to_string;
             decode = Experiments.Chaos.result_of_string sp;
           })
         specs) )

(* Applied-fault counts summed across runs, omitting kinds that never
   fired, in [Fault.all_kinds] order. *)
let injected_totals results =
  List.map
    (fun kind ->
      ( kind,
        List.fold_left
          (fun acc r ->
            acc
            + Option.value ~default:0
                (List.assoc_opt kind r.Experiments.Chaos.injected))
          0 results ))
    Error_model.Fault.all_kinds
  |> List.filter (fun (_, n) -> n > 0)

let json_string s =
  let b = Buffer.create (String.length s + 8) in
  Obs.Jsonl.add_value b (Obs.Jsonl.Str s);
  Buffer.contents b

(* The chaos text report and its JSON, from one tally.  Quarantined
   cells count in the headline and list like FAULT lines, but do not
   fail the campaign — that is the whole point of quarantine. *)
let chaos_report specs outcomes =
  let module C = Experiments.Chaos in
  let results =
    List.filter_map
      (function Some (Supervisor.Done r) -> Some r | _ -> None)
      (Array.to_list outcomes)
  in
  let count p = List.length (List.filter (fun r -> p r.C.status) results) in
  let faulted = count (function C.Faulted _ -> true | _ -> false) in
  let uncaught = count (function C.Uncaught _ -> true | _ -> false) in
  let ok = faulted = 0 && uncaught = 0 in
  let tallies =
    [
      ("completed", count (( = ) (C.Clean { completed = true })));
      ("degraded", count (( = ) (C.Clean { completed = false })));
      ("faulted", faulted);
      ("uncaught", uncaught);
      ("quarantined", count_quarantined outcomes);
    ]
  in
  let injected =
    List.map
      (fun (kind, n) -> (Error_model.Fault.kind_name kind, n))
      (injected_totals results)
  in
  (* Per settled cell: its line in the text report ("" when clean) and
     its JSON record. *)
  let runs =
    List.filter_map Fun.id
      (List.mapi
         (fun i outcome ->
           let sp = specs.(i) in
           let plan = Faults.Plan.to_string sp.C.plan in
           let record status detail events tput =
             Printf.sprintf
               "    {\"label\": %s, \"plan\": %s, \"status\": \"%s\", \
                \"detail\": %s, \"events\": %d, \"throughput_bps\": %.1f}"
               (json_string sp.C.label) (json_string plan) status
               (json_string detail) events tput
           in
           let line tag detail =
             Printf.sprintf "%s %s (%s): %s\n" tag sp.C.label plan detail
           in
           match outcome with
           | None -> None
           | Some (Supervisor.Done r) ->
             let text, status, detail =
               match r.C.status with
               | C.Clean { completed = true } -> ("", "completed", "")
               | C.Clean { completed = false } -> ("", "degraded", "")
               | C.Faulted { rendered; _ } ->
                 (line "FAULT" rendered, "faulted", rendered)
               | C.Uncaught msg -> (line "UNCAUGHT" msg, "uncaught", msg)
             in
             Some
               ( text,
                 record status detail r.C.events_executed r.C.throughput_bps )
           | Some (Supervisor.Quarantined { attempts; error }) ->
             Some
               ( quarantined_line sp.C.label ~attempts ~error,
                 record "quarantined" error 0 0.0 ))
         (Array.to_list outcomes))
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "plans=%d" (Array.length outcomes);
  List.iter (fun (name, n) -> Printf.bprintf b "  %s=%d" name n) tallies;
  Printf.bprintf b "\ninjected faults: %s\n"
    (match injected with
    | [] -> "(none)"
    | l ->
      String.concat "  "
        (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) l));
  List.iter (fun (text, _) -> Buffer.add_string b text) runs;
  let j = Buffer.create 4096 in
  Printf.bprintf j "{\n  \"plans\": %d,\n  \"ok\": %b,\n"
    (Array.length outcomes) ok;
  List.iter
    (fun (name, n) -> Printf.bprintf j "  \"%s\": %d,\n" name n)
    tallies;
  Printf.bprintf j "  \"injected\": {%s},\n  \"runs\": [\n%s\n  ]\n}\n"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n) injected))
    (String.concat ",\n" (List.map snd runs));
  (Buffer.contents b, Buffer.contents j, ok)

(* ------------------------------------------------------------------ *)
(* Measurement cells (compare, advisor)                                *)
(* ------------------------------------------------------------------ *)

(* Through the cache, except under a deadline: a hit spends no
   simulated events, so it would meet any budget, and whether a cell
   meets its deadline would depend on what the cache holds. *)
let measurement_cell scenario =
  {
    Supervisor.key = Repcache.Fingerprint.key scenario;
    simulate =
      (fun () ->
        match Sim_engine.Simulator.default_budget () with
        | Some _ -> Experiments.Run.measure scenario
        | None -> Experiments.Run.measure_cached scenario);
    encode = Experiments.Run.measurement_to_string;
    decode = Experiments.Run.measurement_of_string;
  }

(* One cell per (row, replication), on [Sweep]'s seeded grid with
   every seed shifted by [seed - 1], so at seed 1 a row aggregates the
   measurements a sweep over the same scenario would: each cell's label
   (for its QUARANTINED line) and the cell itself. *)
let measurement_cells ?(seed = 1) ~rows ~replications scenario_of_row =
  let shift (r : Topology.Scenario.t) = { r with seed = r.seed + seed - 1 } in
  let runs =
    Array.map shift
      (Experiments.Sweep.seeded_runs ~replications
         (Array.map (fun (_, row) -> scenario_of_row row) rows))
  in
  ( Array.mapi
      (fun i run ->
        Printf.sprintf "%s seed=%d"
          (fst rows.(i / replications))
          run.Topology.Scenario.seed)
      runs,
    Array.map measurement_cell runs )

(* The [Done] measurements of one row's replications: a quarantined
   cell is listed under the table, never averaged in. *)
let done_measurements outcomes ~lo ~len =
  List.filter_map
    (fun i ->
      match outcomes.(i) with
      | Some (Supervisor.Done m) -> Some m
      | Some (Supervisor.Quarantined _) | None -> None)
    (List.init len (fun k -> lo + k))

let add_quarantined_lines b labels outcomes =
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Some (Supervisor.Quarantined { attempts; error }) ->
        Buffer.add_string b (quarantined_line labels.(i) ~attempts ~error)
      | Some (Supervisor.Done _) | None -> ())
    outcomes

let mean f ms = Metrics.Summary.mean (List.map f ms)

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cells ~preset ~packet_size ~bad ~good ~file ~seed ~replications ~cc
    =
  measurement_cells ~seed ~replications
    ~rows:
      (Array.of_list
         (List.map
            (fun scheme -> (Topology.Scenario.scheme_name scheme, scheme))
            Topology.Scenario.all_schemes))
    (fun scheme ->
      Topology.Scenario.with_cc
        (scenario preset ?packet_size ?bad ?good ?file scheme)
        cc)

let compare_render ~replications labels outcomes =
  let module S = Experiments.Sweep in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-16s %10s %9s %9s %9s\n" "scheme" "tput kbps" "goodput"
       "retx KB" "timeouts");
  List.iteri
    (fun si scheme ->
      match
        done_measurements outcomes ~lo:(si * replications) ~len:replications
      with
      | [] -> ()
      | ms ->
        Buffer.add_string b
          (Printf.sprintf "%-16s %10.2f %9.3f %9.1f %9.1f\n"
             (Topology.Scenario.scheme_name scheme)
             (mean S.throughput ms /. 1e3)
             (mean S.goodput ms)
             (mean S.retransmitted_kbytes ms)
             (mean S.timeouts ms)))
    Topology.Scenario.all_schemes;
  add_quarantined_lines b labels outcomes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

module Size_advisor = Experiments.Packet_size_advisor

let candidates = Array.of_list Size_advisor.default_candidates

let advisor_cells ~bads ~replications =
  measurement_cells ~replications
    ~rows:
      (Array.of_list
         (List.concat_map
            (fun bad ->
              List.map
                (fun size ->
                  (Printf.sprintf "bad=%g size=%d" bad size, (bad, size)))
                Size_advisor.default_candidates)
            bads))
    (fun (bad, size) ->
      Topology.Scenario.wan ~scheme:Topology.Scenario.Basic ~packet_size:size
        ~mean_bad_sec:bad ())

let advisor_render ~bads ~replications labels outcomes =
  let nc = Array.length candidates in
  let b = Buffer.create 256 in
  Buffer.add_string b "bad(s)  best packet size  throughput\n";
  List.iteri
    (fun bi mean_bad_sec ->
      let sweep =
        List.filter_map
          (fun c ->
            let lo = ((bi * nc) + c) * replications in
            match done_measurements outcomes ~lo ~len:replications with
            | [] -> None
            | ms -> Some (candidates.(c), mean Experiments.Sweep.throughput ms))
          (List.init nc Fun.id)
      in
      if sweep <> [] then begin
        let e = Size_advisor.entry_of_sweep ~mean_bad_sec sweep in
        Buffer.add_string b
          (Printf.sprintf "%-7.1f %-17d %.2f kbit/s (%+.0f%% vs worst)\n"
             e.Size_advisor.mean_bad_sec e.Size_advisor.best_size
             (e.Size_advisor.best_throughput_bps /. 1e3)
             (100.0 *. e.Size_advisor.gain_over_worst))
      end)
    bads;
  add_quarantined_lines b labels outcomes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let cell_count = function
  | Chaos { plans; _ } -> plans
  | Compare { replications; _ } ->
    List.length Topology.Scenario.all_schemes * replications
  | Advisor { bads; replications } ->
    List.length bads * Array.length candidates * replications

let run ?(jobs = 1) ?options ?wave_size ?sabotage ?should_stop ?manifest_dir
    ?store_dir kind =
  let settle cells =
    match options with
    | None -> run_plain ~jobs cells
    | Some options ->
      let spec = spec_string kind in
      let manifest_dir =
        match (manifest_dir, store_dir) with
        | Some d, _ -> d
        | None, Some d -> Filename.concat d "campaigns"
        | None, None -> Filename.concat (Repcache.Cache.dir ()) "campaigns"
      in
      (* A fresh (non-resume) run deletes any manifest a previous
         identically-shaped campaign left behind, so [--resume] is
         always an explicit request, never an accident. *)
      if not options.resume then begin
        let keys = Array.map (fun c -> c.Supervisor.key) cells in
        let id = Supervisor.campaign_id ~spec ~keys in
        try Sys.remove (Manifest.path ~dir:manifest_dir ~id)
        with Sys_error _ -> ()
      end;
      let config =
        {
          Supervisor.default_config with
          deadline_events = options.deadline;
          max_attempts = options.retries;
          wave_size;
        }
      in
      Supervisor.run ~config ~jobs ~spec ~manifest_dir ?sabotage ?should_stop
        cells
  in
  match kind with
  | Chaos { plans; base_seed; cc; check } ->
    let specs, cells = chaos_cells ~plans ~base_seed ~cc ~check in
    let sup = settle cells in
    let rendered, json, ok = chaos_report specs sup.Supervisor.outcomes in
    assemble ~sup ~ok ~rendered ~json:(Some json)
  | Compare { preset; packet_size; bad; good; file; seed; replications; cc } ->
    let labels, cells =
      compare_cells ~preset ~packet_size ~bad ~good ~file ~seed ~replications
        ~cc
    in
    let sup = settle cells in
    let rendered =
      compare_render ~replications labels sup.Supervisor.outcomes
    in
    assemble ~sup ~ok:true ~rendered ~json:None
  | Advisor { bads; replications } ->
    let labels, cells = advisor_cells ~bads ~replications in
    let sup = settle cells in
    let rendered =
      advisor_render ~bads ~replications labels sup.Supervisor.outcomes
    in
    assemble ~sup ~ok:true ~rendered ~json:None
