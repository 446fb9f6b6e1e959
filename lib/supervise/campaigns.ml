(* Campaign kinds over the supervisor: the glue that turns a CLI
   request (compare / advisor / chaos) into supervised cells and the
   settled outcomes back into the exact report the unsupervised CLI
   path prints.

   Everything a campaign needs to rebuild its cells is captured in a
   single-line [spec] (floats carried as hex "%h" literals, so the
   round-trip is exact) — that line is what the manifest pins and what
   [wtcp resume] parses.  The rendered report and JSON are functions
   of the settled outcomes only, never of supervisor runtime stats, so
   an interrupted-and-resumed campaign prints byte-identically to an
   uninterrupted one at any [jobs]. *)

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

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)
(* ------------------------------------------------------------------ *)

let preset_name = function Wan -> "wan" | Lan -> "lan"

let preset_of_name = function
  | "wan" -> Some Wan
  | "lan" -> Some Lan
  | _ -> None

let opt_int = function None -> "-" | Some n -> string_of_int n
let opt_float = function None -> "-" | Some f -> Printf.sprintf "%h" f

let spec_string = function
  | Chaos { plans; base_seed; cc; check } ->
    Printf.sprintf "chaos plans=%d seed=%d cc=%s check=%d" plans base_seed
      (match cc with
      | None -> "-"
      | Some cc -> Tcp_tahoe.Tcp_config.cc_name cc)
      (if check then 1 else 0)
  | Compare { preset; packet_size; bad; good; file; seed; replications; cc } ->
    Printf.sprintf "compare preset=%s cc=%s size=%s bad=%s good=%s file=%s \
                    seed=%d reps=%d"
      (preset_name preset)
      (Tcp_tahoe.Tcp_config.cc_name cc)
      (opt_int packet_size) (opt_float bad) (opt_float good) (opt_int file)
      seed replications
  | Advisor { bads; replications } ->
    Printf.sprintf "advisor bads=%s reps=%d"
      (String.concat "," (List.map (Printf.sprintf "%h") bads))
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
  let int_opt k =
    match str k with
    | Some "-" -> Some None
    | Some s -> Option.map Option.some (int_of_string_opt s)
    | None -> None
  in
  let float_opt k =
    match str k with
    | Some "-" -> Some None
    | Some s -> Option.map Option.some (float_of_string_opt s)
    | None -> None
  in
  let parsed =
    match String.split_on_char ' ' line with
    | "chaos" :: _ ->
      let* plans = int "plans" in
      let* base_seed = int "seed" in
      let* check = int "check" in
      let* cc =
        match str "cc" with
        | Some "-" -> Some None
        | Some name -> Option.map Option.some (Tcp_tahoe.Tcp_config.cc_of_name name)
        | None -> None
      in
      Some (Chaos { plans; base_seed; cc; check = check <> 0 })
    | "compare" :: _ ->
      let* preset = Option.bind (str "preset") preset_of_name in
      let* cc = Option.bind (str "cc") Tcp_tahoe.Tcp_config.cc_of_name in
      let* packet_size = int_opt "size" in
      let* bad = float_opt "bad" in
      let* good = float_opt "good" in
      let* file = int_opt "file" in
      let* seed = int "seed" in
      let* replications = int "reps" in
      Some
        (Compare { preset; packet_size; bad; good; file; seed; replications; cc })
    | "advisor" :: _ ->
      let* raw = str "bads" in
      let* bads =
        List.fold_right
          (fun s acc ->
            let* tl = acc in
            let* f = float_of_string_opt s in
            Some (f :: tl))
          (String.split_on_char ',' raw)
          (Some [])
      in
      let* replications = int "reps" in
      Some (Advisor { bads; replications })
    | _ -> None
  in
  match parsed with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unparseable campaign spec: %s" line)

(* ------------------------------------------------------------------ *)
(* Shared driver                                                       *)
(* ------------------------------------------------------------------ *)

let config_of ?wave_size options =
  {
    Supervisor.deadline_events = options.deadline;
    max_attempts = options.retries;
    relax_factor = 8;
    wave_size;
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

(* The placeholder a quarantined measurement cell aggregates as: an
   incomplete transfer that moved no data.  Keeps the row shapes
   stable without inventing numbers. *)
let quarantined_measurement =
  {
    Experiments.Run.throughput_bps = 0.0;
    goodput = 0.0;
    retransmitted_kbytes = 0.0;
    source_timeouts = 0;
    fast_retransmits = 0;
    ebsn_received = 0;
    duration_sec = Float.infinity;
    completed = false;
  }

(* Settled measurements of one cell block (e.g. one scheme's
   replications): Done payloads plus quarantine placeholders, skipping
   cells an interrupt left unsettled. *)
let settled_measurements outcomes ~lo ~len =
  List.filter_map
    (fun i ->
      match outcomes.(i) with
      | Some (Supervisor.Done m) -> Some m
      | Some (Supervisor.Quarantined _) -> Some quarantined_measurement
      | None -> None)
    (List.init len (fun k -> lo + k))

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

(* Mirrors [Chaos.render] / [Chaos.to_json] with a quarantined bucket:
   quarantined cells count in the headline and list like FAULT lines,
   but do not fail the campaign — that is the whole point of
   quarantine. *)
let chaos_render specs outcomes =
  let module C = Experiments.Chaos in
  let settled =
    List.filter_map Fun.id (Array.to_list outcomes)
  in
  let done_results =
    List.filter_map
      (function Supervisor.Done r -> Some r | Supervisor.Quarantined _ -> None)
      settled
  in
  let count p = List.length (List.filter p done_results) in
  let completed = count (fun r -> r.C.status = C.Clean { completed = true }) in
  let degraded = count (fun r -> r.C.status = C.Clean { completed = false }) in
  let faulted =
    count (fun r -> match r.C.status with C.Faulted _ -> true | _ -> false)
  in
  let uncaught =
    count (fun r -> match r.C.status with C.Uncaught _ -> true | _ -> false)
  in
  let quarantined = count_quarantined outcomes in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "plans=%d  completed=%d  degraded=%d  faulted=%d  uncaught=%d  \
        quarantined=%d\n"
       (Array.length outcomes) completed degraded faulted uncaught quarantined);
  Buffer.add_string b "injected faults: ";
  (match C.injected_totals done_results with
  | [] -> Buffer.add_string b "(none)\n"
  | totals ->
    Buffer.add_string b
      (String.concat "  "
         (List.map
            (fun (kind, n) ->
              Printf.sprintf "%s=%d" (Error_model.Fault.kind_name kind) n)
            totals));
    Buffer.add_char b '\n');
  Array.iteri
    (fun i outcome ->
      let sp = specs.(i) in
      match outcome with
      | None | Some (Supervisor.Done { C.status = C.Clean _; _ }) -> ()
      | Some (Supervisor.Done { C.status = C.Faulted { rendered; _ }; _ }) ->
        Buffer.add_string b
          (Printf.sprintf "FAULT %s (%s): %s\n" sp.C.label
             (Faults.Plan.to_string sp.C.plan)
             rendered)
      | Some (Supervisor.Done { C.status = C.Uncaught msg; _ }) ->
        Buffer.add_string b
          (Printf.sprintf "UNCAUGHT %s (%s): %s\n" sp.C.label
             (Faults.Plan.to_string sp.C.plan)
             msg)
      | Some (Supervisor.Quarantined { attempts; error }) ->
        Buffer.add_string b
          (Printf.sprintf "QUARANTINED %s (attempts=%d): %s\n" sp.C.label
             attempts error))
    outcomes;
  let ok =
    faulted = 0 && uncaught = 0
  in
  (Buffer.contents b, ok)

let chaos_json specs outcomes =
  let module C = Experiments.Chaos in
  let b = Buffer.create 4096 in
  let done_results =
    List.filter_map
      (function
        | Some (Supervisor.Done r) -> Some r
        | Some (Supervisor.Quarantined _) | None -> None)
      (Array.to_list outcomes)
  in
  let count p = List.length (List.filter p done_results) in
  let faulted =
    count (fun r -> match r.C.status with C.Faulted _ -> true | _ -> false)
  in
  let uncaught =
    count (fun r -> match r.C.status with C.Uncaught _ -> true | _ -> false)
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"plans\": %d,\n" (Array.length outcomes));
  Buffer.add_string b
    (Printf.sprintf "  \"ok\": %b,\n" (faulted = 0 && uncaught = 0));
  Buffer.add_string b
    (Printf.sprintf "  \"completed\": %d,\n"
       (count (fun r -> r.C.status = C.Clean { completed = true })));
  Buffer.add_string b
    (Printf.sprintf "  \"degraded\": %d,\n"
       (count (fun r -> r.C.status = C.Clean { completed = false })));
  Buffer.add_string b (Printf.sprintf "  \"faulted\": %d,\n" faulted);
  Buffer.add_string b (Printf.sprintf "  \"uncaught\": %d,\n" uncaught);
  Buffer.add_string b
    (Printf.sprintf "  \"quarantined\": %d,\n" (count_quarantined outcomes));
  Buffer.add_string b "  \"injected\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun (kind, n) ->
            Printf.sprintf "\"%s\": %d" (Error_model.Fault.kind_name kind) n)
          (C.injected_totals done_results)));
  Buffer.add_string b "},\n";
  Buffer.add_string b "  \"runs\": [\n";
  let lines =
    List.filter_map Fun.id
      (List.mapi
         (fun i outcome ->
           let sp = specs.(i) in
           let record status detail events tput =
             Printf.sprintf
               "    {\"label\": \"%s\", \"plan\": \"%s\", \"status\": \
                \"%s\", \"detail\": \"%s\", \"events\": %d, \
                \"throughput_bps\": %.1f}"
               (C.json_escape sp.C.label)
               (C.json_escape (Faults.Plan.to_string sp.C.plan))
               status (C.json_escape detail) events tput
           in
           match outcome with
           | None -> None
           | Some (Supervisor.Done r) ->
             let status, detail =
               match r.C.status with
               | C.Clean { completed = true } -> ("completed", "")
               | C.Clean { completed = false } -> ("degraded", "")
               | C.Faulted { rendered; _ } -> ("faulted", rendered)
               | C.Uncaught msg -> ("uncaught", msg)
             in
             Some (record status detail r.C.events_executed r.C.throughput_bps)
           | Some (Supervisor.Quarantined { error; _ }) ->
             Some (record "quarantined" error 0 0.0))
         (Array.to_list outcomes))
  in
  Buffer.add_string b (String.concat ",\n" lines);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_scenario ~preset ~packet_size ~bad ~good ~file ~seed ~cc scheme =
  let s =
    match preset with
    | Wan ->
      Topology.Scenario.wan ~scheme ?packet_size ?mean_bad_sec:bad
        ?mean_good_sec:good ?file_bytes:file ~seed
        ~error_mode:Topology.Scenario.Markov ()
    | Lan ->
      Topology.Scenario.lan ~scheme ?packet_size ?mean_bad_sec:bad
        ?mean_good_sec:good ?file_bytes:file ~seed
        ~error_mode:Topology.Scenario.Markov ()
  in
  Topology.Scenario.with_cc s cc

let measurement_cell scenario =
  {
    Supervisor.key = Repcache.Fingerprint.key scenario;
    simulate = (fun () -> Experiments.Run.measure scenario);
    encode = Experiments.Run.measurement_to_string;
    decode = Experiments.Run.measurement_of_string;
  }

(* Scheme-major, replication-minor — the same cell order and seed
   schedule [Sweep.measurements] uses, so a supervised compare row
   aggregates exactly the measurements the plain CLI path would. *)
let compare_cells ~preset ~packet_size ~bad ~good ~file ~seed ~replications ~cc
    =
  let schemes = Array.of_list Topology.Scenario.all_schemes in
  Array.init
    (Array.length schemes * replications)
    (fun i ->
      let scheme = schemes.(i / replications) in
      let r = i mod replications in
      let scenario =
        compare_scenario ~preset ~packet_size ~bad ~good ~file ~seed ~cc scheme
      in
      measurement_cell (Topology.Scenario.with_seed scenario ((1000 * r) + 17)))

let compare_render ~replications outcomes =
  let module S = Experiments.Sweep in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-16s %10s %9s %9s %9s\n" "scheme" "tput kbps" "goodput"
       "retx KB" "timeouts");
  List.iteri
    (fun si scheme ->
      let ms =
        settled_measurements outcomes ~lo:(si * replications) ~len:replications
      in
      match ms with
      | [] -> ()
      | ms ->
        let metric f = (Metrics.Summary.of_list (List.map f ms)).Metrics.Summary.mean in
        Buffer.add_string b
          (Printf.sprintf "%-16s %10.2f %9.3f %9.1f %9.1f\n"
             (Topology.Scenario.scheme_name scheme)
             (metric S.throughput /. 1e3)
             (metric S.goodput)
             (metric S.retransmitted_kbytes)
             (metric S.timeouts)))
    Topology.Scenario.all_schemes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

(* [Packet_size_advisor.default_candidates], duplicated: campaigns
   sits below the [core] umbrella (which re-exports this library), so
   it cannot depend on the advisor module itself.  Pinned by
   [test_supervise]. *)
let advisor_candidates =
  [| 128; 256; 384; 512; 640; 768; 896; 1024; 1152; 1280; 1408; 1536 |]

let advisor_cells ~bads ~replications =
  let bads = Array.of_list bads in
  let nc = Array.length advisor_candidates in
  Array.init
    (Array.length bads * nc * replications)
    (fun i ->
      let r = i mod replications in
      let c = i / replications mod nc in
      let b = i / (replications * nc) in
      let scenario =
        Topology.Scenario.wan ~scheme:Topology.Scenario.Basic
          ~packet_size:advisor_candidates.(c) ~mean_bad_sec:bads.(b) ()
      in
      measurement_cell (Topology.Scenario.with_seed scenario ((1000 * r) + 17)))

(* Mirrors [Packet_size_advisor.evaluate]'s fold (strict [>] for best,
   [min] for worst) so the supervised table matches [wtcp advisor]. *)
let advisor_render ~bads ~replications outcomes =
  let nc = Array.length advisor_candidates in
  let b = Buffer.create 256 in
  Buffer.add_string b "bad(s)  best packet size  throughput\n";
  List.iteri
    (fun bi bad ->
      let sweep =
        List.filter_map
          (fun c ->
            let lo = ((bi * nc) + c) * replications in
            match settled_measurements outcomes ~lo ~len:replications with
            | [] -> None
            | ms ->
              Some
                ( advisor_candidates.(c),
                  (Metrics.Summary.of_list
                     (List.map Experiments.Sweep.throughput ms))
                    .Metrics.Summary.mean ))
          (List.init nc Fun.id)
      in
      match sweep with
      | [] -> ()
      | sweep ->
        let best_size, best =
          List.fold_left
            (fun (bs, bv) (size, v) -> if v > bv then (size, v) else (bs, bv))
            (0, Float.neg_infinity) sweep
        in
        let worst =
          List.fold_left (fun acc (_, v) -> Float.min acc v) Float.infinity
            sweep
        in
        let gain = if worst > 0.0 then (best /. worst) -. 1.0 else 0.0 in
        Buffer.add_string b
          (Printf.sprintf "%-7.1f %-17d %.2f kbit/s (%+.0f%% vs worst)\n" bad
             best_size (best /. 1e3) (100.0 *. gain)))
    bads;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let cell_count = function
  | Chaos { plans; _ } -> plans
  | Compare { replications; _ } ->
    List.length Topology.Scenario.all_schemes * replications
  | Advisor { bads; replications } ->
    List.length bads * Array.length advisor_candidates * replications

let run ?(jobs = 1) ?wave_size ?sabotage ?should_stop ?manifest_dir ?store_dir
    ~options kind =
  let spec = spec_string kind in
  let manifest_dir =
    match (manifest_dir, store_dir) with
    | Some d, _ -> d
    | None, Some d -> Filename.concat d "campaigns"
    | None, None -> Filename.concat (Repcache.Cache.dir ()) "campaigns"
  in
  (* A fresh (non-resume) run deletes any manifest a previous
     identically-shaped campaign left behind, so [--resume] is always
     an explicit request, never an accident. *)
  let supervised cells =
    if not options.resume then begin
      let keys = Array.map (fun c -> c.Supervisor.key) cells in
      let id = Supervisor.campaign_id ~spec ~keys in
      try Sys.remove (Manifest.path ~dir:manifest_dir ~id)
      with Sys_error _ -> ()
    end;
    Supervisor.run ~config:(config_of ?wave_size options) ~jobs ~spec
      ~manifest_dir ?sabotage ?should_stop cells
  in
  match kind with
  | Chaos { plans; base_seed; cc; check } ->
    let specs, cells = chaos_cells ~plans ~base_seed ~cc ~check in
    let sup = supervised cells in
    let rendered, ok = chaos_render specs sup.Supervisor.outcomes in
    let json = chaos_json specs sup.Supervisor.outcomes in
    assemble ~sup ~ok ~rendered ~json:(Some json)
  | Compare { preset; packet_size; bad; good; file; seed; replications; cc } ->
    let sup =
      supervised
        (compare_cells ~preset ~packet_size ~bad ~good ~file ~seed
           ~replications ~cc)
    in
    let rendered = compare_render ~replications sup.Supervisor.outcomes in
    assemble ~sup ~ok:true ~rendered ~json:None
  | Advisor { bads; replications } ->
    let sup = supervised (advisor_cells ~bads ~replications) in
    let rendered = advisor_render ~bads ~replications sup.Supervisor.outcomes in
    assemble ~sup ~ok:true ~rendered ~json:None
