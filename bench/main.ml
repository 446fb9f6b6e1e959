(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation plus the ablations from DESIGN.md.

   Usage: main.exe [target ...] [reps=N] [jobs=N] [csv=DIR] [check=0|1]

   With csv=DIR each figure target also writes its data as
   DIR/<figure>.csv for external plotting.  jobs=N fans the
   replications of every sweep point across N OCaml domains (default:
   the host's recommended domain count minus one, at least 1); the
   seed schedule is unchanged, so output is byte-identical at any N.
   check=1 runs every simulation under the runtime invariant
   checkers.

   Targets: figs (Figures 3-5), fig7, fig8, fig9, fig10, fig11,
   advisor (the §4.1 packet-size table), goodput, ablation-schemes,
   ablation-quench, ablation-tick, ablation-rtmax, ablation-window,
   ablation-window-tcp, ablation-rearm, ablation-pacing,
   ablation-cc, ablation-cc-table, ablation-delack, ablation-congestion,
   ablation-sched, ablation-handoff.  With no target names, every
   target runs.  Speed is measured by bench/e2e, not here. *)

let replications = ref 10
let jobs = ref (Core.Parallel.default_jobs ())
let csv_dir : string option ref = ref None
let check = ref false

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
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [target ...] [reps=N] [jobs=N] [csv=DIR] [check=0|1]\n\
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
    | "jobs" -> jobs := int_flag ~key value
    | "csv" -> csv_dir := Some value
    | "check" -> (
      match value with
      | "0" -> check := false
      | "1" -> check := true
      | _ ->
        Printf.eprintf "check=%s: expected 0 or 1\n" value;
        usage ())
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
