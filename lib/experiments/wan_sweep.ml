open Topology

type cell = { size : int; summary : Metrics.Summary.t }
type series = { bad_sec : float; cells : cell list }

let bad_periods_sec = [ 1.0; 2.0; 3.0; 4.0 ]

let compute ?replications ?jobs ?cc
    ?(packet_sizes = Packet_size_advisor.default_candidates)
    ?(bad_periods_sec = bad_periods_sec) ~scheme ~metric () =
  let apply_cc s =
    match cc with None -> s | Some cc -> Scenario.with_cc s cc
  in
  (* The whole (bad period × packet size × seed) matrix is one flat
     job list over a single domain pool. *)
  let points =
    List.concat_map
      (fun bad_sec ->
        List.map
          (fun size ->
            ( (bad_sec, size),
              apply_cc
                (Scenario.wan ~scheme ~packet_size:size ~mean_bad_sec:bad_sec
                   ()) ))
          packet_sizes)
      bad_periods_sec
  in
  let summaries =
    Sweep.replicate_all ?replications ?jobs (List.map snd points) ~metric
  in
  let cells =
    List.map2 (fun ((bad_sec, size), _) summary -> (bad_sec, { size; summary }))
      points summaries
  in
  List.map
    (fun bad_sec ->
      {
        bad_sec;
        cells =
          List.filter_map
            (fun (bad, cell) -> if bad = bad_sec then Some cell else None)
            cells;
      })
    bad_periods_sec

let tput_th_for bad_sec =
  Theory.tput_th ~tput_max_bps:12_800.0 ~mean_good_sec:10.0
    ~mean_bad_sec:bad_sec

let columns series_list =
  "pkt size (B)"
  :: List.map
       (fun series -> Printf.sprintf "bad=%.0fs" series.bad_sec)
       series_list

let value_rows ~fmt series_list =
  match series_list with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i cell ->
        string_of_int cell.size
        :: List.map
             (fun series ->
               fmt (List.nth series.cells i).summary.Metrics.Summary.mean)
             series_list)
      first.cells

let render_throughput ~title ~note series_list =
  let rows =
    value_rows ~fmt:Report.kbps series_list
    @ [
        "tput_th"
        :: List.map
             (fun series -> Report.kbps (tput_th_for series.bad_sec))
             series_list;
      ]
  in
  String.concat "\n"
    [
      Report.heading title;
      Report.table ~columns:(columns series_list) ~rows;
      Report.note "throughput in kbit/s (mean over replications)";
      Report.note note;
    ]

let render_metric ~title ~note ~unit_label series_list =
  String.concat "\n"
    [
      Report.heading title;
      Report.table ~columns:(columns series_list)
        ~rows:(value_rows ~fmt:(Report.fixed 1) series_list);
      Report.note unit_label;
      Report.note note;
    ]

let best_size series =
  Packet_size_advisor.best
    (List.map
       (fun cell -> (cell.size, cell.summary.Metrics.Summary.mean))
       series.cells)

let to_csv series_list =
  Report.csv ~columns:(columns series_list)
    ~rows:(value_rows ~fmt:(Report.fixed 3) series_list)
