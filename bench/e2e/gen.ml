(* Seeded input generators.  Every scenario a workload runs comes from
   here, drawn from the benchmark's own [Random.State], so the library
   only ever sees generated inputs.

   Continuous parameters are stratified: the range is cut into as many
   equal strata as a pass has cells of one kind, and each cell draws
   from its own stratum.  A pass then covers the whole range evenly
   whatever the seed, which keeps its cost, and so the timings, steady
   from seed to seed while the cells themselves differ. *)

open Core

let wan_sizes = [| 128; 256; 384; 512; 768; 1024; 1536 |]
let ccs = Array.of_list Tcp_config.all_ccs

(* A draw from the [k]-th of [n] equal strata of [lo, hi). *)
let stratum st ~lo ~hi ~k ~n =
  lo +. ((hi -. lo) *. ((float_of_int k +. Random.State.float st 1.0) /. float_of_int n))

let draw_seed st = Random.State.bits st

(* The paper's WAN EBSN path: packet size cycles through [wan_sizes],
   mean bad period from U[1,4] s. *)
let wan_ebsn ?file_bytes st ~n =
  let per_size = (n + Array.length wan_sizes - 1) / Array.length wan_sizes in
  Array.init n (fun i ->
      let packet_size = wan_sizes.(i mod Array.length wan_sizes) in
      let mean_bad_sec =
        stratum st ~lo:1.0 ~hi:4.0 ~k:(i / Array.length wan_sizes) ~n:per_size
      in
      let seed = draw_seed st in
      Spans.within ~cell:i "topology.scenario" (fun () ->
          Scenario.wan ~scheme:Scenario.Ebsn ~packet_size ~mean_bad_sec
            ?file_bytes ~seed ()))

(* Basic TCP on the LAN preset: cc cycles through every variant, mean
   bad period from U[0.5,2] s. *)
let lan_tcp st ~n =
  let per_cc = (n + Array.length ccs - 1) / Array.length ccs in
  Array.init n (fun i ->
      let cc = ccs.(i mod Array.length ccs) in
      let mean_bad_sec =
        stratum st ~lo:0.5 ~hi:2.0 ~k:(i / Array.length ccs) ~n:per_cc
      in
      let seed = draw_seed st in
      Spans.within ~cell:i "topology.scenario" (fun () ->
          Scenario.with_cc
            (Scenario.lan ~scheme:Scenario.Basic ~file_bytes:(512 * 1024)
               ~mean_bad_sec ~seed ())
            cc))

(* The figure-regeneration grid: WAN {basic, local, ebsn} x [sizes] x
   [bads] bad periods from U[1,4] s, plus LAN {basic, ebsn} x [bads]
   bad periods spaced evenly over [0.5,2] s.  The LAN periods are not
   drawn: the 4 MB LAN runs are the grid's slowest, so their bad
   periods set run_p99_ms, which would otherwise follow the seed more
   than the code.  [Sweep] replaces each scenario's seed with its own
   replication schedule. *)
let sweep_grid st ~sizes ~bads =
  let wan_bads =
    Array.to_list (Array.init bads (fun k -> stratum st ~lo:1.0 ~hi:4.0 ~k ~n:bads))
  in
  let lan_bads =
    List.init bads (fun k -> 0.5 +. (1.5 *. float_of_int k /. float_of_int (max 1 (bads - 1))))
  in
  let wan =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun packet_size ->
            List.map
              (fun mean_bad_sec () ->
                Scenario.wan ~scheme ~packet_size ~mean_bad_sec ())
              wan_bads)
          sizes)
      Scenario.[ Basic; Local_recovery; Ebsn ]
  in
  let lan =
    List.concat_map
      (fun scheme ->
        List.map
          (fun mean_bad_sec () -> Scenario.lan ~scheme ~mean_bad_sec ())
          lan_bads)
      Scenario.[ Basic; Ebsn ]
  in
  Array.of_list
    (List.mapi
       (fun i make -> Spans.within ~cell:i "topology.scenario" make)
       (wan @ lan))

(* First seed of a chaos campaign's consecutive plan seeds. *)
let campaign_base_seed st = 1 + Random.State.int st 1_000_000_000
