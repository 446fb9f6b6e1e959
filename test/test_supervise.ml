(* Tests for the supervised campaign runner: the manifest codec
   (torn-tail tolerance and payload round-trips included), deadline
   enforcement through the simulator's event budget, retry tiers that
   rescue transient deadline misses, quarantine of deterministic
   failures, the sabotage injectors (killed worker, poisoned
   checkpoint), the manifest as a campaign's only file (a copy of it
   alone resumes, and re-proves every cell under verify mode), the
   campaign kinds (spec ranges, quarantined cells listed instead of
   averaged, a plain run equal to a checkpointed one, a cache verify
   failure that no retry hides, a deadline report the cache cannot
   change), and the headline contract — an interrupted-and-resumed
   campaign is byte-identical to an uninterrupted one at any jobs,
   pinned by a qcheck property that kills at a random cell index.

   Supervisor state that is process-global (cache mode, counters) is
   restored on the way out of every test that touches it. *)

open Core

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Fresh temp root per test: store under <root>/store, manifests under
   <root>/manifests, removed on exit. *)
let with_dirs f =
  let root = Filename.temp_file "wtcp_supervise_test" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let store = Filename.concat root "store" in
  let manifests = Filename.concat root "manifests" in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f ~store ~manifests)

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let test_manifest_roundtrip () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let path = Campaign_manifest.path ~dir:manifests ~id:"abc123" in
  let spec = "chaos plans=4 seed=1 cc=tahoe check=1" in
  let t = Campaign_manifest.create ~path ~id:"abc123" ~spec ~cells:4 in
  Campaign_manifest.append t ~idx:0
    (Campaign_manifest.Done { key = "deadbeef" });
  Campaign_manifest.append t ~idx:2
    (Campaign_manifest.Quarantined
       { attempts = 3; error = "Simulator.Fault: boom, with spaces\nand \
                                a newline" });
  Campaign_manifest.flush t;
  Campaign_manifest.close t;
  match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok m ->
    Alcotest.(check string) "id" "abc123" m.Campaign_manifest.header.id;
    Alcotest.(check string) "spec" spec m.Campaign_manifest.header.spec;
    Alcotest.(check int) "cells" 4 m.Campaign_manifest.header.cells;
    (match Hashtbl.find_opt m.Campaign_manifest.entries 0 with
    | Some (Campaign_manifest.Done { key }) ->
      Alcotest.(check string) "done key" "deadbeef" key
    | _ -> Alcotest.fail "cell 0 not Done");
    Alcotest.(check bool) "cell 1 unsettled" true
      (Hashtbl.find_opt m.Campaign_manifest.entries 1 = None);
    (match Hashtbl.find_opt m.Campaign_manifest.entries 2 with
    | Some (Campaign_manifest.Quarantined { attempts; error }) ->
      Alcotest.(check int) "attempts" 3 attempts;
      Alcotest.(check bool) "error text survives encoding" true
        (String.length error > 0
        && String.contains error ' '
        && String.contains error '\n')
    | _ -> Alcotest.fail "cell 2 not Quarantined")

let test_manifest_torn_tail () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let path = Campaign_manifest.path ~dir:manifests ~id:"torn" in
  let t = Campaign_manifest.create ~path ~id:"torn" ~spec:"spec x=1" ~cells:3 in
  Campaign_manifest.append t ~idx:0 (Campaign_manifest.Done { key = "k0" });
  Campaign_manifest.append t ~idx:1 (Campaign_manifest.Done { key = "k1" });
  Campaign_manifest.flush t;
  Campaign_manifest.close t;
  (* Tear the final line mid-write: the loader must drop it and keep
     the intact prefix. *)
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let torn = String.sub full 0 (String.length full - 4) in
  let oc = open_out_bin path in
  output_string oc torn;
  close_out oc;
  (match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "torn load failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "cell 0 survives" true
      (Hashtbl.find_opt m.Campaign_manifest.entries 0
      = Some (Campaign_manifest.Done { key = "k0" }));
    Alcotest.(check bool) "torn cell 1 dropped" true
      (Hashtbl.find_opt m.Campaign_manifest.entries 1 = None));
  (* Tear inside a payload line: that cell keeps neither its payload
     nor a done entry, the cell before it keeps both. *)
  let t = Campaign_manifest.create ~path ~id:"torn" ~spec:"spec x=1" ~cells:3 in
  Campaign_manifest.append_payload t ~key:"k0" "payload zero";
  Campaign_manifest.append t ~idx:0 (Campaign_manifest.Done { key = "k0" });
  Campaign_manifest.append_payload t ~key:"k1" "payload one";
  Campaign_manifest.append t ~idx:1 (Campaign_manifest.Done { key = "k1" });
  Campaign_manifest.flush t;
  Campaign_manifest.close t;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let rec find i =
    if String.sub full i 8 = "data k1 " then i else find (i + 1)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub full 0 (find 0 + 12)));
  (match Campaign_manifest.load ~path with
  | Error msg -> Alcotest.failf "payload-torn load failed: %s" msg
  | Ok m ->
    Alcotest.(check (option string)) "payload 0 survives" (Some "payload zero")
      (Hashtbl.find_opt m.Campaign_manifest.payloads "k0");
    Alcotest.(check bool) "cell 0 survives" true
      (Hashtbl.find_opt m.Campaign_manifest.entries 0
      = Some (Campaign_manifest.Done { key = "k0" }));
    Alcotest.(check (option string)) "torn payload 1 dropped" None
      (Hashtbl.find_opt m.Campaign_manifest.payloads "k1");
    Alcotest.(check bool) "cell 1 not done" true
      (Hashtbl.find_opt m.Campaign_manifest.entries 1 = None));
  (* A manifest minted by another engine version is refused whole. *)
  let oc = open_out_bin path in
  output_string oc "wtcp-campaign wtcp-engine-0.0.1\nid torn\nspec spec \
                    x=1\ncells 3\n";
  close_out oc;
  match Campaign_manifest.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale engine version accepted"

(* Any byte string survives a written and loaded payload line; the
   generator leans on the bytes the line format itself uses. *)
let qcheck_payload_roundtrip =
  let special = QCheck.Gen.oneofl [ '\n'; '%'; ' '; '\r'; '\000' ] in
  QCheck.Test.make ~count:200 ~name:"payload line round-trips any bytes"
    QCheck.(
      string_gen_of_size Gen.(0 -- 64)
        Gen.(frequency [ (1, special); (2, char) ]))
    (fun payload ->
      with_dirs @@ fun ~store:_ ~manifests ->
      let path = Campaign_manifest.path ~dir:manifests ~id:"bytes" in
      let t = Campaign_manifest.create ~path ~id:"bytes" ~spec:"s" ~cells:1 in
      Campaign_manifest.append_payload t ~key:"k" payload;
      Campaign_manifest.append t ~idx:0 (Campaign_manifest.Done { key = "k" });
      Campaign_manifest.close t;
      match Campaign_manifest.load ~path with
      | Ok m -> Hashtbl.find_opt m.Campaign_manifest.payloads "k" = Some payload
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Supervisor core                                                     *)
(* ------------------------------------------------------------------ *)

(* Cheap deterministic cells: simulate runs a small simulation whose
   event count scales with the payload, so event budgets bite
   predictably. *)
let sim_cell ?(events = 5) i =
  let simulate () =
    let sim = Simulator.create () in
    let count = ref 0 in
    let rec arm k =
      if k < events then
        ignore
          (Simulator.schedule sim
             ~at:(Simtime.add (Simulator.now sim) (Simtime.span_sec 0.001))
             (fun () ->
               incr count;
               arm (k + 1)))
    in
    arm 0;
    Simulator.run sim;
    (i * 1000) + !count
  in
  {
    Supervisor.key = Printf.sprintf "cell%04d" i;
    simulate;
    encode = string_of_int;
    decode = int_of_string_opt;
  }

let test_supervised_equals_sequential () =
  let cells = Array.init 20 sim_cell in
  let expect = Array.map (fun c -> c.Supervisor.simulate ()) cells in
  List.iter
    (fun jobs ->
      let r = Supervisor.run ~jobs cells in
      Alcotest.(check int) "all settled" 20 r.Supervisor.completed;
      Array.iteri
        (fun i o ->
          match o with
          | Some (Supervisor.Done v) ->
            Alcotest.(check int)
              (Printf.sprintf "cell %d at jobs=%d" i jobs)
              expect.(i) v
          | _ -> Alcotest.failf "cell %d not Done at jobs=%d" i jobs)
        r.Supervisor.outcomes)
    [ 1; 4 ]

let test_deadline_quarantine () =
  let before = Supervisor.stats () in
  (* 10-event cells against a 4-event budget relaxed only 2x per
     retry: 4 -> 8 over 2 attempts, every attempt exhausts, the cell
     quarantines. *)
  let config =
    {
      Supervisor.default_config with
      Supervisor.deadline_events = Some 4;
      max_attempts = 2;
      relax_factor = 2;
    }
  in
  let cells = Array.init 2 (sim_cell ~events:10) in
  let r = Supervisor.run ~config cells in
  Alcotest.(check int) "both quarantined" 2 r.Supervisor.quarantined;
  Array.iter
    (fun o ->
      match o with
      | Some (Supervisor.Quarantined { attempts; error }) ->
        Alcotest.(check int) "attempts exhausted" 2 attempts;
        Alcotest.(check bool) "error names the budget" true
          (String.length error > 0)
      | _ -> Alcotest.fail "expected quarantine")
    r.Supervisor.outcomes;
  let after = Supervisor.stats () in
  Alcotest.(check bool) "deadline hits counted" true
    (after.Supervisor.deadline_hits - before.Supervisor.deadline_hits >= 4);
  Alcotest.(check bool) "retries counted" true
    (after.Supervisor.retries - before.Supervisor.retries >= 2);
  Alcotest.(check bool) "quarantines counted" true
    (after.Supervisor.quarantined - before.Supervisor.quarantined = 2)

let test_relaxed_budget_rescues () =
  (* 10-event cells, budget 4 relaxed 8x on retry: attempt 1 exhausts,
     attempt 2 (budget 32) succeeds — retry tiers rescue cells the
     base deadline is too tight for. *)
  let config =
    { Supervisor.default_config with Supervisor.deadline_events = Some 4 }
  in
  let cells = Array.init 3 (sim_cell ~events:10) in
  let r = Supervisor.run ~config cells in
  Alcotest.(check int) "none quarantined" 0 r.Supervisor.quarantined;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Supervisor.Done v) ->
        Alcotest.(check int) "value intact" ((i * 1000) + 10) v
      | _ -> Alcotest.fail "expected Done")
    r.Supervisor.outcomes

let test_kill_sabotage_recovers () =
  let cells = Array.init 4 sim_cell in
  let expect = Array.map (fun c -> c.Supervisor.simulate ()) cells in
  let sabotage =
    { Supervisor.no_sabotage with Supervisor.kill_cell = Some 2 }
  in
  let r = Supervisor.run ~sabotage cells in
  Alcotest.(check int) "none quarantined" 0 r.Supervisor.quarantined;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Supervisor.Done v) -> Alcotest.(check int) "value" expect.(i) v
      | _ -> Alcotest.fail "expected Done")
    r.Supervisor.outcomes

(* Rewrite the manifest's payload line for [key] to carry [payload]
   verbatim. *)
let rewrite_payload path ~key payload =
  let prefix = "data " ^ key ^ " " in
  let n = String.length prefix in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.map
              (fun l ->
                if String.length l >= n && String.sub l 0 n = prefix then
                  prefix ^ payload
                else l)
              lines)))

let test_checkpoint_resume_and_poison_heal () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let spec = "test cells=8" in
  let cells () = Array.init 8 sim_cell in
  let full = Supervisor.run ~spec ~manifest_dir:manifests (cells ()) in
  Alcotest.(check int) "first run simulates all" 8 full.Supervisor.completed;
  (* Same campaign again: everything restores, nothing simulates. *)
  let again = Supervisor.run ~spec ~manifest_dir:manifests (cells ()) in
  Alcotest.(check int) "resume simulates nothing" 0 again.Supervisor.completed;
  Alcotest.(check int) "resume restores all" 8 again.Supervisor.resumed;
  Alcotest.(check bool) "outcomes identical" true
    (full.Supervisor.outcomes = again.Supervisor.outcomes);
  (* Poison cell 3's payload line: the resume heals it by
     re-simulating just that cell. *)
  rewrite_payload
    (Option.get full.Supervisor.manifest_path)
    ~key:(cells ()).(3).Supervisor.key "garbage";
  let healed = Supervisor.run ~spec ~manifest_dir:manifests (cells ()) in
  Alcotest.(check int) "one cell re-simulated" 1 healed.Supervisor.completed;
  Alcotest.(check int) "seven restored" 7 healed.Supervisor.resumed;
  Alcotest.(check bool) "healed outcomes identical" true
    (full.Supervisor.outcomes = healed.Supervisor.outcomes)

let test_verify_mismatch_on_resume () =
  with_dirs @@ fun ~store:_ ~manifests ->
  let spec = "test cells=2" in
  let cells () = Array.init 2 sim_cell in
  let first = Supervisor.run ~spec ~manifest_dir:manifests (cells ()) in
  (* Append a VALID but wrong payload line for cell 1, which the load
     prefers over the true one: only verify mode can catch this. *)
  let key = (cells ()).(1).Supervisor.key in
  let m =
    Campaign_manifest.open_append ~path:(Option.get first.Supervisor.manifest_path)
  in
  Campaign_manifest.append_payload m ~key (string_of_int 999_999);
  Campaign_manifest.close m;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.reset_stats ())
    (fun () ->
      Cache.set_mode Cache.Verify;
      match Supervisor.run ~spec ~manifest_dir:manifests (cells ()) with
      | exception Cache.Verify_mismatch { key = k; _ } ->
        Alcotest.(check string) "mismatch names the entry" key k
      | _ -> Alcotest.fail "verify mode accepted a forged checkpoint")

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let wan_compare ?packet_size ?bad ?good ?(replications = 2) () =
  Campaigns.Compare
    {
      preset = Campaigns.Wan;
      packet_size;
      bad;
      good;
      file = Some 20_000;
      seed = 1;
      replications;
      cc = Tcp_config.Tahoe;
    }

let test_spec_roundtrip () =
  let kinds =
    [
      Campaigns.Chaos { plans = 6; base_seed = 3; cc = None; check = true };
      Campaigns.Chaos
        { plans = 50; base_seed = 1; cc = Some Tcp_config.Vegas; check = false };
      Campaigns.Compare
        {
          preset = Campaigns.Lan;
          packet_size = Some 576;
          bad = Some 1.5;
          good = None;
          file = None;
          seed = 7;
          replications = 4;
          cc = Tcp_config.Reno;
        };
      Campaigns.Advisor { bads = [ 1.0; 2.5; 4.0 ]; replications = 3 };
      (* The range limits themselves: a window's worth of payload, a
         period that rounds to 1 ns, and the largest period. *)
      wan_compare ~packet_size:4136 ~bad:6e-10 ~good:4.6e9 ();
      Campaigns.Compare
        {
          preset = Campaigns.Lan;
          packet_size = Some 65_576;
          bad = None;
          good = None;
          file = None;
          seed = 1;
          replications = 1;
          cc = Tcp_config.Tahoe;
        };
    ]
  in
  List.iter
    (fun kind ->
      let spec = Campaigns.spec_string kind in
      Alcotest.(check bool) "single line" false (String.contains spec '\n');
      match Campaigns.kind_of_spec spec with
      | Ok k -> Alcotest.(check bool) ("roundtrip " ^ spec) true (k = kind)
      | Error msg -> Alcotest.failf "parse %s: %s" spec msg)
    kinds;
  match Campaigns.kind_of_spec "bogus nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus spec accepted"

(* A spec read back from a manifest meets the CLI's ranges: a value
   the engine would reject (or a count the convs refuse) fails to
   parse instead of resuming into an exception or an empty table. *)
let test_spec_ranges () =
  List.iter
    (fun kind ->
      let spec = Campaigns.spec_string kind in
      match Campaigns.kind_of_spec spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "out-of-range spec accepted: %s" spec)
    [
      wan_compare ~packet_size:100_000 ();
      wan_compare ~packet_size:4137 ();
      wan_compare ~packet_size:40 ();
      wan_compare ~bad:(-1.0) ();
      wan_compare ~bad:1e-300 ();
      wan_compare ~bad:1e300 ();
      wan_compare ~good:1e-300 ();
      wan_compare ~good:Float.nan ();
      wan_compare ~replications:0 ();
      Campaigns.Advisor { bads = [ 1.0; 1e-300 ]; replications = 2 };
      Campaigns.Advisor { bads = [ 1.0 ]; replications = 0 };
      Campaigns.Chaos { plans = 0; base_seed = 1; cc = None; check = true };
    ]

let chaos_kind plans =
  Campaigns.Chaos { plans; base_seed = 1; cc = None; check = true }

let test_campaign_resume_identity () =
  with_dirs @@ fun ~store ~manifests ->
  let opts = Campaigns.default_options in
  let reference =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests ~options:opts
      (chaos_kind 5)
  in
  Alcotest.(check bool) "reference ok" true reference.Campaigns.ok;
  Alcotest.(check bool) "reference not interrupted" false
    reference.Campaigns.interrupted;
  (* Interrupt at the second wave boundary, then resume at jobs=4. *)
  let interrupted =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests ~wave_size:2
      ~should_stop:(fun ~completed -> completed >= 2)
      ~options:opts (chaos_kind 5)
  in
  Alcotest.(check bool) "interrupted" true interrupted.Campaigns.interrupted;
  Alcotest.(check bool) "partial header present" true
    (String.length interrupted.Campaigns.rendered >= 8
    && String.sub interrupted.Campaigns.rendered 0 8 = "partial:");
  let resumed =
    Campaigns.run ~jobs:4 ~store_dir:store ~manifest_dir:manifests
      ~options:{ opts with Campaigns.resume = true }
      (chaos_kind 5)
  in
  Alcotest.(check bool) "resumed some cells" true
    (resumed.Campaigns.resumed > 0);
  Alcotest.(check string) "rendered identical" reference.Campaigns.rendered
    resumed.Campaigns.rendered;
  Alcotest.(check bool) "json identical" true
    (reference.Campaigns.json = resumed.Campaigns.json)

let test_campaign_forced_deadline () =
  with_dirs @@ fun ~store ~manifests ->
  let before = Supervisor.stats () in
  let r =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests
      ~sabotage:
        { Supervisor.no_sabotage with Supervisor.force_deadline_cell = Some 0 }
      ~options:
        { Campaigns.default_options with Campaigns.retries = 2 }
      (chaos_kind 4)
  in
  let after = Supervisor.stats () in
  Alcotest.(check int) "one quarantined" 1 r.Campaigns.quarantined;
  Alcotest.(check bool) "campaign still ok" true r.Campaigns.ok;
  Alcotest.(check int) "both attempts hit the deadline" 2
    (after.Supervisor.deadline_hits - before.Supervisor.deadline_hits);
  Alcotest.(check int) "one retry" 1
    (after.Supervisor.retries - before.Supervisor.retries);
  Alcotest.(check bool) "headline reports it" true
    (let rec contains i =
       i + 13 <= String.length r.Campaigns.rendered
       && (String.sub r.Campaigns.rendered i 13 = "quarantined=1"
          || contains (i + 1))
     in
     contains 0)

let test_compare_campaign_runs () =
  with_dirs @@ fun ~store ~manifests ->
  let kind =
    Campaigns.Compare
      {
        preset = Campaigns.Wan;
        packet_size = None;
        bad = None;
        good = None;
        file = Some 20_000;
        seed = 1;
        replications = 2;
        cc = Tcp_config.Tahoe;
      }
  in
  let r =
    Campaigns.run ~jobs:2 ~store_dir:store ~manifest_dir:manifests
      ~options:Campaigns.default_options kind
  in
  Alcotest.(check int) "6 schemes x 2 reps" 12 r.Campaigns.total;
  Alcotest.(check int) "all settled" 12 r.Campaigns.completed;
  (* Header plus one row per scheme. *)
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' r.Campaigns.rendered)
  in
  Alcotest.(check int) "7 report lines" 7 (List.length lines)

(* A quarantined replication is listed under the table and left out
   of its row's means: the basic row equals a one-replication row of
   the other seed, not an average with zeros. *)
let test_compare_quarantine_not_averaged () =
  with_dirs @@ fun ~store ~manifests ->
  let quarantined =
    Campaigns.run ~store_dir:store ~manifest_dir:manifests
      ~sabotage:
        { Supervisor.no_sabotage with Supervisor.force_deadline_cell = Some 0 }
      ~options:{ Campaigns.default_options with Campaigns.retries = 1 }
      (wan_compare ())
  in
  Alcotest.(check int) "one quarantined" 1 quarantined.Campaigns.quarantined;
  let lines rendered = String.split_on_char '\n' rendered in
  let is prefix l = String.starts_with ~prefix l in
  let m =
    Run.measure
      (Scenario.with_seed
         (Scenario.wan ~scheme:Scenario.Basic ~file_bytes:20_000 ())
         1017)
  in
  Alcotest.(check string) "basic row from seed 1017 alone"
    (Printf.sprintf "%-16s %10.2f %9.3f %9.1f %9.1f" "basic"
       (m.Run.throughput_bps /. 1e3)
       m.Run.goodput m.Run.retransmitted_kbytes
       (float_of_int m.Run.source_timeouts))
    (List.find (is "basic ") (lines quarantined.Campaigns.rendered));
  Alcotest.(check bool) "report names the quarantined cell" true
    (List.exists
       (is "QUARANTINED basic seed=17 (attempts=1): ")
       (lines quarantined.Campaigns.rendered));
  (* The other rows are untouched: equal to an unsabotaged run's. *)
  let clean = Campaigns.run (wan_compare ()) in
  let rows rendered =
    List.filter
      (fun l -> not (is "basic " l || is "QUARANTINED" l))
      (lines rendered)
  in
  Alcotest.(check (list string)) "other rows unchanged"
    (rows clean.Campaigns.rendered)
    (rows quarantined.Campaigns.rendered)

(* The plain run and the checkpointed one settle the same cells into
   the same report, for every kind; the plain run writes nothing, and
   a cell's exception reaches its caller instead of a quarantine. *)
let test_plain_equals_checkpointed () =
  with_dirs @@ fun ~store ~manifests ->
  List.iter
    (fun kind ->
      let spec = Campaigns.spec_string kind in
      let plain = Campaigns.run ~jobs:2 ~store_dir:store kind in
      let checkpointed =
        Campaigns.run ~jobs:2 ~manifest_dir:manifests
          ~options:Campaigns.default_options kind
      in
      Alcotest.(check string) ("rendered " ^ spec)
        checkpointed.Campaigns.rendered plain.Campaigns.rendered;
      Alcotest.(check (option string)) ("json " ^ spec)
        checkpointed.Campaigns.json plain.Campaigns.json;
      Alcotest.(check int) ("plain settles every cell " ^ spec)
        (Campaigns.cell_count kind) plain.Campaigns.completed;
      Alcotest.(check (option string)) ("plain has no manifest " ^ spec) None
        plain.Campaigns.manifest_path)
    [
      chaos_kind 4;
      wan_compare ();
      Campaigns.Compare
        {
          preset = Campaigns.Lan;
          packet_size = None;
          bad = Some 1.5;
          good = Some 3.3;
          file = Some 200_000;
          seed = 1;
          replications = 2;
          cc = Tcp_config.Reno;
        };
      Campaigns.Advisor { bads = [ 1.0; 4.0 ]; replications = 1 };
    ];
  Alcotest.(check bool) "plain runs write nothing" false (Sys.file_exists store);
  (* The engine's own check, with no range check in front of it. *)
  Alcotest.check_raises "plain run propagates a cell's exception"
    (Invalid_argument "Tcp_config: window below mss") (fun () ->
      ignore
        (Campaigns.run (wan_compare ~packet_size:100_000 ~replications:1 ())))

(* The cache front-end is process-global: point it at [dir] for [f],
   then put it back off, on its old directory, with the store due for a
   re-read and zeroed stats. *)
let with_cache dir f =
  let saved = Cache.dir () in
  let reset () =
    Cache.set_mode Cache.Off;
    Cache.memo_clear ();
    Cache.reset_stats ()
  in
  Fun.protect
    ~finally:(fun () ->
      reset ();
      Cache.set_dir saved)
    (fun () ->
      Cache.set_dir dir;
      reset ();
      f ())

(* A cache entry that diverges from a fresh simulation fails the
   campaign in verify mode, supervised or not: the supervisor neither
   retries nor quarantines it. *)
let test_verify_mismatch_escapes_supervision () =
  with_dirs @@ fun ~store ~manifests ->
  with_cache store @@ fun () ->
  let basic =
    Scenario.with_seed
      (Scenario.with_cc
         (Campaigns.scenario Campaigns.Wan ~file:20_000 ~seed:1 Scenario.Basic)
         Tcp_config.Tahoe)
      17
  in
  let key = Fingerprint.key basic in
  let real = Run.measure basic in
  Cache.set_mode Cache.On;
  Cache.store ~key
    (Run.measurement_to_string
       { real with Run.source_timeouts = real.Run.source_timeouts + 1 });
  Cache.set_mode Cache.Verify;
  List.iter
    (fun (name, options) ->
      match
        Campaigns.run ?options ~manifest_dir:manifests
          (wan_compare ~replications:1 ())
      with
      | exception Cache.Verify_mismatch { key = k; _ } ->
        Alcotest.(check string) (name ^ ": mismatch names the entry") key k
      | _ -> Alcotest.failf "%s run accepted a forged cache entry" name)
    [ ("plain", None); ("supervised", Some Campaigns.default_options) ]

(* Under a deadline a cell simulates even when the cache holds it: a
   hit spends no events, so it would meet any deadline, and the report
   would depend on what the cache holds. *)
let test_deadline_report_ignores_cache () =
  with_dirs @@ fun ~store ~manifests ->
  with_cache store @@ fun () ->
  let options =
    {
      Campaigns.default_options with
      Campaigns.deadline = Some 2000;
      retries = 1;
    }
  in
  Cache.set_mode Cache.On;
  let cold = Campaigns.run ~options ~manifest_dir:manifests (wan_compare ()) in
  Alcotest.(check bool) "the deadline quarantines cells" true
    (cold.Campaigns.quarantined > 0);
  ignore (Campaigns.run (wan_compare ()));
  Alcotest.(check int) "a plain run stores every cell" 12
    (Cache.stats ()).Cache.stores;
  let warm = Campaigns.run ~options ~manifest_dir:manifests (wan_compare ()) in
  Alcotest.(check string) "warm report equals cold" cold.Campaigns.rendered
    warm.Campaigns.rendered;
  Alcotest.(check int) "as many quarantined" cold.Campaigns.quarantined
    warm.Campaigns.quarantined

(* Every file under [dir], relative to it. *)
let rec files_under dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then
        List.map (Filename.concat f) (files_under p)
      else [ f ])
    (Array.to_list (Sys.readdir dir))

let test_campaign_writes_only_manifest () =
  with_dirs @@ fun ~store ~manifests:_ ->
  let r =
    Campaigns.run ~store_dir:store ~options:Campaigns.default_options
      (chaos_kind 4)
  in
  Alcotest.(check int) "all settled" 4 r.Campaigns.completed;
  Alcotest.(check (list string)) "one file, the manifest"
    [
      Filename.concat "campaigns"
        (Filename.basename (Option.get r.Campaigns.manifest_path));
    ]
    (files_under store)

let test_manifest_alone_resumes () =
  with_dirs @@ fun ~store ~manifests ->
  let opts = Campaigns.default_options in
  let reference = Campaigns.run ~store_dir:store ~options:opts (chaos_kind 5) in
  (* Copy the manifest alone next to nothing, and resume from an empty
     store directory. *)
  let src = Option.get reference.Campaigns.manifest_path in
  Sys.mkdir manifests 0o755;
  Out_channel.with_open_bin
    (Filename.concat manifests (Filename.basename src))
    (fun oc ->
      output_string oc (In_channel.with_open_bin src In_channel.input_all));
  let empty = Filename.concat (Filename.dirname store) "empty" in
  let resumed =
    Campaigns.run ~store_dir:empty ~manifest_dir:manifests
      ~options:{ opts with Campaigns.resume = true }
      (chaos_kind 5)
  in
  Alcotest.(check int) "nothing simulated" 0 resumed.Campaigns.completed;
  Alcotest.(check int) "everything restored" resumed.Campaigns.total
    resumed.Campaigns.resumed;
  Alcotest.(check string) "rendered identical" reference.Campaigns.rendered
    resumed.Campaigns.rendered;
  Alcotest.(check bool) "json identical" true
    (reference.Campaigns.json = resumed.Campaigns.json);
  (* Verify mode re-simulates every restored cell and compares it with
     its checkpoint (a divergence raises Verify_mismatch). *)
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.reset_stats ())
    (fun () ->
      Cache.reset_stats ();
      Cache.set_mode Cache.Verify;
      let verified =
        Campaigns.run ~store_dir:empty ~manifest_dir:manifests
          ~options:{ opts with Campaigns.resume = true }
          (chaos_kind 5)
      in
      let v = Cache.stats () in
      Alcotest.(check int) "verify re-proves every restored cell"
        verified.Campaigns.total v.Cache.verify_ok;
      Alcotest.(check int) "no verify divergence" 0 v.Cache.verify_fail;
      Alcotest.(check string) "verified rendered identical"
        reference.Campaigns.rendered verified.Campaigns.rendered;
      Alcotest.(check bool) "verified json identical" true
        (reference.Campaigns.json = verified.Campaigns.json));
  Alcotest.(check bool) "store dir untouched" false (Sys.file_exists empty)

let test_cell_count () =
  with_dirs @@ fun ~store ~manifests:_ ->
  List.iter
    (fun kind ->
      (* Interrupted before the first wave: cells are built, none run. *)
      let r =
        Campaigns.run ~store_dir:store ~should_stop:(fun ~completed:_ -> true)
          ~options:Campaigns.default_options kind
      in
      Alcotest.(check int) (Campaigns.spec_string kind) r.Campaigns.total
        (Campaigns.cell_count kind))
    [
      chaos_kind 7;
      Campaigns.Compare
        {
          preset = Campaigns.Lan;
          packet_size = None;
          bad = None;
          good = None;
          file = None;
          seed = 1;
          replications = 3;
          cc = Tcp_config.Tahoe;
        };
      Campaigns.Advisor { bads = [ 1.0; 4.0 ]; replications = 2 };
    ]

(* The headline acceptance property: a chaos campaign killed at a
   random cell index and resumed produces byte-identical reports to
   an uninterrupted run, at jobs=1 and jobs=4. *)
let qcheck_kill_resume_identity =
  QCheck.Test.make ~count:8 ~name:"campaign kill@random+resume is identity"
    QCheck.(pair (int_bound 3) bool)
    (fun (kill_after, parallel) ->
      let jobs = if parallel then 4 else 1 in
      with_dirs @@ fun ~store ~manifests ->
      let opts = Campaigns.default_options in
      let reference =
        Campaigns.run ~jobs ~store_dir:store ~manifest_dir:manifests
          ~options:opts (chaos_kind 4)
      in
      (* Fresh store so the kill run cannot see the reference's
         checkpoints. *)
      rm_rf store;
      let _killed =
        Campaigns.run ~jobs ~wave_size:1 ~store_dir:store
          ~manifest_dir:manifests
          ~should_stop:(fun ~completed -> completed > kill_after)
          ~options:opts (chaos_kind 4)
      in
      let resumed =
        Campaigns.run ~jobs ~store_dir:store ~manifest_dir:manifests
          ~options:{ opts with Campaigns.resume = true }
          (chaos_kind 4)
      in
      reference.Campaigns.rendered = resumed.Campaigns.rendered
      && reference.Campaigns.json = resumed.Campaigns.json
      && not resumed.Campaigns.interrupted)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "supervise"
    [
      ( "manifest",
        [
          Alcotest.test_case "roundtrip with quarantine" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "torn tail and stale engine" `Quick
            test_manifest_torn_tail;
          qc qcheck_payload_roundtrip;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "supervised map equals sequential" `Quick
            test_supervised_equals_sequential;
          Alcotest.test_case "deadline exhaustion quarantines" `Quick
            test_deadline_quarantine;
          Alcotest.test_case "relaxed budget rescues on retry" `Quick
            test_relaxed_budget_rescues;
          Alcotest.test_case "killed worker recovers" `Quick
            test_kill_sabotage_recovers;
          Alcotest.test_case "checkpoint/resume and poison heal" `Quick
            test_checkpoint_resume_and_poison_heal;
          Alcotest.test_case "verify mode catches forged checkpoint" `Quick
            test_verify_mismatch_on_resume;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "spec codec roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "spec out of range is refused" `Quick
            test_spec_ranges;
          Alcotest.test_case "interrupt+resume identity" `Slow
            test_campaign_resume_identity;
          Alcotest.test_case "forced deadline quarantines" `Slow
            test_campaign_forced_deadline;
          Alcotest.test_case "supervised compare report" `Slow
            test_compare_campaign_runs;
          Alcotest.test_case "quarantined replication not averaged" `Quick
            test_compare_quarantine_not_averaged;
          Alcotest.test_case "plain run equals checkpointed run" `Quick
            test_plain_equals_checkpointed;
          Alcotest.test_case "verify mismatch escapes supervision" `Quick
            test_verify_mismatch_escapes_supervision;
          Alcotest.test_case "deadline report ignores the cache" `Quick
            test_deadline_report_ignores_cache;
          Alcotest.test_case "campaign writes only its manifest" `Quick
            test_campaign_writes_only_manifest;
          Alcotest.test_case "manifest alone resumes" `Quick
            test_manifest_alone_resumes;
          Alcotest.test_case "cell_count matches built cells" `Quick
            test_cell_count;
          qc qcheck_kill_resume_identity;
        ] );
    ]
