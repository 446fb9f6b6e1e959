(* Tests for the content-addressed replication cache: fingerprint
   sensitivity (any knob perturbation changes the key, equal configs
   collide), the exact measurement codec, the version-stamped segment
   store (torn, garbled, foreign and stale records are misses, never
   wrong data, campaign manifests beside the segments left alone), the
   cached sweep path (results byte-identical to uncached, repeated
   cells served from the store, the cc cross table served from the cc
   ablation's cells), verify mode as a determinism oracle, and
   warm-vs-cold and verify-mode byte-identity of the fig7/fig10 CSVs
   at jobs=1 and jobs=4.

   Cache mode is process-global, so every test that turns it on
   restores Off (the default) before returning. *)

open Core
module Store = Cache_store

let small_wan ?(seed = 3) () =
  Scenario.wan ~scheme:Scenario.Ebsn ~file_bytes:20_000 ~seed ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Fresh temp store, re-read index and zeroed counters; always restores
   the process default (Off, "_cache") on the way out. *)
let with_cache_dir f =
  let dir = Filename.temp_file "wtcp_cache_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_mode Cache.Off;
      Cache.memo_clear ();
      Cache.reset_stats ();
      Cache.set_dir "_cache";
      rm_rf dir)
    (fun () ->
      Cache.set_dir dir;
      Cache.memo_clear ();
      Cache.reset_stats ();
      f dir)

(* The segment files under [dir], sorted. *)
let segments dir =
  List.sort compare
    (List.filter_map
       (fun f ->
         if Filename.check_suffix f ".seg" then Some (Filename.concat dir f)
         else None)
       (Array.to_list (Sys.readdir dir)))

let read path = In_channel.with_open_bin path In_channel.input_all

let write path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let header = "wtcp-cache " ^ Fingerprint.engine_version ^ "\n"

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let test_equal_configs_collide () =
  let a = small_wan () and b = small_wan () in
  Alcotest.(check string)
    "structurally equal scenarios share a key" (Fingerprint.key a)
    (Fingerprint.key b);
  Alcotest.(check string)
    "canonical renderings equal too" (Fingerprint.canonical a)
    (Fingerprint.canonical b)

let test_engine_version_salts_key () =
  let s = small_wan () in
  let canon = Fingerprint.canonical s in
  Alcotest.(check bool)
    "engine version appears in the canonical text" true
    (let v = Fingerprint.engine_version in
     let nv = String.length v and nc = String.length canon in
     let rec go i = i + nv <= nc && (String.sub canon i nv = v || go (i + 1)) in
     go 0)

let test_fault_plan_in_key () =
  let s = small_wan () in
  let base = Fingerprint.key s in
  Alcotest.(check string)
    "empty plan fingerprints like no plan (pinned byte-identical runs)"
    base
    (Fingerprint.key ~faults:Fault_plan.empty s);
  let ev =
    Fault_plan.
      { after = Simtime.span_sec 1.0; action = Ebsn_loss { count = 2 } }
  in
  let plan = Fault_plan.make ~seed:5 [ ev ] in
  Alcotest.(check bool)
    "a real plan changes the key" true
    (Fingerprint.key ~faults:plan s <> base);
  Alcotest.(check bool)
    "the plan seed is part of the identity" true
    (Fingerprint.key ~faults:(Fault_plan.make ~seed:6 [ ev ]) s
    <> Fingerprint.key ~faults:plan s)

(* The version salt bound to what the engine computes.  Cache hits and
   manifest resumes trust every payload stored under the salt, so a
   change of simulation output under an unchanged salt would serve
   stale results.  The battery is every scheme on WAN and LAN at two
   seeds, with small files. *)
let salt_pin = ("wtcp-engine-1.8.0", "a97c508a1bb995e8ae8fc9485d1f473f")

let battery_digest () =
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun seed ->
          [
            Scenario.wan ~scheme ~file_bytes:20_000 ~seed ();
            Scenario.lan ~scheme ~file_bytes:1_000_000 ~seed ();
          ])
        [ 1; 2 ])
    Scenario.all_schemes
  |> List.map (fun s -> Run.measurement_to_string (Run.measure s))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_salt_bound_to_outputs () =
  let version, md5 = salt_pin in
  let digest = battery_digest () in
  if Fingerprint.engine_version = version && digest <> md5 then
    Alcotest.failf
      "the battery's outputs changed (MD5 %s, pinned %s) under the same \
       salt %s: bump Fingerprint.engine_version so stored payloads stop \
       matching, then pin the new pair"
      digest md5 version;
  Alcotest.(check (pair string string))
    "pinned (engine_version, battery MD5)" salt_pin
    (Fingerprint.engine_version, digest)

(* One named perturbation per knob family; qcheck picks the knob and
   a nonzero delta, and every pick must move the key. *)
let mutations : (string * (int -> Scenario.t -> Scenario.t)) list =
  [
    ("seed", fun d s -> Scenario.with_seed s (s.Scenario.seed + d));
    ("file_bytes", fun d s -> { s with Scenario.file_bytes = s.Scenario.file_bytes + d });
    ( "scheme",
      fun d s ->
        let others =
          List.filter (fun x -> x <> s.Scenario.scheme) Scenario.all_schemes
        in
        { s with Scenario.scheme = List.nth others (d mod List.length others) }
    );
    ( "cc",
      fun d s ->
        let others =
          List.filter
            (fun x -> x <> s.Scenario.tcp.Tcp_config.cc)
            Tcp_config.all_ccs
        in
        Scenario.with_cc s (List.nth others (d mod List.length others)) );
    ( "tcp_window",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.window = s.Scenario.tcp.Tcp_config.window + d;
            };
        } );
    ( "dupack_threshold",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.dupack_threshold =
                s.Scenario.tcp.Tcp_config.dupack_threshold + d;
            };
        } );
    ( "vegas_alpha",
      fun d s ->
        {
          s with
          Scenario.tcp =
            {
              s.Scenario.tcp with
              Tcp_config.vegas_alpha =
                s.Scenario.tcp.Tcp_config.vegas_alpha + d;
            };
        } );
    ( "mean_bad",
      fun d s ->
        {
          s with
          Scenario.wireless =
            {
              s.Scenario.wireless with
              Scenario.mean_bad =
                Simtime.span_add s.Scenario.wireless.Scenario.mean_bad
                  (Simtime.span_sec (float_of_int d));
            };
        } );
    ( "ber_bad",
      fun d s ->
        {
          s with
          Scenario.wireless =
            {
              s.Scenario.wireless with
              Scenario.ber =
                {
                  s.Scenario.wireless.Scenario.ber with
                  Loss.bad =
                    s.Scenario.wireless.Scenario.ber.Loss.bad
                    *. (1.0 +. float_of_int d);
                };
            };
        } );
    ( "wired_queue",
      fun d s ->
        {
          s with
          Scenario.wired =
            {
              s.Scenario.wired with
              Scenario.queue_capacity =
                s.Scenario.wired.Scenario.queue_capacity + d;
            };
        } );
    ( "arq_rt_max",
      fun d s ->
        {
          s with
          Scenario.arq =
            { s.Scenario.arq with Arq.rt_max = s.Scenario.arq.Arq.rt_max + d };
        } );
    ("uplink_arq", fun _ s -> { s with Scenario.uplink_arq = not s.Scenario.uplink_arq });
    ( "frame_queue",
      fun d s ->
        {
          s with
          Scenario.frame_queue_capacity = s.Scenario.frame_queue_capacity + d;
        } );
    ( "horizon",
      fun d s ->
        {
          s with
          Scenario.horizon =
            Simtime.span_sec
              (float_of_int (Simtime.span_to_ns s.Scenario.horizon) /. 1e9
              +. float_of_int d);
        } );
  ]

let prop_fingerprint_sensitivity =
  QCheck2.Test.make
    ~name:"fingerprint: perturbing any knob changes the key"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 (List.length mutations - 1)) (int_range 1 999))
    (fun (which, delta) ->
      let base = small_wan () in
      let name, mutate = List.nth mutations which in
      let mutated = mutate delta base in
      if Fingerprint.key mutated = Fingerprint.key base then
        QCheck2.Test.fail_reportf "mutation %S (delta %d) left the key fixed"
          name delta
      else true)

let prop_fingerprint_seed_only =
  QCheck2.Test.make
    ~name:"fingerprint: same scenario, same seed => same key"
    ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      Fingerprint.key (small_wan ~seed ())
      = Fingerprint.key (small_wan ~seed ()))

(* ------------------------------------------------------------------ *)
(* Measurement codec                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  match Run.measurement_of_string (Run.measurement_to_string m) with
  | Some m' -> Run.measurement_to_string m' = Run.measurement_to_string m
  | None -> false

let test_codec_specials () =
  let base =
    Run.
      {
        throughput_bps = 7812.5;
        goodput = 0.875;
        retransmitted_kbytes = 3.25;
        source_timeouts = 3;
        fast_retransmits = 1;
        ebsn_received = 12;
        duration_sec = 102.4;
        completed = true;
      }
  in
  List.iter
    (fun (label, m) ->
      Alcotest.(check bool) (label ^ " roundtrips exactly") true (roundtrip m))
    [
      ("plain", base);
      ( "incomplete (infinite duration)",
        { base with Run.duration_sec = Float.infinity; Run.completed = false }
      );
      ("negative zero", { base with Run.goodput = -0.0 });
      ("denormal", { base with Run.retransmitted_kbytes = 1e-310 });
      ("huge", { base with Run.throughput_bps = 1.797e308 });
    ];
  Alcotest.(check bool)
    "garbage decodes to None" true
    (Run.measurement_of_string "m1 not a payload" = None);
  Alcotest.(check bool)
    "wrong tag decodes to None" true
    (Run.measurement_of_string "m2 0 0 0 0 0 0 0 1" = None)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"measurement codec: exact roundtrip" ~count:300
    QCheck2.Gen.(
      tup4 float float (int_range 0 1_000_000) (pair float bool))
    (fun (tput, gp, n, (dur, completed)) ->
      roundtrip
        Run.
          {
            throughput_bps = tput;
            goodput = gp;
            retransmitted_kbytes = gp *. 3.0;
            source_timeouts = n;
            fast_retransmits = n / 2;
            ebsn_received = n mod 97;
            duration_sec = dur;
            completed;
          })

(* ------------------------------------------------------------------ *)
(* On-disk store                                                       *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_cache_dir @@ fun dir ->
  let key = String.make 32 'a' in
  Alcotest.(check bool)
    "missing entry is None" true
    (Store.get ~dir ~key = None);
  Store.put ~dir ~key "payload line\n";
  Alcotest.(check (option string))
    "roundtrip" (Some "payload line\n") (Store.get ~dir ~key);
  Store.reread ();
  Alcotest.(check (option string))
    "re-read from disk" (Some "payload line\n") (Store.get ~dir ~key);
  let s = Store.stats ~dir in
  Alcotest.(check int) "one valid entry" 1 s.Store.entries;
  Alcotest.(check int) "no stale" 0 s.Store.stale;
  Alcotest.(check int) "no corrupt" 0 s.Store.corrupt

(* Each kind of damage, in segments written by hand: a torn final
   record, a garbled line, an undecodable payload, a foreign-magic
   segment and a stale-version segment all read as misses and are
   counted; the torn record counts once its newline is written. *)
let test_store_rejects_damage () =
  with_cache_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let seg name text = write (Filename.concat dir name) text in
  seg "a.seg" (header ^ "data aaaa payload%20a\ndata tttt payload-t");
  seg "b.seg" (header ^ "not a record at all\ndata gggg bad%zz\n");
  seg "c.seg" "wtcp-campaign some-engine\ndata ffff payload-f\n";
  seg "d.seg" "wtcp-cache some-older-engine\ndata ssss payload-s\n";
  Alcotest.(check (option string))
    "a complete record reads back" (Some "payload a")
    (Store.get ~dir ~key:"aaaa");
  List.iter
    (fun (what, key) ->
      Alcotest.(check (option string)) (what ^ " reads as a miss") None
        (Store.get ~dir ~key))
    [
      ("a torn final record", "tttt");
      ("an undecodable payload", "gggg");
      ("a record under a foreign header", "ffff");
      ("a stale-version record", "ssss");
    ];
  let s = Store.stats ~dir in
  Alcotest.(check (list int))
    "stats: 1 entry, 1 stale; torn, garbled, undecodable and foreign \
     header + record corrupt"
    [ 1; 1; 5 ]
    [ s.Store.entries; s.Store.stale; s.Store.corrupt ];
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
    (Filename.concat dir "a.seg") (fun oc -> Out_channel.output_string oc "\n");
  Store.reread ();
  Alcotest.(check (option string))
    "the torn record counts once its newline is there" (Some "payload-t")
    (Store.get ~dir ~key:"tttt")

let test_store_clear_prune () =
  with_cache_dir @@ fun dir ->
  let valid_key = String.make 32 'd' in
  Store.put ~dir ~key:valid_key "keep me\n";
  write (Filename.concat dir "old.seg")
    "wtcp-cache ancient\ndata eeee stale\n";
  write (Filename.concat dir "junk.seg") (header ^ "not a cache record\n");
  let s = Store.stats ~dir in
  Alcotest.(check (list int))
    "stats classify valid/stale/corrupt"
    [ 1; 1; 1 ]
    [ s.Store.entries; s.Store.stale; s.Store.corrupt ];
  let swept = Store.prune ~dir in
  Alcotest.(check int) "prune removes exactly the bad ones" 2 swept.Store.removed;
  Alcotest.(check int) "prune skipped nothing" 0 swept.Store.skipped;
  Alcotest.(check int) "prune leaves one segment" 1
    (List.length (segments dir));
  Alcotest.(check (option string))
    "valid entry survives prune" (Some "keep me\n")
    (Store.get ~dir ~key:valid_key);
  Alcotest.(check int) "clear removes the rest" 1 (Store.clear ~dir).Store.removed;
  Alcotest.(check bool)
    "store empty after clear" true
    ((Store.stats ~dir).Store.entries = 0 && segments dir = []);
  Alcotest.(check (option string))
    "nothing served after clear" None
    (Store.get ~dir ~key:valid_key)

(* Another process's [cache clear] unlinks the segment a running
   process appends to: its next put must start a new segment rather
   than write into the deleted one. *)
let test_store_put_after_outside_clear () =
  with_cache_dir @@ fun dir ->
  Store.put ~dir ~key:"aaaa" "first";
  List.iter Sys.remove (segments dir);
  Store.put ~dir ~key:"bbbb" "second";
  Alcotest.(check int) "the later record is on disk" 1
    (Store.stats ~dir).Store.entries;
  Store.reread ();
  Alcotest.(check (option string))
    "and served after a re-read" (Some "second")
    (Store.get ~dir ~key:"bbbb");
  Alcotest.(check (option string))
    "the cleared record is gone" None
    (Store.get ~dir ~key:"aaaa")

(* Campaign manifests live under [<cache-dir>/campaigns/], beside the
   cache's segments: the maintenance verbs must neither count them nor
   delete them. *)
let test_store_leaves_campaigns_alone () =
  with_cache_dir @@ fun dir ->
  let key = String.make 32 'a' in
  Store.put ~dir ~key "entry\n";
  let campaigns = Filename.concat dir "campaigns" in
  Sys.mkdir campaigns 0o755;
  let manifest = Filename.concat campaigns "0123abcd.manifest" in
  Out_channel.with_open_bin manifest (fun oc ->
      output_string oc "wtcp-campaign some-engine\n");
  let s = Store.stats ~dir in
  Alcotest.(check (list int))
    "one entry, nothing stale or corrupt" [ 1; 0; 0 ]
    [ s.Store.entries; s.Store.stale; s.Store.corrupt ];
  Alcotest.(check int) "prune removes nothing" 0 (Store.prune ~dir).Store.removed;
  Alcotest.(check int) "clear removes only the entry" 1
    (Store.clear ~dir).Store.removed;
  Alcotest.(check bool) "entry gone" true (Store.get ~dir ~key = None);
  Alcotest.(check bool) "manifest survives prune and clear" true
    (Sys.file_exists manifest)

(* A damaged store -- a torn record beside an undeletable segment (a
   directory squatting on a segment name: reads fail with EISDIR, and
   so does Sys.remove) -- must degrade the walk, not abort it.
   [chmod 000] is no use here (tests may run as root), the squatting
   directory fails for every uid. *)
let test_store_damaged_tree_degrades () =
  with_cache_dir @@ fun dir ->
  let valid_key = String.make 32 '1' in
  let truncated_key = String.make 32 '2' in
  Store.put ~dir ~key:valid_key "keep me\n";
  Store.put ~dir ~key:truncated_key "about to be torn\n";
  let seg = List.hd (segments dir) in
  let full = read seg in
  write seg (String.sub full 0 (String.length full - 3));
  let squatter = Filename.concat dir "squatter.seg" in
  Sys.mkdir squatter 0o755;
  (* stats: the torn record and the unreadable segment classify as
     corrupt, neither aborts. *)
  let s = Store.stats ~dir in
  Alcotest.(check int) "valid entry still counted" 1 s.Store.entries;
  Alcotest.(check int) "torn record + squatter classify corrupt" 2 s.Store.corrupt;
  (* prune: drops the torn record, reports the undeletable segment,
     keeps the valid entry -- and returns instead of raising. *)
  let swept = Store.prune ~dir in
  Alcotest.(check int) "prune removed the torn record" 1 swept.Store.removed;
  Alcotest.(check int) "prune reported the undeletable one" 1 swept.Store.skipped;
  Alcotest.(check (option string))
    "valid entry survives the damaged-store prune" (Some "keep me\n")
    (Store.get ~dir ~key:valid_key);
  Alcotest.(check (option string))
    "the torn record is a miss" None
    (Store.get ~dir ~key:truncated_key);
  (* clear: same degradation contract over the remaining segments. *)
  let swept = Store.clear ~dir in
  Alcotest.(check int) "clear removed the valid entry" 1 swept.Store.removed;
  Alcotest.(check int) "clear still reports the squatter" 1 swept.Store.skipped;
  Sys.rmdir squatter

(* ------------------------------------------------------------------ *)
(* Cached sweep path                                                   *)
(* ------------------------------------------------------------------ *)

let ms_render ms = String.concat "|" (List.map Run.measurement_to_string ms)

let test_cache_off_is_inert () =
  with_cache_dir @@ fun dir ->
  Alcotest.(check bool) "off by default" false (Cache.active ());
  Alcotest.(check bool) "find is None" true (Cache.find ~key:"deadbeef" = None);
  Cache.store ~key:"deadbeef" "x";
  Alcotest.(check bool)
    "store is a no-op" true
    ((Store.stats ~dir).Store.entries = 0);
  let s = Cache.stats () in
  Alcotest.(check int) "nothing counted" 0
    (s.Cache.disk_hits + s.Cache.misses + s.Cache.stores)

let test_cached_sweep_matches_uncached () =
  with_cache_dir @@ fun dir ->
  let scenario = small_wan () in
  let reference = ms_render (Sweep.measurements ~replications:2 scenario) in
  Cache.set_mode Cache.On;
  let cold = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s1 = Cache.stats () in
  Alcotest.(check string) "cold run equals uncached" reference cold;
  Alcotest.(check int) "cold run missed every cell" 2 s1.Cache.misses;
  Alcotest.(check int) "and stored every cell" 2 s1.Cache.stores;
  (* Same invocation: the store's index serves. *)
  let warm = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s2 = Cache.stats () in
  Alcotest.(check string) "warm equals uncached" reference warm;
  Alcotest.(check int) "warm hits" 2 (s2.Cache.disk_hits - s1.Cache.disk_hits);
  (* After [memo_clear] the segments are re-read: served while they
     hold the records, missed once they are gone. *)
  Cache.memo_clear ();
  let reread = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s3 = Cache.stats () in
  Alcotest.(check string) "re-read equals uncached" reference reread;
  Alcotest.(check int) "re-read hits" 2 (s3.Cache.disk_hits - s2.Cache.disk_hits);
  Alcotest.(check int) "no extra misses" s1.Cache.misses s3.Cache.misses;
  List.iter Sys.remove (segments dir);
  Cache.memo_clear ();
  let gone = ms_render (Sweep.measurements ~replications:2 scenario) in
  let s4 = Cache.stats () in
  Alcotest.(check string) "deleted store re-simulates" reference gone;
  Alcotest.(check int) "deleted records are misses" 2
    (s4.Cache.misses - s3.Cache.misses);
  Alcotest.(check int) "and are stored again" 2
    (Store.stats ~dir).Store.entries

(* Repeated cells in one batch: at jobs=1 the first copy of each cell
   simulates and stores, and the later copies are hits. *)
let test_duplicate_cells_dedup () =
  with_cache_dir @@ fun _dir ->
  let scenario = small_wan () in
  let reference = Sweep.measurements ~replications:2 scenario in
  Cache.set_mode Cache.On;
  (match
     Sweep.measurements_all ~replications:2 [ scenario; scenario; scenario ]
   with
  | [ a; b; c ] ->
    Alcotest.(check string)
      "every copy gets the reference measurements" (ms_render reference)
      (ms_render a);
    Alcotest.(check string) "copies agree" (ms_render a) (ms_render b);
    Alcotest.(check string) "all three" (ms_render b) (ms_render c)
  | _ -> Alcotest.fail "expected three scenario results");
  let s = Cache.stats () in
  Alcotest.(check (list int))
    "2 cells simulate and store once; their 4 copies hit"
    [ 2; 2; 4 ]
    [ s.Cache.misses; s.Cache.stores; s.Cache.disk_hits ]

let test_corrupted_entry_is_miss_and_heals () =
  with_cache_dir @@ fun dir ->
  let scenario = small_wan () in
  let key = Fingerprint.key scenario in
  Cache.set_mode Cache.On;
  let fresh = Run.measure_cached scenario in
  (* Garble the stored record on disk and re-read: the next lookup
     must fall back to simulation and return the right answer (and
     append a good record). *)
  let seg = List.hd (segments dir) in
  write seg (header ^ "data " ^ key ^ " m1%zz\n");
  Cache.memo_clear ();
  Cache.reset_stats ();
  let healed = Run.measure_cached scenario in
  Alcotest.(check string)
    "corrupted entry re-simulates to the same bytes"
    (Run.measurement_to_string fresh)
    (Run.measurement_to_string healed);
  let s = Cache.stats () in
  Alcotest.(check (list int))
    "counted as miss + store, not a hit" [ 1; 1; 0 ]
    [ s.Cache.misses; s.Cache.stores; s.Cache.disk_hits ];
  Cache.memo_clear ();
  Alcotest.(check (option string))
    "the healed record is valid on disk"
    (Some (Run.measurement_to_string fresh))
    (Store.get ~dir ~key)

let test_verify_detects_poison () =
  with_cache_dir @@ fun _dir ->
  let scenario = small_wan () in
  let key = Fingerprint.key scenario in
  Cache.set_mode Cache.On;
  let real = Run.measure_cached scenario in
  (* Poison the cache with a decodable-but-wrong payload. *)
  Cache.store ~key
    (Run.measurement_to_string
       { real with Run.throughput_bps = real.Run.throughput_bps +. 1.0 });
  Cache.set_mode Cache.Verify;
  Cache.reset_stats ();
  (match Run.measure_cached scenario with
  | _ -> Alcotest.fail "verify mode accepted a poisoned entry"
  | exception Cache.Verify_mismatch { key = k; _ } ->
    Alcotest.(check string) "mismatch names the key" key k);
  Alcotest.(check int) "counted as a verify failure" 1
    (Cache.stats ()).Cache.verify_fail;
  (* And on an honest entry, verify passes and serves the hit. *)
  Cache.store ~key (Run.measurement_to_string real);
  Cache.reset_stats ();
  let verified = Run.measure_cached scenario in
  Alcotest.(check string) "honest hit verifies"
    (Run.measurement_to_string real)
    (Run.measurement_to_string verified);
  Alcotest.(check int) "counted ok" 1 (Cache.stats ()).Cache.verify_ok

(* ------------------------------------------------------------------ *)
(* Figure CSVs: warm vs cold at jobs=1 and jobs=4                      *)
(* ------------------------------------------------------------------ *)

let fig7_csv ~jobs = Wan_sweep.to_csv (Fig7.compute ~replications:1 ~jobs ())

let fig10_csv ~jobs =
  let basic, ebsn = Fig10.compute ~replications:1 ~jobs () in
  Lan_sweep.to_csv [ basic; ebsn ]

let figs_identity name csv =
  with_cache_dir @@ fun _dir ->
  let reference = csv ~jobs:1 in
  Cache.set_mode Cache.On;
  Cache.reset_stats ();
  let cold = csv ~jobs:1 in
  let after_cold = Cache.stats () in
  Alcotest.(check string) (name ^ ": cold jobs=1 equals uncached") reference
    cold;
  Alcotest.(check bool) (name ^ ": cold run populated the store") true
    (after_cold.Cache.stores > 0);
  Cache.memo_clear ();
  let warm1 = csv ~jobs:1 in
  Cache.memo_clear ();
  let warm4 = csv ~jobs:4 in
  let final = Cache.stats () in
  Alcotest.(check string) (name ^ ": warm jobs=1 byte-identical") reference
    warm1;
  Alcotest.(check string) (name ^ ": warm jobs=4 byte-identical") reference
    warm4;
  Alcotest.(check int)
    (name ^ ": warm runs missed nothing")
    after_cold.Cache.misses final.Cache.misses;
  Alcotest.(check bool) (name ^ ": warm runs hit the store") true
    (final.Cache.disk_hits > 0);
  (* Verify mode re-simulates every hit and compares it byte for byte
     (a divergence raises Verify_mismatch). *)
  Cache.set_mode Cache.Verify;
  Cache.reset_stats ();
  let verified = csv ~jobs:4 in
  let v = Cache.stats () in
  Alcotest.(check string) (name ^ ": verify pass byte-identical") reference
    verified;
  Alcotest.(check bool) (name ^ ": verify replayed hits") true
    (v.Cache.verify_ok > 0);
  Alcotest.(check int) (name ^ ": no verify divergence") 0 v.Cache.verify_fail

let test_fig7_warm_cold () = figs_identity "fig7" fig7_csv
let test_fig10_warm_cold () = figs_identity "fig10" fig10_csv

(* The cc cross table re-measures every (basic|ebsn) x cc cell the cc
   ablation measures: in one invocation those cells must come back
   from the store, and only the table's own cells simulate. *)
let test_cc_table_shares_cells () =
  with_cache_dir @@ fun _dir ->
  Cache.set_mode Cache.On;
  ignore (Ablations.cc ~replications:1 ());
  let cc = Cache.stats () in
  ignore (Ablations.cc_table ~replications:1 ());
  let table = Cache.stats () in
  let n_ccs = List.length Tcp_config.all_ccs in
  let shared = 2 * n_ccs in
  Alcotest.(check int) "ablation-cc stores its cells" shared cc.Cache.stores;
  Alcotest.(check int) "the table's shared cells are hits" shared
    (table.Cache.disk_hits - cc.Cache.disk_hits);
  Alcotest.(check int) "only the table's own cells simulate"
    ((List.length Scenario.all_schemes * n_ccs) - shared)
    (table.Cache.misses - cc.Cache.misses)

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "equal configs collide" `Quick
            test_equal_configs_collide;
          Alcotest.test_case "engine version salts the key" `Quick
            test_engine_version_salts_key;
          Alcotest.test_case "fault plan is part of the identity" `Quick
            test_fault_plan_in_key;
          q prop_fingerprint_sensitivity;
          q prop_fingerprint_seed_only;
          Alcotest.test_case "salt is bound to outputs" `Quick
            test_salt_bound_to_outputs;
        ] );
      ( "codec",
        [
          Alcotest.test_case "special values roundtrip" `Quick
            test_codec_specials;
          q prop_codec_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + stats" `Quick test_store_roundtrip;
          Alcotest.test_case "damaged entries are misses" `Quick
            test_store_rejects_damage;
          Alcotest.test_case "clear and prune" `Quick test_store_clear_prune;
          Alcotest.test_case "damaged tree degrades, never aborts" `Quick
            test_store_damaged_tree_degrades;
          Alcotest.test_case "campaign manifests are not entries" `Quick
            test_store_leaves_campaigns_alone;
          Alcotest.test_case "a put after an outside clear is kept" `Quick
            test_store_put_after_outside_clear;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "off mode is inert" `Quick test_cache_off_is_inert;
          Alcotest.test_case "cached sweep matches uncached" `Quick
            test_cached_sweep_matches_uncached;
          Alcotest.test_case "duplicate cells dedup" `Quick
            test_duplicate_cells_dedup;
          Alcotest.test_case "corrupted entry is a miss and heals" `Quick
            test_corrupted_entry_is_miss_and_heals;
          Alcotest.test_case "verify detects a poisoned entry" `Quick
            test_verify_detects_poison;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7 warm vs cold, jobs=1 and jobs=4" `Slow
            test_fig7_warm_cold;
          Alcotest.test_case "fig10 warm vs cold, jobs=1 and jobs=4" `Slow
            test_fig10_warm_cold;
          Alcotest.test_case "cc table served from the cc ablation's cells"
            `Quick test_cc_table_shares_cells;
        ] );
    ]
