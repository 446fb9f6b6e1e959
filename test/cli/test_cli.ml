(* CLI robustness checks, run against the real wtcp binary (path in
   argv 1): every subcommand must reject an unknown flag with a
   non-zero exit and usage text on stderr, unknown subcommands must
   fail, and the documented happy paths must exit 0.  Golden-output
   drift is covered by the sibling diff rules and, for the campaign
   commands, by the MD5 pins and plain-vs-supervised checks here; the
   rest of this file covers the error surface. *)

let wtcp = Sys.argv.(1)
let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* Exit code and captured stderr of [wtcp args], stdout discarded;
   [prefix] runs first in the same shell (a ulimit, say). *)
let run_wtcp ?(prefix = "") args =
  let err = Filename.temp_file "wtcp_cli" ".err" in
  let cmd =
    Printf.sprintf "%s%s %s >/dev/null 2>%s" prefix (Filename.quote wtcp) args
      (Filename.quote err)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, text)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let slurp p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Exit code and stdout of [wtcp args]. *)
let stdout_of args =
  let out = Filename.temp_file "wtcp_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>/dev/null" (Filename.quote wtcp) args
         (Filename.quote out))
  in
  let text = slurp out in
  Sys.remove out;
  (code, text)

let () =
  (* The report bytes of the plain table commands, pinned by MD5. *)
  List.iter
    (fun (args, expected) ->
      let code, text = stdout_of args in
      let md5 = Digest.to_hex (Digest.string text) in
      check
        (Printf.sprintf "%s prints its pinned bytes (exit %d, md5 %s)" args
           code md5)
        (code = 0 && md5 = expected))
    [
      ("compare --replications 2 --file 20000",
       "e6d2e5ba84f91768da29708c4f38c54e");
      ("compare --preset lan --bad 1.5 --good 3.3 --cc reno --replications 2 \
        --file 200000",
       "8fcb345fec64a2f94450e255ccbfdf7b");
      ("advisor --bad-periods 1,4 --replications 2",
       "a1c3d5d3f7cedf0ec3da34cb52c133b1");
    ];
  (* compare's --seed shifts every replication's seed. *)
  let _, seed1 = stdout_of "compare --replications 1 --file 20000 --seed 1" in
  let code, seed5 = stdout_of "compare --replications 1 --file 20000 --seed 5" in
  check
    (Printf.sprintf "compare --seed 5 prints other bytes than --seed 1 \
                     (exit %d)" code)
    (code = 0 && seed5 <> "" && seed1 <> seed5);
  let subcommands =
    [ "run"; "trace"; "advisor"; "theory"; "compare"; "handoff"; "csdp";
      "chaos"; "resume x.manifest"; "cache"; "cache stats"; "cache clear";
      "cache prune" ]
  in
  List.iter
    (fun sub ->
      let code, err = run_wtcp (sub ^ " --definitely-not-a-flag") in
      check
        (Printf.sprintf "%s: unknown flag exits 124 (got %d)" sub code)
        (code = 124);
      check
        (Printf.sprintf "%s: unknown flag prints usage on stderr" sub)
        (contains err "unknown option"
        && (contains err "Usage" || contains err "usage")))
    subcommands;
  (* Every subcommand that takes --cc must reject a bogus variant with
     a parse error (cmdliner's exit 124), naming the valid set. *)
  List.iter
    (fun sub ->
      let code, err = run_wtcp (sub ^ " --cc bogus") in
      check
        (Printf.sprintf "%s: bad --cc exits 124 (got %d)" sub code)
        (code = 124);
      check
        (Printf.sprintf "%s: bad --cc names the valid variants" sub)
        (contains err "tahoe" && contains err "vegas"))
    [ "run"; "compare"; "handoff"; "chaos" ];
  (* Supervision flags follow the strict-flag convention: a malformed
     or out-of-range value is a parse error (exit 124), on every
     subcommand that accepts them. *)
  List.iter
    (fun sub ->
      List.iter
        (fun flag ->
          let code, _ = run_wtcp (Printf.sprintf "%s %s" sub flag) in
          check
            (Printf.sprintf "%s: bad %s exits 124 (got %d)" sub flag code)
            (code = 124))
        [ "--deadline bogus"; "--deadline 0"; "--retries bogus"; "--retries 0" ])
    [ "compare"; "advisor"; "chaos"; "resume x.manifest" ];
  (* Numeric flags follow it too: an out-of-range value is a parse
     error, never an engine Invalid_argument (uncaught, exit 125).
     That includes the ranges one conv cannot see alone: a packet size
     the preset's TCP window cannot hold, and a period that rounds to
     0 ns or overflows the simulator's clock. *)
  List.iter
    (fun args ->
      let code, _ = run_wtcp args in
      check (Printf.sprintf "%s exits 124 (got %d)" args code) (code = 124))
    [
      "run --file 0"; "run --bad 0"; "run --bad nan"; "run --good 0";
      "run --packet-size 40"; "trace --window 0"; "theory --bad 0";
      "compare --replications 0"; "advisor --replications 0";
      "advisor --bad-periods 1,-1"; "csdp --connections 0";
      "chaos --plans=-1"; "handoff --residence=-1"; "handoff --blackout=-1";
      "run --packet-size 100000"; "trace --window 1e300"; "run --bad 1e-300";
      "run --good 1e-300"; "run --bad 1e300"; "compare --packet-size 100000";
      "advisor --bad-periods 1e-300"; "run --packet-size 4137";
      "run -p lan --packet-size 65577"; "theory --good 1e300";
    ];
  (* The limits themselves run.  The period limits are means, so they
     run at the default file size over several seeds: a 1-ns mean
     draws periods that round to 0 ns, and one near the clock's range
     draws periods past it. *)
  List.iter
    (fun args ->
      let code, _ = run_wtcp args in
      check (Printf.sprintf "%s exits 0 (got %d)" args code) (code = 0))
    ([
       "run --packet-size 4136 --file 20000";
       "trace --window 6e-10 --file 20000";
       "compare --bad 6e-10 --good 4.6e9 --replications 2";
       "advisor --bad-periods 6e-10,4.6e9 --replications 1";
     ]
    @ List.concat_map
        (fun seed ->
          List.map
            (fun period -> Printf.sprintf "run %s --seed %d" period seed)
            [ "--bad 6e-10"; "--good 6e-10"; "--bad 4.6e9"; "--good 4.6e9" ])
        [ 1; 2; 3; 4; 5 ]);
  let code, _ = run_wtcp "handoff --blackout 0" in
  check (Printf.sprintf "handoff --blackout 0 exits 0 (got %d)" code) (code = 0);
  (* An output path that cannot be written is a user error: exit 1
     with a message naming the path. *)
  List.iter
    (fun args ->
      let code, err = run_wtcp args in
      check
        (Printf.sprintf "%s exits 1 with a message (got %d)" args code)
        (code = 1 && contains err "wtcp: cannot write /nonexistent/"))
    [
      "chaos --plans 2 --json /nonexistent/x.json";
      "run --file 20000 --trace /nonexistent/f";
      "run --file 20000 --metrics /nonexistent/f";
      "run --file 20000 --nstrace /nonexistent/f";
    ];
  let code, err = run_wtcp "frobnicate" in
  check
    (Printf.sprintf "unknown subcommand exits 124 (got %d)" code)
    (code = 124);
  check "unknown subcommand names the bad command"
    (contains err "frobnicate");
  let code, _ = run_wtcp "theory --bad 2" in
  check (Printf.sprintf "theory happy path exits 0 (got %d)" code) (code = 0);
  let code, _ = run_wtcp "chaos --plans 2 --check" in
  check
    (Printf.sprintf "chaos happy path exits 0 (got %d)" code)
    (code = 0);
  List.iter
    (fun cc ->
      let code, _ = run_wtcp (Printf.sprintf "run --cc %s --file 20000" cc) in
      check
        (Printf.sprintf "run --cc %s exits 0 (got %d)" cc code)
        (code = 0))
    [ "tahoe"; "reno"; "newreno"; "sack"; "vegas" ];
  let code, _ = run_wtcp "chaos --cc vegas --plans 2 --check" in
  check
    (Printf.sprintf "chaos --cc vegas exits 0 (got %d)" code)
    (code = 0);
  (* Replication cache: maintenance verbs are happy paths, a cold
     --cache run populates the store, and --cache-verify then replays
     every hit against a fresh simulation and must stay green. *)
  let cache_dir = Filename.temp_file "wtcp_cli" ".cache" in
  Sys.remove cache_dir;
  let with_dir verb = Printf.sprintf "%s --cache-dir %s" verb cache_dir in
  List.iter
    (fun verb ->
      let code, _ = run_wtcp (with_dir verb) in
      check (Printf.sprintf "%s exits 0 (got %d)" verb code) (code = 0))
    [ "cache"; "cache stats"; "cache clear"; "cache prune" ];
  let code, _ =
    run_wtcp (with_dir "compare --cache --replications 1 --file 20000")
  in
  check
    (Printf.sprintf "compare --cache cold exits 0 (got %d)" code)
    (code = 0);
  let code, _ =
    run_wtcp (with_dir "compare --cache-verify --replications 1 --file 20000")
  in
  check
    (Printf.sprintf "compare --cache-verify warm exits 0 (got %d)" code)
    (code = 0);
  let code, _ = run_wtcp (with_dir "cache clear") in
  check
    (Printf.sprintf "cache clear after use exits 0 (got %d)" code)
    (code = 0);
  (* A cache entry that diverges from a fresh simulation fails
     --cache-verify with exit 1, supervised or not: the supervisor
     never retries or quarantines a verify failure. *)
  let forged_dir = Filename.temp_file "wtcp_cli" ".cache" in
  Sys.remove forged_dir;
  let compare =
    Printf.sprintf "compare --replications 1 --file 20000 --cache-dir %s"
      (Filename.quote forged_dir)
  in
  let code, _ = run_wtcp (compare ^ " --cache") in
  check (Printf.sprintf "compare --cache fills the store (got %d)" code)
    (code = 0);
  let segments =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".seg" then
          Some (Filename.concat forged_dir f)
        else None)
      (Array.to_list (Sys.readdir forged_dir))
  in
  (match segments with
  | [] -> check "compare --cache wrote a segment" false
  | segment :: _ ->
    (* One more source timeout in the first record: the payload still
       decodes.  A measurement payload holds only "m1", digits and
       spaces, so its token is the fields joined by "%20". *)
    let forged = ref false in
    let forge_record line =
      match String.split_on_char ' ' line with
      | [ "data"; key; payload ] when not !forged -> (
        match String.split_on_char '%' payload with
        | "m1" :: tb :: gp :: rk :: timeouts :: rest ->
          forged := true;
          let n = String.sub timeouts 2 (String.length timeouts - 2) in
          let timeouts = Printf.sprintf "20%d" (int_of_string n + 1) in
          Printf.sprintf "data %s %s" key
            (String.concat "%" ("m1" :: tb :: gp :: rk :: timeouts :: rest))
        | _ -> line)
      | _ -> line
    in
    let lines = List.map forge_record (String.split_on_char '\n' (slurp segment)) in
    check "forged one record" !forged;
    Out_channel.with_open_bin segment (fun oc ->
        output_string oc (String.concat "\n" lines));
    List.iter
      (fun flags ->
        let code, err = run_wtcp (compare ^ flags) in
        check
          (Printf.sprintf "compare%s on a forged entry exits 1 (got %d)" flags
             code)
          (code = 1 && contains err "wtcp: verify FAILED"))
      [ " --cache-verify"; " --cache-verify --supervised" ]);
  ignore (Sys.command ("rm -rf " ^ Filename.quote forged_dir));
  (* Two processes filling one fresh cache at once, each on two
     domains, append to segments of their own: every record of both
     reads back whole, and a verify pass hits every cell. *)
  let shared_dir = Filename.temp_file "wtcp_cli" ".cache" in
  Sys.remove shared_dir;
  let compare =
    Printf.sprintf
      "compare --replications 2 --file 20000 --jobs 2 --cache-dir %s"
      (Filename.quote shared_dir)
  in
  let writer =
    Printf.sprintf "%s %s --cache >/dev/null 2>&1" (Filename.quote wtcp)
      compare
  in
  let code =
    Sys.command
      (Printf.sprintf
         "%s & a=$!; %s & b=$!; wait $a; ra=$?; wait $b; rb=$?; \
          [ $ra -eq 0 ] && [ $rb -eq 0 ]"
         writer writer)
  in
  check
    (Printf.sprintf "two concurrent compare --cache writers exit 0 (got %d)"
       code)
    (code = 0);
  let code, stats =
    stdout_of
      (Printf.sprintf "cache stats --cache-dir %s" (Filename.quote shared_dir))
  in
  check
    (Printf.sprintf "cache stats after them: 12 entries, 0 corrupt (exit %d)"
       code)
    (code = 0 && contains stats "entries: 12 " && contains stats "corrupt: 0\n");
  let code, verified = stdout_of (compare ^ " --cache-verify") in
  check
    (Printf.sprintf "compare --cache-verify after them: 12 hits, 0 misses \
                     (exit %d)" code)
    (code = 0 && contains verified "cache:      12 disk hits, 0 misses");
  ignore (Sys.command ("rm -rf " ^ Filename.quote shared_dir));
  (* Supervised campaign + resume happy path: a finished supervised
     chaos campaign leaves a manifest; resuming it restores every
     cell and writes a byte-identical JSON report. *)
  let json_a = Filename.temp_file "wtcp_cli" ".json" in
  let json_b = Filename.temp_file "wtcp_cli" ".json" in
  let code, _ =
    run_wtcp
      (with_dir
         (Printf.sprintf "chaos --plans 2 --supervised --json %s"
            (Filename.quote json_a)))
  in
  check
    (Printf.sprintf "supervised chaos exits 0 (got %d)" code)
    (code = 0);
  let manifest =
    let dir = Filename.concat cache_dir "campaigns" in
    match Sys.readdir dir with
    | [| m |] -> Some (Filename.concat dir m)
    | _ | (exception Sys_error _) -> None
  in
  check "supervised chaos left exactly one manifest" (manifest <> None);
  (match manifest with
  | None -> ()
  | Some path ->
    (* The manifest is not a cache entry: prune and clear keep it. *)
    List.iter
      (fun verb ->
        let code, _ = run_wtcp (with_dir verb) in
        check
          (Printf.sprintf "%s beside a manifest exits 0 (got %d)" verb code)
          (code = 0);
        check (verb ^ " keeps the manifest") (Sys.file_exists path))
      [ "cache prune"; "cache clear" ];
    let code, _ =
      run_wtcp
        (with_dir
           (Printf.sprintf "resume --json %s %s" (Filename.quote json_b)
              (Filename.quote path)))
    in
    check (Printf.sprintf "resume exits 0 (got %d)" code) (code = 0);
    check "resume JSON byte-identical to supervised run"
      (slurp json_a = slurp json_b));
  Sys.remove json_a;
  Sys.remove json_b;
  let code, _ = run_wtcp "resume /nonexistent/path.manifest" in
  check
    (Printf.sprintf "resume on a missing manifest exits 1 (got %d)" code)
    (code = 1);
  (* A copy of the manifest at [path] with each line that starts with
     [prefix] passed through [edit]. *)
  let forge path prefix edit =
    let lines = String.split_on_char '\n' (slurp path) in
    let forged = Filename.temp_file "wtcp_cli" ".manifest" in
    let oc = open_out_bin forged in
    output_string oc
      (String.concat "\n"
         (List.map
            (fun l -> if String.starts_with ~prefix l then edit l else l)
            lines));
    close_out oc;
    forged
  in
  (* A header's cell count must not size memory: a huge count is
     refused (exit 1) against the count its spec builds, with or
     without an address-space cap. *)
  (match manifest with
  | None -> ()
  | Some path ->
    List.iter
      (fun (cells, prefix) ->
        let forged = forge path "cells " (fun _ -> "cells " ^ cells) in
        let code, err =
          run_wtcp ~prefix ("resume " ^ Filename.quote forged)
        in
        Sys.remove forged;
        check
          (Printf.sprintf "resume on a %s%s-cell header exits 1 (got %d)"
             (if prefix = "" then "" else "capped ")
             cells code)
          (code = 1 && contains err "wtcp: cannot resume"))
      [
        ("4611686018427387903", "");
        ("2000000000", "ulimit -v 4000000; ");
      ]);
  (* Plain and supervised runs print the same report apart from the
     supervisor line, and a plain run writes no manifest. *)
  List.iter
    (fun args ->
      let dir = Filename.temp_file "wtcp_cli" ".cache" in
      Sys.remove dir;
      let campaigns = Filename.concat dir "campaigns" in
      let _, plain = stdout_of (Printf.sprintf "%s --cache-dir %s" args dir) in
      check (args ^ " (plain) writes no campaigns directory")
        (not (Sys.file_exists campaigns));
      let code, supervised =
        stdout_of (Printf.sprintf "%s --supervised --cache-dir %s" args dir)
      in
      let report text =
        List.filter
          (fun l -> not (String.starts_with ~prefix:"supervisor: " l))
          (String.split_on_char '\n' text)
      in
      check
        (Printf.sprintf "%s: supervised report equals plain (exit %d)" args
           code)
        (code = 0 && plain <> "" && report plain = report supervised);
      (* A spec edited out of range is refused on resume (exit 1), like
         the same value on the command line. *)
      (match Sys.readdir campaigns with
      | [| m |] when String.starts_with ~prefix:"compare" args ->
        List.iter
          (fun (from, into) ->
            let forged =
              forge (Filename.concat campaigns m) "spec " (fun l ->
                  String.concat " "
                    (List.map
                       (fun tok -> if tok = from then into else tok)
                       (String.split_on_char ' ' l)))
            in
            let code, err = run_wtcp ("resume " ^ Filename.quote forged) in
            Sys.remove forged;
            check
              (Printf.sprintf "resume of a spec with %s exits 1 (got %d)" into
                 code)
              (code = 1 && contains err "wtcp: cannot resume"))
          [ ("size=-", "size=100000"); ("bad=-", "bad=-0x1p+0") ]
      | _ -> ()
      | exception Sys_error _ ->
        check (args ^ " --supervised left a manifest") false);
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    [
      "compare --replications 1 --file 20000";
      "compare --replications 1 --file 20000 --seed 5";
      "advisor --bad-periods 2 --replications 1";
      "chaos --plans 3 --check";
    ];
  (* A campaign whose checkpoint directory cannot be created fails up
     front with a message, not an uncaught exception. *)
  let not_a_dir = Filename.temp_file "wtcp_cli" ".file" in
  let code, err =
    run_wtcp
      (Printf.sprintf "chaos --plans 2 --supervised --cache-dir %s"
         (Filename.quote not_a_dir))
  in
  Sys.remove not_a_dir;
  check
    (Printf.sprintf "supervised chaos into an unwritable cache dir exits 1 \
                     (got %d)" code)
    (code = 1 && contains err "wtcp: cannot checkpoint campaign");
  if !failures > 0 then exit 1
