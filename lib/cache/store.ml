(* Entry layout:
     wtcp-cache <engine_version>\n
     key <key>\n
     <payload>
     end\n
   The header pins the minting engine version, the key line guards
   against renamed files, and the terminator proves the write ran to
   completion.  Anything that deviates reads as a miss. *)

let magic = "wtcp-cache"
let header () = Printf.sprintf "%s %s\n" magic Fingerprint.engine_version
let footer = "end\n"

let subdir_of_key key = if String.length key >= 2 then String.sub key 0 2 else "xx"

(* Every name [subdir_of_key] returns.  Only these directories hold
   entries; anything else under the cache dir (the campaign manifests
   under [campaigns/]) belongs to someone else, so the maintenance
   walk neither counts nor removes it. *)
let is_key_subdir sub = String.length sub = 2

let path_of_key ~dir ~key = Filename.concat (Filename.concat dir (subdir_of_key key)) key

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let r =
      match really_input_string ic (in_channel_length ic) with
      | s -> Some s
      | exception (End_of_file | Sys_error _) -> None
    in
    close_in_noerr ic;
    r

(* Split a raw entry into (version, key, payload); None if malformed. *)
let parse raw =
  let line_end from =
    match String.index_from_opt raw from '\n' with
    | Some i -> Some i
    | None -> None
  in
  match line_end 0 with
  | None -> None
  | Some l1 -> (
    let first = String.sub raw 0 l1 in
    match String.index_opt first ' ' with
    | None -> None
    | Some sp when String.sub first 0 sp <> magic -> None
    | Some sp -> (
      let version = String.sub first (sp + 1) (String.length first - sp - 1) in
      match line_end (l1 + 1) with
      | None -> None
      | Some l2 ->
        let second = String.sub raw (l1 + 1) (l2 - l1 - 1) in
        let flen = String.length footer in
        let body_start = l2 + 1 in
        if
          String.length second < 4
          || String.sub second 0 4 <> "key "
          || String.length raw < body_start + flen
          || String.sub raw (String.length raw - flen) flen <> footer
        then None
        else
          let key = String.sub second 4 (String.length second - 4) in
          let payload =
            String.sub raw body_start (String.length raw - body_start - flen)
          in
          Some (version, key, payload)))

let get ~dir ~key =
  match read_file (path_of_key ~dir ~key) with
  | None -> None
  | Some raw -> (
    match parse raw with
    | Some (version, k, payload)
      when version = Fingerprint.engine_version && k = key ->
      Some payload
    | _ -> None)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Sys.mkdir p 0o755 with Sys_error _ -> ())
    end
  in
  go path

let tmp_counter = Atomic.make 0

let put ~dir ~key payload =
  let final = path_of_key ~dir ~key in
  mkdir_p (Filename.dirname final);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc -> (
    let ok =
      match
        output_string oc (header ());
        output_string oc ("key " ^ key ^ "\n");
        output_string oc payload;
        output_string oc footer;
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
        close_out_noerr oc;
        false
    in
    if ok then
      try Sys.rename tmp final with Sys_error _ -> (
        try Sys.remove tmp with Sys_error _ -> ())
    else try Sys.remove tmp with Sys_error _ -> ())

type stats = { entries : int; bytes : int; stale : int; corrupt : int }

type classification = Valid of int | Stale | Corrupt | Tmp

(* Temp files carry a ".tmp.<pid>.<n>" suffix appended to the key. *)
let is_tmp path =
  let rec contains_at base i =
    i >= 0
    && (String.length base - i >= 5 && String.sub base i 5 = ".tmp."
       || contains_at base (i - 1))
  in
  let base = Filename.basename path in
  contains_at base (String.length base - 5)

let classify path =
  if is_tmp path then Tmp
  else
    match read_file path with
    | None -> Corrupt
    | Some raw -> (
      match parse raw with
      | Some (version, k, _)
        when version = Fingerprint.engine_version && k = Filename.basename path
        ->
        Valid (String.length raw)
      | Some _ -> Stale
      | None -> Corrupt)

(* A damaged tree — entries vanishing mid-walk, unreadable
   subdirectories, files where directories should be — is exactly
   when the maintenance verbs run, so every stat on the walk is
   guarded: an entry we cannot inspect is skipped, never a reason to
   abort with the sweep half done. *)
let is_directory path = try Sys.is_directory path with Sys_error _ -> false

let iter_files ~dir f =
  if is_directory dir then
    Array.iter
      (fun sub ->
        let subpath = Filename.concat dir sub in
        if is_key_subdir sub && is_directory subpath then
          Array.iter
            (fun file -> f (Filename.concat subpath file))
            (try Sys.readdir subpath with Sys_error _ -> [||]))
      (try Sys.readdir dir with Sys_error _ -> [||])

let stats ~dir =
  let entries = ref 0 and bytes = ref 0 and stale = ref 0 and corrupt = ref 0 in
  iter_files ~dir (fun path ->
      match classify path with
      | Valid n ->
        incr entries;
        bytes := !bytes + n
      | Stale -> incr stale
      | Corrupt | Tmp -> incr corrupt);
  { entries = !entries; bytes = !bytes; stale = !stale; corrupt = !corrupt }

type sweep = { removed : int; skipped : int }

let remove_matching ~dir keep =
  let removed = ref 0 and skipped = ref 0 in
  iter_files ~dir (fun path ->
      if not (keep (classify path)) then (
        match Sys.remove path with
        | () -> incr removed
        | exception Sys_error _ ->
          (* Undeletable (permission, or a directory squatting on an
             entry path): report it and keep sweeping. *)
          incr skipped));
  { removed = !removed; skipped = !skipped }

let clear ~dir = remove_matching ~dir (fun _ -> false)

let prune ~dir =
  remove_matching ~dir (function Valid _ -> true | Stale | Corrupt | Tmp -> false)

let entry_path = path_of_key
