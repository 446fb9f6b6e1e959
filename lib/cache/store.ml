(* Per directory the process keeps an index of what it has read or
   written there and the segment it appends to, all under one lock. *)

let magic = "wtcp-cache"

type record = Current of (string * string) | Stale | Corrupt
type header = Unread | Version of string | Foreign

(* [f line record] for each line of the segment after its header.  A
   torn tail or an unreadable segment is one [f "" Corrupt]; under a
   foreign header every line is corrupt, the header included. *)
let scan path f =
  let step header line =
    match header with
    | Unread -> (
      match Record.field line magic with
      | Some version -> Version version
      | None ->
        f line Corrupt;
        Foreign)
    | Version version ->
      f line
        (match Record.data line with
        | Some data when version = Fingerprint.engine_version -> Current data
        | Some _ -> Stale
        | None -> Corrupt);
      header
    | Foreign ->
      f line Corrupt;
      header
  in
  match Record.fold_lines path ~init:Unread step with
  | Some (_, false) -> ()
  | Some (_, true) | None -> f "" Corrupt

(* Every segment of [dir], sorted, with its record count; [f] sees
   each record on the way. *)
let read_all dir f =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare names;
  List.filter_map
    (fun name ->
      if not (Filename.check_suffix name ".seg") then None
      else begin
        let path = Filename.concat dir name and n = ref 0 in
        scan path (fun line r -> incr n; f line r);
        Some (path, !n)
      end)
    (Array.to_list names)

(* A new segment of ours, created exclusively so that no other process
   appends to it; its header goes out with the first flush. *)
let open_segment dir =
  Record.mkdir_p dir;
  let rec attempt n =
    let path = Filename.concat dir (Printf.sprintf "%d-%d.seg" (Unix.getpid ()) n) in
    let flags = [ Open_wronly; Open_append; Open_creat; Open_excl; Open_binary ] in
    match open_out_gen flags 0o644 path with
    | oc ->
      Record.output_header oc ~magic;
      Some (path, oc)
    | exception Sys_error _ when n < 64 && Sys.file_exists path ->
      attempt (n + 1)
    | exception Sys_error _ -> None
  in
  attempt 0

type entry = { mutable payload : string; mutable seen : int }

(* An entry is live while [seen] is the shard's [pass]: the last
   re-read saw it, or a put added it since. *)
type shard = {
  index : (string, entry) Hashtbl.t;
  mutable pass : int;
  mutable current : bool;  (* read since the last [reread] *)
  mutable out : out_channel option;
}

let shards : (string, shard) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let shard dir =
  match Hashtbl.find_opt shards dir with
  | Some s -> s
  | None ->
    let s = { index = Hashtbl.create 256; pass = 0; current = false; out = None } in
    Hashtbl.add shards dir s;
    s

(* The payload string is replaced only when the bytes differ, so an
   index re-read leaves little that outlives the pass. *)
let note s key payload =
  match Hashtbl.find_opt s.index key with
  | Some e ->
    if not (String.equal e.payload payload) then e.payload <- payload;
    e.seen <- s.pass
  | None -> Hashtbl.replace s.index key { payload; seen = s.pass }

let reload dir s =
  s.pass <- s.pass + 1;
  ignore
    (read_all dir (fun _ -> function
       | Current (key, payload) -> note s key payload
       | Stale | Corrupt -> ()));
  Hashtbl.filter_map_inplace
    (fun _ e -> if e.seen = s.pass then Some e else None)
    s.index;
  s.current <- true

let get ~dir ~key =
  Mutex.protect lock (fun () ->
      let s = shard dir in
      if not s.current then reload dir s;
      Option.map (fun e -> e.payload) (Hashtbl.find_opt s.index key))

(* A clear or prune, ours or another process's, unlinks the segment we
   append to; the next put then starts a new one, so it is not lost. *)
let linked oc =
  try (Unix.fstat (Unix.descr_of_out_channel oc)).Unix.st_nlink > 0
  with Unix.Unix_error _ -> false

let put ~dir ~key payload =
  Mutex.protect lock (fun () ->
      let s = shard dir in
      note s key payload;
      if not (Option.fold ~none:false ~some:linked s.out) then begin
        Option.iter close_out_noerr s.out;
        s.out <- Option.map snd (open_segment dir)
      end;
      Option.iter
        (fun oc ->
          try
            Record.output_data oc ~key payload;
            flush oc
          with Sys_error _ ->
            close_out_noerr oc;
            s.out <- None)
        s.out)

let reread () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ s -> s.current <- false) shards)

type stats = { entries : int; bytes : int; stale : int; corrupt : int }

let stats ~dir =
  let sizes = Hashtbl.create 64 and stale = ref 0 and corrupt = ref 0 in
  ignore
    (read_all dir (fun line -> function
       | Current (key, _) -> Hashtbl.replace sizes key (String.length line + 1)
       | Stale -> incr stale
       | Corrupt -> incr corrupt));
  let bytes = Hashtbl.fold (fun _ n acc -> acc + n) sizes 0 in
  { entries = Hashtbl.length sizes; bytes; stale = !stale; corrupt = !corrupt }

type sweep = { removed : int; skipped : int }

(* Delete [segments] of [dir], counting the records of those deleted;
   the next lookup re-reads. *)
let delete dir segments =
  (shard dir).current <- false;
  List.fold_left
    (fun sweep (path, records) ->
      match Sys.remove path with
      | () -> { sweep with removed = sweep.removed + records }
      | exception Sys_error _ -> { sweep with skipped = sweep.skipped + 1 })
    { removed = 0; skipped = 0 }
    segments

let clear ~dir =
  Mutex.protect lock (fun () -> delete dir (read_all dir (fun _ _ -> ())))

(* [records] as a new segment: written to a temporary file, then
   renamed over a segment name [open_segment] reserved. *)
let write_segment dir records =
  match open_segment dir with
  | None -> false
  | Some (seg, oc) -> (
    close_out_noerr oc;
    let tmp = seg ^ ".tmp" in
    try
      Out_channel.with_open_bin tmp (fun oc ->
          Record.output_header oc ~magic;
          Hashtbl.iter (fun key p -> Record.output_data oc ~key p) records);
      Sys.rename tmp seg;
      true
    with Sys_error _ ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ tmp; seg ];
      false)

let prune ~dir =
  Mutex.protect lock (fun () ->
      let keep = Hashtbl.create 64 in
      let segments =
        read_all dir (fun _ -> function
          | Current (key, payload) -> Hashtbl.replace keep key payload
          | Stale | Corrupt -> ())
      in
      let kept = Hashtbl.length keep in
      if kept > 0 && not (write_segment dir keep) then
        { removed = 0; skipped = List.length segments }
      else
        let swept = delete dir segments in
        { swept with removed = max 0 (swept.removed - kept) })
