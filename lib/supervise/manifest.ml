(* Campaign manifest: the append-only checkpoint log of a supervised
   campaign, and the only file a campaign writes.  Layout:

     wtcp-campaign <engine_version>\n
     id <campaign id>\n
     spec <campaign spec line>\n
     cells <n>\n
     data <payload key> <percent-encoded payload>\n
     done <idx> <payload key>\n
     quar <idx> <attempts> <percent-encoded error>\n

   The header is written (and flushed) before any cell settles; each
   settled cell's [data] and [done] lines are appended and flushed
   once per wave.  A process killed mid-flush can tear at most the
   final line (appends are prefix-durable for regular files), so a
   load drops an unterminated tail and treats anything unparseable as
   "not settled": the worst a torn manifest costs is re-simulating
   one wave.  A [data] line always precedes its [done] line, so a
   tear inside it leaves the cell with neither. *)

let magic = "wtcp-campaign"

type entry =
  | Done of { key : string }
  | Quarantined of { attempts : int; error : string }

type header = { id : string; spec : string; cells : int }

type loaded = {
  header : header;
  entries : (int, entry) Hashtbl.t;
  payloads : (string, string) Hashtbl.t;
}

type t = { oc : out_channel }

(* Percent-encoding for payloads and error text, so every line stays
   single-line and space-splittable.  Written straight to the channel
   through a hex table: every settled cell's payload passes through
   here on the checkpoint path. *)
let hex = "0123456789abcdef"

let output_token oc s =
  String.iter
    (fun c ->
      if c > ' ' && c <= '~' && c <> '%' then output_char oc c
      else begin
        output_char oc '%';
        output_char oc hex.[Char.code c lsr 4];
        output_char oc hex.[Char.code c land 15]
      end)
    s

let decode_token s =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  match go 0 with
  | () -> Some (Buffer.contents b)
  | exception Exit -> None

let path ~dir ~id = Filename.concat dir (id ^ ".manifest")

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Sys.mkdir p 0o755 with Sys_error _ -> ())
    end
  in
  go path

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

(* "prefix rest-of-line" split; None if the line lacks the prefix. *)
let strip_prefix line prefix =
  let np = String.length prefix in
  if String.length line > np && String.sub line 0 np = prefix && line.[np] = ' '
  then Some (String.sub line (np + 1) (String.length line - np - 1))
  else None

let load ~path =
  match read_file path with
  | None -> Error "manifest unreadable"
  | Some raw -> (
    let lines = String.split_on_char '\n' raw in
    (* Drop the torn tail: a complete manifest ends with '\n', whose
       split leaves a final "" element we discard anyway. *)
    let lines =
      match List.rev lines with
      | _tail :: rest -> List.rev rest
      | [] -> []
    in
    match lines with
    | l1 :: l2 :: l3 :: l4 :: body -> (
      match
        ( strip_prefix l1 magic,
          strip_prefix l2 "id",
          strip_prefix l3 "spec",
          Option.bind (strip_prefix l4 "cells") int_of_string_opt )
      with
      | Some version, _, _, _
        when version <> Repcache.Fingerprint.engine_version ->
        Error
          (Printf.sprintf "minted by engine %s, this is %s" version
             Repcache.Fingerprint.engine_version)
      | Some _, Some id, Some spec, Some cells when cells >= 0 ->
        (* Sized by the lines read, never by the header's [cells]: a
           damaged or hostile header must not size memory. *)
        let entries = Hashtbl.create 64 and payloads = Hashtbl.create 64 in
        List.iter
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "data"; key; payload ] -> (
              match decode_token payload with
              | Some p -> Hashtbl.replace payloads key p
              | None -> ())
            | [ "done"; idx; key ] -> (
              match int_of_string_opt idx with
              | Some i when i >= 0 && i < cells ->
                Hashtbl.replace entries i (Done { key })
              | _ -> ())
            | [ "quar"; idx; attempts; err ] -> (
              match
                ( int_of_string_opt idx,
                  int_of_string_opt attempts,
                  decode_token err )
              with
              | Some i, Some attempts, Some error when i >= 0 && i < cells ->
                Hashtbl.replace entries i (Quarantined { attempts; error })
              | _ -> ())
            | _ -> () (* torn or foreign line: not settled *))
          body;
        Ok { header = { id; spec; cells }; entries; payloads }
      | _ -> Error "malformed manifest header")
    | _ -> Error "truncated manifest header")

let create ~path ~id ~spec ~cells =
  if String.contains spec '\n' then
    invalid_arg "Manifest.create: spec must be a single line";
  mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  Printf.fprintf oc "%s %s\nid %s\nspec %s\ncells %d\n" magic
    Repcache.Fingerprint.engine_version id spec cells;
  flush oc;
  { oc }

let open_append ~path =
  { oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path }

let append_payload t ~key payload =
  output_string t.oc "data ";
  output_string t.oc key;
  output_char t.oc ' ';
  output_token t.oc payload;
  output_char t.oc '\n'

let append t ~idx entry =
  match entry with
  | Done { key } -> Printf.fprintf t.oc "done %d %s\n" idx key
  | Quarantined { attempts; error } ->
    Printf.fprintf t.oc "quar %d %d " idx attempts;
    output_token t.oc error;
    output_char t.oc '\n'

let flush t = flush t.oc
let close t = close_out_noerr t.oc
