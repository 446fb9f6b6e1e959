(* Campaign manifest: the append-only checkpoint log of a supervised
   campaign, and the only file a campaign writes.  Layout, in the
   cache's record format ([Repcache.Record]):

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

type t = out_channel

module Record = Repcache.Record

let path ~dir ~id = Filename.concat dir (id ^ ".manifest")

let load ~path =
  match Record.fold_lines path ~init:[] (fun acc line -> line :: acc) with
  | None -> Error "manifest unreadable"
  | Some (rev_lines, _torn) -> (
    match List.rev rev_lines with
    | l1 :: l2 :: l3 :: l4 :: body -> (
      match
        ( Record.field l1 magic,
          Record.field l2 "id",
          Record.field l3 "spec",
          Option.bind (Record.field l4 "cells") int_of_string_opt )
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
            match Record.data line with
            | Some (key, p) -> Hashtbl.replace payloads key p
            | None -> (
              match String.split_on_char ' ' line with
              | [ "done"; idx; key ] -> (
                match int_of_string_opt idx with
                | Some i when i >= 0 && i < cells ->
                  Hashtbl.replace entries i (Done { key })
                | _ -> ())
              | [ "quar"; idx; attempts; err ] -> (
                match
                  ( int_of_string_opt idx,
                    int_of_string_opt attempts,
                    Record.decode_token err )
                with
                | Some i, Some attempts, Some error when i >= 0 && i < cells
                  ->
                  Hashtbl.replace entries i (Quarantined { attempts; error })
                | _ -> ())
              | _ -> () (* foreign or undecodable line: not settled *)))
          body;
        Ok { header = { id; spec; cells }; entries; payloads }
      | _ -> Error "malformed manifest header")
    | _ -> Error "truncated manifest header")

let create ~path ~id ~spec ~cells =
  if String.contains spec '\n' then
    invalid_arg "Manifest.create: spec must be a single line";
  Record.mkdir_p (Filename.dirname path);
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  Record.output_header oc ~magic;
  Printf.fprintf oc "id %s\nspec %s\ncells %d\n" id spec cells;
  flush oc;
  oc

let open_append ~path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let append_payload = Record.output_data

let append oc ~idx entry =
  match entry with
  | Done { key } -> Printf.fprintf oc "done %d %s\n" idx key
  | Quarantined { attempts; error } ->
    Printf.fprintf oc "quar %d %d %a\n" idx attempts Record.output_token error

let flush = flush
let close = close_out_noerr
