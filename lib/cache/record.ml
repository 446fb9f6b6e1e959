(* The record format of the cache segments and the campaign manifests.
   Tokens are written straight to the channel through a hex table:
   every stored payload passes through here. *)

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
  let n = String.length s and b = Buffer.create (String.length s) in
  let digit i =
    match s.[i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else if s.[i] = '%' && i + 2 < n then begin
      Buffer.add_char b (Char.chr ((digit (i + 1) * 16) + digit (i + 2)));
      go (i + 3)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  try go 0 with Exit -> None

let output_header oc ~magic =
  Printf.fprintf oc "%s %s\n" magic Fingerprint.engine_version

let output_data oc ~key payload =
  Printf.fprintf oc "data %s %a\n" key output_token payload

let data line =
  if not (String.starts_with ~prefix:"data " line) then None
  else
    match String.split_on_char ' ' line with
    | [ _; key; payload ] when key <> "" ->
      Option.map (fun p -> (key, p)) (decode_token payload)
    | _ -> None

let field line name =
  let n = String.length name + 1 in
  if String.starts_with ~prefix:(name ^ " ") line then
    Some (String.sub line n (String.length line - n))
  else None

(* Read through a 4 KB buffer with [Unix.read]: with a 64 KB buffer
   per read, a channel's or a [Bytes], the benchmark's warm replays,
   which re-read the store each time, peaked 4-10% higher in RSS.
   [part] holds the line begun by an earlier read. *)
let fold_lines path ~init f =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    let buf = Bytes.create 4096 and part = Buffer.create 256 in
    let rec lines acc n i =
      match Bytes.index_from_opt buf i '\n' with
      | Some j when j < n ->
        Buffer.add_subbytes part buf i (j - i);
        let line = Buffer.contents part in
        Buffer.clear part;
        lines (f acc line) n (j + 1)
      | Some _ | None ->
        Buffer.add_subbytes part buf i (n - i);
        acc
    in
    let rec go acc =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> (acc, Buffer.length part > 0)
      | n -> go (lines acc n 0)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Some (go init) with Unix.Unix_error _ -> None)

let rec mkdir_p p =
  if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end
