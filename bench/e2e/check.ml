(* Checks captured benchmark outputs against BENCHMARK.json:

     check.exe BENCHMARK.json OUT...

   Each OUT is the stdout of one main.exe run; names ending in
   [.trace.out] are traced runs.  Fails unless every name in
   BENCHMARK.json and every printed metric name is made of
   [A-Za-z0-9_.-], and each run's last line is a correct result that
   prints every end-to-end metric (untraced) or every per-layer metric
   (traced) with the unit BENCHMARK.json gives it. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let ws () =
    while !pos < n && String.contains " \t\r\n" s.[!pos] do
      incr pos
    done
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          Buffer.add_string b ("\\u" ^ String.sub s !pos 4);
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          ws ();
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> (
      let start = !pos in
      while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f when !pos > start -> Num f
      | _ -> fail "bad value")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      prerr_endline ("check: " ^ msg))
    fmt

let field k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let read_file path = In_channel.with_open_bin path In_channel.input_all

let last_line text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | line :: _ -> line
  | [] -> ""

(* (name, unit) of each entry of a BENCHMARK.json list. *)
let named key bench =
  match field key bench with
  | Some (Arr items) ->
    List.map
      (fun item ->
        let name = match field "name" item with Some (Str s) -> s | _ -> "" in
        let unit = match field "unit" item with Some (Str s) -> s | _ -> "" in
        if not (valid_name name) then error "%s: bad name %S" key name;
        (name, unit))
      items
  | _ ->
    error "BENCHMARK.json has no %s list" key;
    []

let check_output ~expected path =
  match parse (last_line (read_file path)) with
  | exception Bad msg -> error "%s: last line is not JSON (%s)" path msg
  | result -> (
    if field "correct" result <> Some (Bool true) then error "%s: not correct" path;
    if field "failed" result <> Some (Num 0.0) then error "%s: failed is not 0" path;
    (match field "attempted" result with
    | Some (Num a) when a >= 1.0 -> ()
    | _ -> error "%s: attempted is not at least 1" path);
    match field "metrics" result with
    | Some (Obj metrics) ->
      List.iter
        (fun (name, _) -> if not (valid_name name) then error "%s: bad metric name %S" path name)
        metrics;
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name metrics with
          | None -> error "%s: %s not printed" path name
          | Some m -> (
            (match field "value" m with
            | Some (Num v) when Float.is_finite v -> ()
            | _ -> error "%s: %s has no numeric value" path name);
            match field "unit" m with
            | Some (Str u) when u = unit -> ()
            | _ -> error "%s: %s is not in %s" path name unit))
        expected
    | _ -> error "%s: no metrics object" path)

let () =
  match Array.to_list Sys.argv with
  | _ :: bench_path :: outputs when outputs <> [] ->
    let bench = parse (read_file bench_path) in
    (match field "workloads" bench with
    | Some (Arr ws) ->
      List.iter
        (fun w ->
          match field "name" w with
          | Some (Str name) when valid_name name -> ()
          | _ -> error "workloads: bad name")
        ws
    | _ -> error "BENCHMARK.json has no workloads list");
    let e2e = named "end_to_end" bench and layers = named "per_layer" bench in
    List.iter
      (fun path ->
        let traced = Filename.check_suffix path ".trace.out" in
        check_output ~expected:(if traced then layers else e2e) path)
      outputs;
    if !errors > 0 then exit 1
  | _ ->
    prerr_endline "usage: check.exe BENCHMARK.json OUT...";
    exit 2
