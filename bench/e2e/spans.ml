(* Spans for the traced run, recorded from the benchmark's own calls
   into each layer and kept in memory until the run ends.  Only the
   main domain records; work timed on pool domains is recorded after
   the fan-out returns, with the timestamps the worker measured. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  cell : int;  (** -1 when the span belongs to no single cell *)
  start_ns : int;
  end_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_ids with id :: _ -> id | [] -> -1

let record ?(cell = -1) ~parent name ~start_ns ~end_ns =
  if !enabled then
    recorded := { id = fresh_id (); parent; name; cell; start_ns; end_ns } :: !recorded

(* [f ()] inside a span named [name], child of the innermost open one. *)
let within ?(cell = -1) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = current () in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    let close () =
      open_ids := List.tl !open_ids;
      recorded :=
        { id; parent; name; cell; start_ns; end_ns = now_ns () } :: !recorded
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

let all () = List.rev !recorded

(* Length of the union of [intervals] clipped to [lo, hi]: children on
   two domains overlap, so their time is covered once, not summed. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = max a lo and b = min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  fst
    (List.fold_left
       (fun (total, last) (a, b) ->
         let a = max a last in
         if b > a then (total + (b - a), b) else (total, last))
       (0, lo) sorted)

let children spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  tbl

(* Self time per span name, in name order: each span's duration minus
   the part of it its children cover. *)
let self_times spans =
  let kids = children spans in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered =
        covered ~lo:s.start_ns ~hi:s.end_ns
          (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
      in
      let n, ns = Option.value ~default:(0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, ns + (s.end_ns - s.start_ns - covered)))
    spans;
  List.sort compare (Hashtbl.fold (fun k (n, ns) l -> (k, n, ns) :: l) acc [])

(* Spans whose interval leaves their parent's. *)
let escaping spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | None -> s.parent >= 0
      | Some p -> s.start_ns < p.start_ns || s.end_ns > p.end_ns)
    spans

let write_jsonl path ~workload spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"workload\":\"%s\",\"cell\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.name workload s.cell s.start_ns s.end_ns)
    spans;
  close_out oc
