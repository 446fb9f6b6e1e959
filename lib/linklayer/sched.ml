type policy = Fifo | Round_robin

(* A ring with a bounded tail: the first [requeued] items were put
   back at the head by [push_front] and are never dropped; the rest are
   arrivals, bounded by the capacity. *)
type 'a lane = {
  items : 'a Netsim.Ring.t;
  mutable requeued : int;
  mutable drop_count : int;
}

let lane_create () = { items = Netsim.Ring.create (); requeued = 0; drop_count = 0 }
let lane_length lane = Netsim.Ring.length lane.items

let lane_push lane ~capacity item =
  if Netsim.Ring.length lane.items - lane.requeued >= capacity then begin
    lane.drop_count <- lane.drop_count + 1;
    false
  end
  else begin
    Netsim.Ring.push lane.items item;
    true
  end

let lane_push_front lane item =
  Netsim.Ring.push_front lane.items item;
  lane.requeued <- lane.requeued + 1

let lane_pop lane =
  if lane.requeued > 0 then lane.requeued <- lane.requeued - 1;
  Netsim.Ring.pop lane.items

type 'a t = {
  pol : policy;
  capacity : int;
  fifo : 'a lane;
  per_conn : (int, 'a lane) Hashtbl.t;
  mutable rotation : int list;  (* round-robin order, head is next *)
}

let create pol ~capacity =
  if capacity <= 0 then invalid_arg "Sched.create: capacity <= 0";
  {
    pol;
    capacity;
    fifo = lane_create ();
    per_conn = Hashtbl.create 8;
    rotation = [];
  }

let policy t = t.pol

let conn_lane t conn =
  match Hashtbl.find_opt t.per_conn conn with
  | Some lane -> lane
  | None ->
    let lane = lane_create () in
    Hashtbl.replace t.per_conn conn lane;
    t.rotation <- t.rotation @ [ conn ];
    lane

let push t ~conn item =
  match t.pol with
  | Fifo -> lane_push t.fifo ~capacity:t.capacity item
  | Round_robin -> lane_push (conn_lane t conn) ~capacity:t.capacity item

let push_front t ~conn item =
  match t.pol with
  | Fifo -> lane_push_front t.fifo item
  | Round_robin -> lane_push_front (conn_lane t conn) item

let pop t =
  match t.pol with
  | Fifo -> lane_pop t.fifo
  | Round_robin ->
    (* Scan at most one full rotation for a non-empty lane; the served
       connection moves to the back. *)
    let rec scan remaining rot =
      match rot, remaining with
      | _, 0 | [], _ -> invalid_arg "Sched.pop: empty"
      | conn :: rest, _ ->
        let lane = Hashtbl.find t.per_conn conn in
        if lane_length lane > 0 then begin
          t.rotation <- rest @ [ conn ];
          lane_pop lane
        end
        else scan (remaining - 1) (rest @ [ conn ])
    in
    scan (List.length t.rotation) t.rotation

let length t =
  match t.pol with
  | Fifo -> lane_length t.fifo
  | Round_robin ->
    Hashtbl.fold (fun _ lane acc -> acc + lane_length lane) t.per_conn 0

let is_empty t = length t = 0

let drops t =
  match t.pol with
  | Fifo -> t.fifo.drop_count
  | Round_robin ->
    Hashtbl.fold (fun _ lane acc -> acc + lane.drop_count) t.per_conn 0

let lane_clear lane =
  let n = lane_length lane in
  Netsim.Ring.clear lane.items;
  lane.requeued <- 0;
  n

let clear t =
  match t.pol with
  | Fifo -> lane_clear t.fifo
  | Round_robin ->
    Hashtbl.fold (fun _ lane acc -> acc + lane_clear lane) t.per_conn 0
