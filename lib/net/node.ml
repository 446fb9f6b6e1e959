open Sim_engine

type t = {
  simulator : Simulator.t;
  node_name : string;
  node_addr : Address.t;
  routes : (int, Packet.t -> unit) Hashtbl.t;
  mutable local_handler : (Packet.t -> unit) option;
  mutable forward_hook : (Packet.t -> bool) option;
  mutable forwarded : int;
  mutable delivered : int;
}

let create simulator ~name ~addr =
  {
    simulator;
    node_name = name;
    node_addr = addr;
    routes = Hashtbl.create 8;
    local_handler = None;
    forward_hook = None;
    forwarded = 0;
    delivered = 0;
  }

let addr t = t.node_addr
let name t = t.node_name
let sim t = t.simulator

let add_route t ~dst ~via = Hashtbl.replace t.routes (Address.to_int dst) via
let set_local_handler t f = t.local_handler <- Some f
let set_forward_hook t f = t.forward_hook <- Some f

let send t pkt =
  match Hashtbl.find t.routes (Address.to_int pkt.Packet.dst) with
  | exception Not_found ->
    failwith
      (Format.asprintf "Node %s: no route to %a" t.node_name Address.pp
         pkt.Packet.dst)
  | via -> via pkt

let receive t pkt =
  if Address.equal pkt.Packet.dst t.node_addr then begin
    t.delivered <- t.delivered + 1;
    match t.local_handler with
    | None ->
      failwith ("Node " ^ t.node_name ^ ": no local handler installed")
    | Some handler -> handler pkt
  end
  else begin
    let consumed =
      match t.forward_hook with None -> false | Some hook -> hook pkt
    in
    if not consumed then begin
      t.forwarded <- t.forwarded + 1;
      send t pkt
    end
  end

let forwarded t = t.forwarded
let delivered_locally t = t.delivered
