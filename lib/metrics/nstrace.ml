open Sim_engine

type t = { sim : Simulator.t; mutable lines : string list; mutable count : int }

let create sim = { sim; lines = []; count = 0 }

let emit t line =
  t.lines <- line :: t.lines;
  t.count <- t.count + 1

let stamp t = Simtime.to_sec (Simulator.now t.sim)

let packet_line t ~op ~link pkt =
  emit t
    (Printf.sprintf "%s %.6f %s %s %d %d seq=%d" op (stamp t) link
       (Netsim.Packet.kind_label pkt)
       (Netsim.Packet.size pkt) pkt.Netsim.Packet.id
       (match pkt.Netsim.Packet.kind with
       | Netsim.Packet.Tcp_data { seq; _ } -> seq
       | Netsim.Packet.Tcp_ack { ack; _ } -> ack
       | Netsim.Packet.Ebsn _ | Netsim.Packet.Source_quench _ -> 0))

let frame_line t ~op ~link frame =
  let kind, id =
    match frame.Link_arq.Frame.payload with
    | Link_arq.Frame.Whole pkt -> (Netsim.Packet.kind_label pkt, pkt.Netsim.Packet.id)
    | Link_arq.Frame.Fragment { packet; index; count; _ } ->
      (Printf.sprintf "frag%d/%d" (index + 1) count, packet.Netsim.Packet.id)
    | Link_arq.Frame.Link_ack { acked_seq } -> ("lack", acked_seq)
  in
  emit t
    (Printf.sprintf "%s %.6f %s %s %d %d lseq=%d" op (stamp t) link kind
       (Link_arq.Frame.bytes frame)
       id frame.Link_arq.Frame.seq)

let wired_monitor t ~link = function
  | Netsim.Link.Enqueued pkt -> packet_line t ~op:"+" ~link pkt
  | Netsim.Link.Tx_start pkt -> packet_line t ~op:"-" ~link pkt
  | Netsim.Link.Delivered pkt -> packet_line t ~op:"r" ~link pkt
  | Netsim.Link.Dropped pkt -> packet_line t ~op:"d" ~link pkt

let wireless_monitor t ~link = function
  | Link_arq.Wireless_link.Enqueued frame -> frame_line t ~op:"+" ~link frame
  | Link_arq.Wireless_link.Tx_start frame -> frame_line t ~op:"-" ~link frame
  | Link_arq.Wireless_link.Delivered frame -> frame_line t ~op:"r" ~link frame
  | Link_arq.Wireless_link.Lost frame -> frame_line t ~op:"x" ~link frame
  | Link_arq.Wireless_link.Dropped frame -> frame_line t ~op:"d" ~link frame

let length t = t.count

let to_string t =
  String.concat "\n" (List.rev t.lines) ^ if t.count = 0 then "" else "\n"
