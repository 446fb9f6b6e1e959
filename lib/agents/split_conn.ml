open Netsim
open Tcp_tahoe

type t = {
  conn : int;
  mobile : Address.t;
  bs_sink : Tcp_sink.t;  (* terminates the wired connection *)
  wireless : Tcp_sender.t;  (* re-sends over the wireless hop *)
}

let create sim ~wired_config ~wireless_config ~conn ~fixed ~bs ~mobile
    ~file_bytes ~alloc_id ~send_wired ~send_downlink =
  let bs_sink =
    Tcp_sink.create sim ~config:wired_config ~conn ~addr:bs ~peer:fixed
      ~expected_bytes:file_bytes ~alloc_id ~transmit:send_wired
  in
  let wireless =
    Tcp_sender.create sim ~config:wireless_config ~conn ~src:bs ~dst:mobile
      ~total_bytes:file_bytes ~alloc_id ~transmit:send_downlink
  in
  Tcp_sender.restrict_available wireless 0;
  Tcp_sender.start wireless;
  { conn; mobile; bs_sink; wireless }

let on_forward t pkt =
  match pkt.Packet.kind with
  | Packet.Tcp_data { conn; seq; length; _ }
    when conn = t.conn && Address.equal pkt.Packet.dst t.mobile ->
    Tcp_sink.handle_data t.bs_sink ~seq ~length;
    (* The wireless sender may now send every contiguous byte the
       relay holds. *)
    let available = Tcp_sink.rcv_nxt t.bs_sink in
    if available > 0 then Tcp_sender.set_available t.wireless available;
    true
  | Packet.Tcp_data _ | Packet.Tcp_ack _ | Packet.Ebsn _
  | Packet.Source_quench _ ->
    false

let handle_wireless_ack t ~ack ~sack =
  Tcp_sender.handle_ack_sack t.wireless ~ack ~sack

let buffered_bytes t =
  Tcp_sink.rcv_nxt t.bs_sink - Tcp_sender.snd_una t.wireless
