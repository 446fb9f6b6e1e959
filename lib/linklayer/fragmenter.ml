let fragment_count ~mtu pkt =
  if mtu <= 0 then invalid_arg "Fragmenter: mtu must be positive";
  let size = Netsim.Packet.size pkt in
  Int.max 1 ((size + mtu - 1) / mtu)

let nth ~mtu pkt ~count index =
  if count = 1 then Frame.Whole pkt
  else
    let bytes =
      if index = count - 1 then Netsim.Packet.size pkt - ((count - 1) * mtu)
      else mtu
    in
    Frame.Fragment { packet = pkt; index; count; bytes }

let split ~mtu pkt =
  let count = fragment_count ~mtu pkt in
  List.init count (nth ~mtu pkt ~count)
