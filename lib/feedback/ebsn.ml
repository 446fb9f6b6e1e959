open Sim_engine
open Netsim

let message_bytes = 40

let make ~alloc_id ~src ~dst ~conn ~now =
  Packet.create ~id:(alloc_id ()) ~src ~dst ~kind:(Packet.Ebsn { conn })
    ~header_bytes:message_bytes ~created:now

type pacing = Every_attempt | Min_interval of Simtime.span

type gate = {
  pacing : pacing;
  last_sent : (int, Simtime.t) Hashtbl.t;
  trace : (Obs.Trace.event * Obs.Trace.event) option;
      (* admit and suppress templates; [None] unless tracing *)
}

let gate ?(trace = Obs.Trace.disabled) pacing =
  let trace =
    if not (Obs.Trace.enabled trace) then None
    else
      let event ev = Obs.Trace.event trace ~comp:"ebsn" ~ev [ Arg "conn" ] in
      Some (event "admit", event "suppress")
  in
  { pacing; last_sent = Hashtbl.create 4; trace }

let admit t ~conn ~now =
  let verdict =
    match t.pacing with
    | Every_attempt -> true
    | Min_interval interval -> (
      match Hashtbl.find_opt t.last_sent conn with
      | Some last when Simtime.(now < add last interval) -> false
      | Some _ | None -> true)
  in
  (match t.trace with
  | Some (admit, suppress) ->
    Obs.Trace.emit1 (if verdict then admit else suppress)
      ~t_ns:(Simtime.to_ns now) conn
  | None -> ());
  verdict

let record t ~conn ~now =
  match t.pacing with
  | Every_attempt -> ()
  | Min_interval _ -> Hashtbl.replace t.last_sent conn now

let reset t = Hashtbl.reset t.last_sent
