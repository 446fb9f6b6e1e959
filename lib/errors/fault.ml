type kind =
  | Crash
  | Disconnection
  | Path_loss
  | Notification_loss
  | Notification_duplicate
  | Notification_delay
  | Queue_overflow
  | Handoff
  | Component_failure

let all_kinds =
  [
    Crash;
    Disconnection;
    Path_loss;
    Notification_loss;
    Notification_duplicate;
    Notification_delay;
    Queue_overflow;
    Handoff;
    Component_failure;
  ]

let kind_name = function
  | Crash -> "crash"
  | Disconnection -> "disconnection"
  | Path_loss -> "path_loss"
  | Notification_loss -> "notification_loss"
  | Notification_duplicate -> "notification_duplicate"
  | Notification_delay -> "notification_delay"
  | Queue_overflow -> "queue_overflow"
  | Handoff -> "handoff"
  | Component_failure -> "component_failure"

type event = {
  at_ns : int;
  kind : kind;
  component : string;
  detail : string;
}

type log = { mutable rev : event list; mutable count : int }

let log () = { rev = []; count = 0 }

let record log ~at_ns ~kind ~component detail =
  log.rev <- { at_ns; kind; component; detail } :: log.rev;
  log.count <- log.count + 1

let events log = List.rev log.rev
let count log = log.count

let summarize events =
  let tally k = List.length (List.filter (fun e -> e.kind = k) events) in
  List.filter_map
    (fun k ->
      let n = tally k in
      if n = 0 then None else Some (k, n))
    all_kinds
