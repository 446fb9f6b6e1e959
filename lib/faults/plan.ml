open Sim_engine

type target = Down | Up | Both

let target_name = function Down -> "down" | Up -> "up" | Both -> "both"

type action =
  | Bs_crash
  | Link_down of { target : target; duration : Simtime.span }
  | Ack_blackout of { duration : Simtime.span }
  | Ebsn_loss of { count : int }
  | Ebsn_duplicate
  | Ebsn_delay of { delay : Simtime.span }
  | Queue_squeeze of { target : target; duration : Simtime.span }
  | Handoff of { blackout : Simtime.span }

type event = { after : Simtime.span; action : action }
type t = { seed : int; events : event list }

let empty = { seed = 0; events = [] }

let make ?(seed = 0) events =
  {
    seed;
    events =
      List.stable_sort (fun a b -> Simtime.span_compare a.after b.after) events;
  }

let is_empty t = t.events = []
let seed t = t.seed
let events t = t.events

let action_to_string = function
  | Bs_crash -> "bs_crash"
  | Link_down { target; duration } ->
    Printf.sprintf "link_down[%s,%.3fs]" (target_name target)
      (Simtime.span_to_sec duration)
  | Ack_blackout { duration } ->
    Printf.sprintf "ack_blackout[%.3fs]" (Simtime.span_to_sec duration)
  | Ebsn_loss { count } -> Printf.sprintf "ebsn_loss[%d]" count
  | Ebsn_duplicate -> "ebsn_duplicate"
  | Ebsn_delay { delay } ->
    Printf.sprintf "ebsn_delay[%.3fs]" (Simtime.span_to_sec delay)
  | Queue_squeeze { target; duration } ->
    Printf.sprintf "queue_squeeze[%s,%.3fs]" (target_name target)
      (Simtime.span_to_sec duration)
  | Handoff { blackout } ->
    Printf.sprintf "handoff[%.3fs]" (Simtime.span_to_sec blackout)

let to_string t =
  if is_empty t then Printf.sprintf "plan[seed=%d] (empty)" t.seed
  else
    Printf.sprintf "plan[seed=%d] %s" t.seed
      (String.concat " "
         (List.map
            (fun { after; action } ->
              Printf.sprintf "@%.3fs:%s" (Simtime.span_to_sec after)
                (action_to_string action))
            t.events))

(* Decorrelates the plan's stream from the simulator root stream,
   which components split in creation order from the same seed. *)
let stream_salt = 0x6661756c74 (* "fault" *)

let generate ~seed ~window =
  let rng = Rng.create ~seed:(seed + stream_salt) in
  let window_sec = Simtime.span_to_sec window in
  if window_sec <= 0. then invalid_arg "Plan.generate: empty window";
  (* Faults land in the middle 2%..80% of the window so the transfer
     has started and has time left to recover. *)
  let draw_at () =
    Simtime.span_sec (window_sec *. (0.02 +. Rng.float rng 0.78))
  in
  (* Outage windows are a small fraction of the run, long enough to
     span several frame attempts. *)
  let draw_outage () =
    Simtime.span_sec (window_sec *. (0.01 +. Rng.float rng 0.06))
  in
  let draw_action () =
    match Rng.int rng 8 with
    | 0 -> Bs_crash
    | 1 ->
      let target = match Rng.int rng 3 with 0 -> Down | 1 -> Up | _ -> Both in
      Link_down { target; duration = draw_outage () }
    | 2 -> Ack_blackout { duration = draw_outage () }
    | 3 -> Ebsn_loss { count = 1 + Rng.int rng 4 }
    | 4 -> Ebsn_duplicate
    | 5 ->
      Ebsn_delay { delay = Simtime.span_sec (window_sec *. Rng.float rng 0.05) }
    | 6 ->
      let target = match Rng.int rng 3 with 0 -> Down | 1 -> Up | _ -> Both in
      Queue_squeeze { target; duration = draw_outage () }
    | _ -> Handoff { blackout = draw_outage () }
  in
  let count = 1 + Rng.int rng 4 in
  let events =
    List.init count (fun _ -> { after = draw_at (); action = draw_action () })
  in
  let events =
    List.stable_sort
      (fun a b -> Simtime.span_compare a.after b.after)
      events
  in
  { seed; events }

(* Process-wide default, mirroring [Obs.Config.set_default]: written
   between runs, read by every run; the pool's task handoff publishes
   it to worker domains. *)
let default_plan = ref None
let set_default p = default_plan := p
let default () = !default_plan
