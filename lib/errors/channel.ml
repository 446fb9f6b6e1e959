open Sim_engine

type weights = State_timeline.weights = {
  mutable good : float;
  mutable bad : float;
  mutable sum : float;
}

type source =
  | Timeline of State_timeline.t
  | Segments of
      (start:Simtime.t -> stop:Simtime.t -> (Channel_state.t * Simtime.span) list)

type t = { description : string; source : source; weights : weights }

let create description source =
  { description; source; weights = { good = 0.0; bad = 0.0; sum = 0.0 } }

let make ~description ~segments () = create description (Segments segments)
let of_timeline ~description timeline = create description (Timeline timeline)
let description t = t.description

let segments t ~start ~stop =
  if Simtime.(stop <= start) then []
  else
    match t.source with
    | Timeline timeline -> State_timeline.segments timeline ~start ~stop
    | Segments f -> f ~start ~stop

let weights t = t.weights

(* A segment-query channel folds its list with the same per-segment
   float operations, in the same order, as the timeline walk, so both
   kinds compute bit-identical sums. *)
let weigh t ~start ~stop =
  let w = t.weights in
  match t.source with
  | Timeline timeline -> State_timeline.weigh timeline w ~start ~stop
  | Segments _ ->
    w.sum <- 0.0;
    List.iter
      (fun (state, span) ->
        let rate =
          match state with Channel_state.Good -> w.good | Channel_state.Bad -> w.bad
        in
        w.sum <- w.sum +. (rate *. Simtime.span_to_sec span))
      (segments t ~start ~stop)

let state_at t at =
  match
    segments t ~start:at ~stop:(Simtime.add at (Simtime.span_ns 1))
  with
  | (state, _) :: _ -> state
  | [] -> Channel_state.Good

let time_in_state t ~start ~stop state =
  List.fold_left
    (fun acc (s, d) ->
      if Channel_state.equal s state then Simtime.span_add acc d else acc)
    Simtime.span_zero
    (segments t ~start ~stop)
