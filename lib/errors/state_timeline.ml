open Sim_engine

type weights = { mutable good : float; mutable bad : float; mutable sum : float }

type t = {
  start_state : Channel_state.t;
  duration_of : Channel_state.t -> Simtime.span;
  (* ends.(i) is the end time of period i; period i's state is
     start_state when i is even, its flip when odd. *)
  mutable ends : Simtime.t array;
  mutable count : int;
}

let create ?(start_state = Channel_state.Good) ~duration_of () =
  { start_state; duration_of; ends = Array.make 16 Simtime.zero; count = 0 }

let state_of_index t i =
  if i mod 2 = 0 then t.start_state else Channel_state.flip t.start_state

let period_start t i = if i = 0 then Simtime.zero else t.ends.(i - 1)

let append t finish =
  if t.count = Array.length t.ends then begin
    let bigger = Array.make (2 * t.count) Simtime.zero in
    Array.blit t.ends 0 bigger 0 t.count;
    t.ends <- bigger
  end;
  t.ends.(t.count) <- finish;
  t.count <- t.count + 1

(* The clock's last instant: a period that would end past it ends
   there, and the timeline stops growing. *)
let last_instant = Simtime.(add zero max_span)

let extend_until t stop =
  while
    t.count = 0
    || Simtime.(
         t.ends.(t.count - 1) <= stop && t.ends.(t.count - 1) < last_instant)
  do
    let state = state_of_index t t.count in
    let d = t.duration_of state in
    if Simtime.span_compare d Simtime.span_zero <= 0 then
      invalid_arg "State_timeline: duration must be positive";
    let start = period_start t t.count in
    append t
      (if Simtime.(span_compare d (diff last_instant start)) > 0 then
         last_instant
       else Simtime.add start d)
  done

(* First period index whose end time is strictly after [at].  The
   guards matter: with [count = 0] the search degenerates ([hi = -1],
   loop never entered) and would read stale [ends.(0)]; past the
   horizon it would silently return the last index as if [at] fell
   inside it. *)
let index_at t at =
  if t.count = 0 then invalid_arg "State_timeline.index_at: empty timeline";
  if Simtime.(at >= t.ends.(t.count - 1)) then
    invalid_arg "State_timeline.index_at: time beyond materialised horizon";
  let lo = ref 0 and hi = ref (t.count - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Simtime.(t.ends.(mid) > at) then hi := mid else lo := mid + 1
  done;
  !lo

let segments t ~start ~stop =
  if Simtime.(stop <= start) then []
  else begin
    extend_until t stop;
    let rec collect i cursor acc =
      if Simtime.(cursor >= stop) then List.rev acc
      else
        let finish = Simtime.min t.ends.(i) stop in
        let piece = (state_of_index t i, Simtime.diff finish cursor) in
        collect (i + 1) finish (piece :: acc)
    in
    collect (index_at t start) start []
  end

(* Allocation-free fold of [segments]: per-state rate weighted by
   seconds spent in that state over [[start, stop)).  The frame-loss
   hot path (one call per frame) uses this instead of materialising a
   segment list it would immediately fold away.  The rates come in and
   the sum goes out through a flat all-float record, and each span is
   converted to seconds here with [Simtime.span_to_sec]'s operation,
   because a float returned from another module is boxed. *)
let weigh t w ~start ~stop =
  w.sum <- 0.0;
  if Simtime.(start < stop) then begin
    extend_until t stop;
    let i = ref (index_at t start) in
    let cursor = ref start in
    while Simtime.(!cursor < stop) do
      let finish = Simtime.min t.ends.(!i) stop in
      let rate =
        match state_of_index t !i with
        | Channel_state.Good -> w.good
        | Channel_state.Bad -> w.bad
      in
      let ns = Simtime.span_to_ns (Simtime.diff finish !cursor) in
      w.sum <- w.sum +. (rate *. (float_of_int ns *. 1e-9));
      cursor := finish;
      incr i
    done
  end

let periods_materialised t = t.count
