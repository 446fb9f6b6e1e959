type t = {
  initial_ticks : int;
  min_ticks : int;
  max_ticks : int;
  max_backoff : int;
  mutable srtt : float;  (* ticks *)
  mutable rttvar : float;  (* ticks *)
  mutable sample_count : int;
  mutable multiplier : int;
}

let create ~initial_ticks ~min_ticks ~max_ticks ~max_backoff =
  if min_ticks < 1 || max_ticks < min_ticks || initial_ticks < min_ticks then
    invalid_arg "Rto.create: inconsistent bounds";
  if max_backoff < 1 then invalid_arg "Rto.create: max_backoff < 1";
  {
    initial_ticks;
    min_ticks;
    max_ticks;
    max_backoff;
    srtt = 0.0;
    rttvar = 0.0;
    sample_count = 0;
    multiplier = 1;
  }

let sample t ~rtt_ticks =
  if rtt_ticks < 0 then invalid_arg "Rto.sample: negative rtt";
  let m = float_of_int rtt_ticks in
  if t.sample_count = 0 then begin
    t.srtt <- m;
    t.rttvar <- m /. 2.0
  end
  else begin
    let err = m -. t.srtt in
    t.srtt <- t.srtt +. (err /. 8.0);
    t.rttvar <- t.rttvar +. ((Float.abs err -. t.rttvar) /. 4.0)
  end;
  t.sample_count <- t.sample_count + 1

let backoff t = t.multiplier <- Int.min t.max_backoff (t.multiplier * 2)
let reset_backoff t = t.multiplier <- 1

let base_ticks t =
  if t.sample_count = 0 then t.initial_ticks
  else
    (* [Stdlib.max 1.0 spread], written out so no float is boxed. *)
    let spread = 4.0 *. t.rttvar in
    let raw = t.srtt +. (if 1.0 >= spread then 1.0 else spread) in
    int_of_float (Float.round raw)

(* Backoff first, clamp second — the order matters and matches BSD 4.4:
   tcp_timers applies TCPT_RANGESET(rxtcur, rexmtval * backoff[shift],
   rxtmin, REXMTMAX), i.e. the unclamped smoothed value is multiplied
   by the backoff factor and only the product is range-limited.
   Clamping before multiplying would instead let a floored base (below
   min_ticks) escalate as min * 2^n.  Audited against the BSD tick
   timer semantics; pinned by the backoff/clamp property test. *)
let current_ticks t =
  let ticks = base_ticks t * t.multiplier in
  Int.max t.min_ticks (Int.min t.max_ticks ticks)

let srtt_ticks t = t.srtt
let rttvar_ticks t = t.rttvar
let backoff_multiplier t = t.multiplier
let samples t = t.sample_count
