(* TCP Vegas (Brakmo & Peterson, JSAC '95), the delay-based variant:
   instead of probing for loss, estimate the backlog the connection
   keeps queued in the network —

     diff = cwnd * (rtt - baseRTT) / rtt   (in segments)

   using the minimum RTT observed this epoch against the minimum ever
   observed (baseRTT), and once per epoch (one windowful of acked
   data) adjust cwnd to hold alpha <= diff <= beta.  Slow start
   doubles every *other* epoch and ends when diff exceeds gamma.

   Loss handling is delegated to the NewReno machinery (as Linux's
   Vegas does): dup-ack counting, fast retransmit, partial-ack
   retransmission and deflation all behave exactly like
   [Cc_reno.make ~newreno:true]; Vegas only replaces the per-ack
   growth with its per-epoch band adjustment and resets its epoch
   around recovery and timeouts. *)

type vegas = {
  mutable base_rtt_ns : int;  (** minimum RTT ever seen; max_int until then *)
  mutable epoch_min_rtt_ns : int;
  mutable epoch_samples : int;
  mutable epoch_end : int;  (** first byte of the next adjustment epoch *)
  mutable grow_toggle : bool;  (** slow start doubles every other epoch *)
  mutable last_diff : float;  (** last computed backlog, segments; -1 = none *)
}

let make (host : Cc.host) =
  let st = host.Cc.state in
  let cfg = host.Cc.cfg in
  let mssf = float_of_int cfg.Tcp_config.mss in
  let tick_ns = Sim_engine.Simtime.span_to_ns cfg.Tcp_config.tick in
  let v =
    {
      base_rtt_ns = max_int;
      epoch_min_rtt_ns = max_int;
      epoch_samples = 0;
      epoch_end = 0;
      grow_toggle = true;
      last_diff = -1.0;
    }
  in
  let reno = Cc_reno.make ~newreno:true host in
  let reset_epoch () =
    v.epoch_min_rtt_ns <- max_int;
    v.epoch_samples <- 0;
    v.epoch_end <- host.Cc.snd_nxt ()
  in
  (* The float [min] and [max] below are [Stdlib.min] and
     [Stdlib.max]'s own definitions, written out so no float is boxed
     for a generic compare. *)
  let cap () =
    let limit = float_of_int (4 * cfg.Tcp_config.window) in
    if not (st.Cc.cwnd <= limit) then st.Cc.cwnd <- limit
  in
  let adjust () =
    (if v.epoch_samples > 0 && v.base_rtt_ns < max_int then begin
       let rtt = float_of_int v.epoch_min_rtt_ns in
       let base = float_of_int v.base_rtt_ns in
       let diff = st.Cc.cwnd *. ((rtt -. base) /. rtt) /. mssf in
       v.last_diff <- diff;
       if st.Cc.cwnd < float_of_int st.Cc.ssthresh then begin
         if diff > float_of_int cfg.Tcp_config.vegas_gamma then
           (* Queue building already: leave slow start here. *)
           st.Cc.ssthresh <-
             Int.max (2 * cfg.Tcp_config.mss) (int_of_float st.Cc.cwnd)
         else begin
           if v.grow_toggle then st.Cc.cwnd <- st.Cc.cwnd *. 2.0;
           v.grow_toggle <- not v.grow_toggle
         end
       end
       else if diff < float_of_int cfg.Tcp_config.vegas_alpha then
         st.Cc.cwnd <- st.Cc.cwnd +. mssf
       else if diff > float_of_int cfg.Tcp_config.vegas_beta then begin
         let least = 2.0 *. mssf and shrunk = st.Cc.cwnd -. mssf in
         st.Cc.cwnd <- (if least >= shrunk then least else shrunk)
       end
     end
     else if st.Cc.cwnd < float_of_int st.Cc.ssthresh then begin
       (* An epoch with no usable RTT sample (retransmissions, Karn):
          keep slow start moving, but only linearly. *)
       if v.grow_toggle then st.Cc.cwnd <- st.Cc.cwnd +. mssf;
       v.grow_toggle <- not v.grow_toggle
     end);
    cap ();
    reset_epoch ()
  in
  Cc.
    {
      kind = Tcp_config.Vegas;
      uses_scoreboard = false;
      on_new_ack =
        (fun ~ack ->
          if st.in_recovery then begin
            reno.on_new_ack ~ack;
            (* RTTs measured across a loss episode are meaningless for
               the backlog estimate. *)
            if not st.in_recovery then reset_epoch ()
          end
          else if ack >= v.epoch_end then adjust ());
      on_dupack = reno.on_dupack;
      on_timeout =
        (fun () ->
          reno.on_timeout ();
          v.grow_toggle <- true;
          reset_epoch ());
      on_rtt_sample =
        (fun ~rtt_ticks:_ ~rtt_ns ->
          if rtt_ns < v.base_rtt_ns then v.base_rtt_ns <- rtt_ns;
          if rtt_ns < v.epoch_min_rtt_ns then v.epoch_min_rtt_ns <- rtt_ns;
          v.epoch_samples <- v.epoch_samples + 1);
      diag =
        (fun () ->
          (if v.base_rtt_ns < max_int then
             [
               ( "base_rtt_ticks",
                 float_of_int v.base_rtt_ns /. float_of_int tick_ns );
             ]
           else [])
          @ if v.last_diff >= 0.0 then [ ("diff_segments", v.last_diff) ] else []);
    }
