(** Two-state Markov (Gilbert–Elliott) burst-error channel.

    The paper's error model (§3.1, Figure 1): the channel alternates
    between Good and Bad states; state holding times are exponentially
    distributed with means [1/λgb] (good) and [1/λbg] (bad).  Bit
    errors within each state are Poisson with the state's BER — that
    part lives in {!Loss}; this module only provides the state
    process. *)

val create :
  rng:Sim_engine.Rng.t ->
  mean_good:Sim_engine.Simtime.span ->
  mean_bad:Sim_engine.Simtime.span ->
  Channel.t
(** A channel starting in the Good state at time zero, as in the
    paper's experiments.  Each holding time is rounded to the nearest
    nanosecond and clamped to 1 ns .. the largest
    {!Sim_engine.Simtime.span}, so any positive mean the clock holds
    gives valid periods.  The channel owns [rng]; give it a dedicated
    stream ([Rng.split]). *)
