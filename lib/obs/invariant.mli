(** Runtime invariants for the checked simulation mode.

    Components expose [check_invariants] functions that test each
    condition inline and call {!fail} with a rendered detail only when
    it is violated:

    {[
      if not (t.slots_held <= t.cfg.window) then
        Obs.Invariant.fail ~name:"arq.window_slots"
          (Printf.sprintf "slots_held=%d" t.slots_held)
    ]}

    The simulator runs them after every event when checking is
    enabled.  Written this way a passing check allocates nothing (a
    [~detail:(fun () -> ...)] thunk would cost a closure per check
    without flambda).  A violated invariant raises {!Violation},
    aborting the run at the first event whose bookkeeping is
    inconsistent — turning a silently shifted figure into a crash
    with a named cause. *)

exception Violation of { name : string; detail : string }

val fail : name:string -> string -> 'a
(** Raise {!Violation}. *)

val to_string : exn -> string option
(** Human-readable rendering of a {!Violation}; [None] for other
    exceptions.  Also installed as a [Printexc] printer. *)
