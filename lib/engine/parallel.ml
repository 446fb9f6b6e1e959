let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* Set in every pool worker domain.  A map call issued from inside a
   worker (nested parallelism) must not wait on the pool it is itself
   part of, so it degrades to a plain sequential map. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

module Pool = struct
  (* Process-lifetime counters.  Cumulative: tests measure deltas. *)
  let domains_spawned = Atomic.make 0
  let tasks_total = Atomic.make 0
  let steals_total = Atomic.make 0
  let batches_total = Atomic.make 0

  type stats = {
    domains_spawned : int;
    tasks : int;
    steals : int;
    chunks : int;
    batches : int;
  }

  (* Every claim is one task, so [chunks] is [tasks]; the field stays
     only for the benchmark that reads it. *)
  let stats () =
    let tasks = Atomic.get tasks_total in
    {
      domains_spawned = Atomic.get domains_spawned;
      tasks;
      steals = Atomic.get steals_total;
      chunks = tasks;
      batches = Atomic.get batches_total;
    }

  type t = {
    mutable helpers : unit Domain.t list;
    mutable helper_count : int;
    m : Mutex.t;
    work : Condition.t;
    (* Bumped once per batch; workers sleep until it changes. *)
    mutable epoch : int;
    (* The current batch's participation closure, [None] between
       batches so finished inputs are not retained. *)
    mutable job : (helper:bool -> unit) option;
    mutable stop : bool;
  }

  (* The one process-wide pool.  [creation_m] serialises creation,
     growth and shutdown; batches themselves are submitted only from
     the main domain (nested submissions run inline, see
     [in_worker]). *)
  let pool_ref : t option ref = ref None
  let creation_m = Mutex.create ()
  let exit_hook_registered = ref false

  let rec worker_loop pool my_epoch =
    Mutex.lock pool.m;
    while pool.epoch = my_epoch && not pool.stop do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      let epoch = pool.epoch in
      let job = pool.job in
      Mutex.unlock pool.m;
      (match job with Some f -> f ~helper:true | None -> ());
      worker_loop pool epoch
    end

  (* Test hook: make the next [n] helper spawns raise.  [Domain.spawn]
     itself cannot be made to fail on demand (resource exhaustion is
     the real trigger), so the growth-failure path is exercised by
     injecting the raise just before it. *)
  let fail_spawns = Atomic.make 0
  let fail_spawns_for_tests n = Atomic.set fail_spawns (Stdlib.max 0 n)

  (* Called with [creation_m] held, between batches.  All pool state
     ([helpers], [helper_count], the spawn counter) is updated only
     after [Domain.spawn] succeeds, so a failed spawn leaves the pool
     exactly as it was: helpers that did spawn stay usable and the
     next [get] simply retries the missing slots. *)
  let spawn_helper pool =
    if Atomic.get fail_spawns > 0 && Atomic.fetch_and_add fail_spawns (-1) > 0
    then failwith "Parallel.Pool: injected spawn failure (test hook)";
    let epoch0 = pool.epoch in
    let d =
      Domain.spawn (fun () ->
          Domain.DLS.set in_worker true;
          worker_loop pool epoch0)
    in
    Atomic.incr domains_spawned;
    pool.helpers <- d :: pool.helpers;
    pool.helper_count <- pool.helper_count + 1

  let shutdown () =
    Mutex.lock creation_m;
    (match !pool_ref with
    | None -> ()
    | Some pool ->
      pool_ref := None;
      Mutex.lock pool.m;
      pool.stop <- true;
      pool.job <- None;
      Condition.broadcast pool.work;
      Mutex.unlock pool.m;
      List.iter Domain.join pool.helpers);
    Mutex.unlock creation_m

  let get ?jobs () =
    let jobs =
      match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs ()
    in
    Mutex.lock creation_m;
    let pool =
      match !pool_ref with
      | Some p -> p
      | None ->
        let p =
          {
            helpers = [];
            helper_count = 0;
            m = Mutex.create ();
            work = Condition.create ();
            epoch = 0;
            job = None;
            stop = false;
          }
        in
        pool_ref := Some p;
        if not !exit_hook_registered then begin
          exit_hook_registered := true;
          at_exit shutdown
        end;
        p
    in
    (* Grow lazily to the largest [jobs] ever requested; domains are
       never spawned twice for the same slot.  A spawn failure must
       not poison the pool: release the creation lock (a held lock
       would deadlock every later call) and re-raise — the helpers
       that did spawn remain registered, so a retry only fills the
       missing slots. *)
    (match
       while pool.helper_count < jobs - 1 do
         spawn_helper pool
       done
     with
    | () -> Mutex.unlock creation_m
    | exception e ->
      Mutex.unlock creation_m;
      raise e);
    pool

  let submit_map ?jobs pool f input =
    let n = Array.length input in
    if n = 0 then [||]
    else if Domain.DLS.get in_worker then Array.map f input
    else begin
      let limit =
        match jobs with
        | Some j -> Stdlib.max 1 (Stdlib.min j (pool.helper_count + 1))
        | None -> pool.helper_count + 1
      in
      let limit = Stdlib.min limit n in
      if limit <= 1 then Array.map f input
      else begin
        Atomic.incr batches_total;
        let next = Atomic.make 0 in
        let remaining = Atomic.make n in
        let done_m = Mutex.create () in
        let done_c = Condition.create () in
        (* Each index is claimed by exactly one participant, which
           writes its own slot, so the array is the merge: its order
           is the input's whatever the claim interleaving was. *)
        let results =
          Array.make n (Error (Stdlib.Exit, Printexc.get_callstack 0))
        in
        (* Participation tokens cap helper involvement, so a
           [jobs:2] batch on a wider pool really uses one helper. *)
        let tokens = Atomic.make (limit - 1) in
        let rec claim ~helper =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            if helper then Atomic.incr steals_total;
            results.(i) <-
              (match f input.(i) with
              | y -> Ok y
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              (* Last task of the batch: wake the caller.  The caller
                 re-checks [remaining] under [done_m], so the signal
                 cannot be lost. *)
              Mutex.lock done_m;
              Condition.signal done_c;
              Mutex.unlock done_m
            end;
            claim ~helper
          end
        in
        (* Backtrace recording is per domain: a helper follows the
           caller's setting, so a task that fails on a helper still
           re-raises with the backtrace of its own raise. *)
        let record_backtrace = Printexc.backtrace_status () in
        let job ~helper =
          if not helper then claim ~helper:false
          else begin
            let rec acquire () =
              let t = Atomic.get tokens in
              t > 0 && (Atomic.compare_and_set tokens t (t - 1) || acquire ())
            in
            if acquire () then begin
              Printexc.record_backtrace record_backtrace;
              claim ~helper:true
            end
          end
        in
        Mutex.lock pool.m;
        pool.job <- Some job;
        pool.epoch <- pool.epoch + 1;
        Condition.broadcast pool.work;
        Mutex.unlock pool.m;
        (* The caller is a full participant, not just a coordinator. *)
        job ~helper:false;
        Mutex.lock done_m;
        while Atomic.get remaining > 0 do
          Condition.wait done_c done_m
        done;
        Mutex.unlock done_m;
        Mutex.lock pool.m;
        pool.job <- None;
        Mutex.unlock pool.m;
        ignore (Atomic.fetch_and_add tasks_total n);
        (* Indices in order, so the failure with the smallest index is
           re-raised first. *)
        Array.map
          (function
            | Ok y -> y
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
          results
      end
    end
end

let map_array ~jobs f input =
  let n = Array.length input in
  (* Cap at the core count: OCaml 5 minor collections are a
     stop-the-world rendezvous of every running domain, and when
     domains outnumber cores each rendezvous stalls until the kernel
     schedules the laggard — measured at ~4x total slowdown for two
     allocation-heavy domains sharing one core.  So requesting more
     parallelism than the hardware has is never a win; a one-core
     host runs sequentially (and byte-identity makes the difference
     unobservable).  [Pool.submit_map] applies no such cap, for
     callers (tests, benchmarks) that want the pool machinery
     exercised regardless of the host. *)
  let jobs = Stdlib.min jobs (Domain.recommended_domain_count ()) in
  if n <= 1 || jobs <= 1 || Domain.DLS.get in_worker then Array.map f input
  else
    let jobs = Stdlib.min jobs n in
    Pool.submit_map ~jobs (Pool.get ~jobs ()) f input

let map ~jobs f = function
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when jobs <= 1 -> List.map f xs
  | xs -> Array.to_list (map_array ~jobs f (Array.of_list xs))
