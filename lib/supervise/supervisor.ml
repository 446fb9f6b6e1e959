(* The supervised campaign runner: deadlines, retry, quarantine and
   checkpoint/resume over the domain pool.

   Execution is wave-based: the pending cells are chunked into waves
   of ~8*jobs, each wave fans out over [Parallel.map_array], and all
   bookkeeping — manifest appends and flushes, the interrupt poll —
   happens on the main domain between waves.  That keeps file IO and
   signal state off the worker domains, bounds how much work an
   interrupt loses to one wave, and preserves the pool's determinism
   contract: outcomes merge by index, so the settled array is
   byte-identical at any [jobs] and any interleaving of interruptions
   and resumes. *)

exception Worker_killed of { cell : int }

let () =
  Printexc.register_printer (function
    | Worker_killed { cell } ->
      Some (Printf.sprintf "Supervisor.Worker_killed(cell %d)" cell)
    | _ -> None)

(* Process-lifetime counters.  Cumulative like the pool's: callers
   measure deltas. *)
let deadline_hits_total = Atomic.make 0
let retries_total = Atomic.make 0
let quarantined_total = Atomic.make 0
let resumed_total = Atomic.make 0
let flushes_total = Atomic.make 0

type stats = {
  deadline_hits : int;
  retries : int;
  backoff_ms : int;
  quarantined : int;
  resumed_cells : int;
  checkpoint_flushes : int;
}

let stats () =
  {
    deadline_hits = Atomic.get deadline_hits_total;
    retries = Atomic.get retries_total;
    backoff_ms = 0;
    quarantined = Atomic.get quarantined_total;
    resumed_cells = Atomic.get resumed_total;
    checkpoint_flushes = Atomic.get flushes_total;
  }

type config = {
  deadline_events : int option;
  max_attempts : int;
  relax_factor : int;
  wave_size : int option;
}

let default_config =
  {
    deadline_events = None;
    max_attempts = 3;
    relax_factor = 8;
    wave_size = None;
  }

type sabotage = {
  kill_cell : int option;
  poison_cell : int option;
  force_deadline_cell : int option;
}

let no_sabotage =
  { kill_cell = None; poison_cell = None; force_deadline_cell = None }

type 'a cell = {
  key : string;
  simulate : unit -> 'a;
  encode : 'a -> string;
  decode : string -> 'a option;
}

type 'a outcome = Done of 'a | Quarantined of { attempts : int; error : string }

type 'a report = {
  outcomes : 'a outcome option array;
  completed : int;
  resumed : int;
  quarantined : int;
  interrupted : bool;
  manifest_path : string option;
}

let campaign_id ~spec ~keys =
  let b = Buffer.create (256 + (Array.length keys * 33)) in
  Buffer.add_string b Repcache.Fingerprint.engine_version;
  Buffer.add_char b '\n';
  Buffer.add_string b spec;
  Array.iter
    (fun k ->
      Buffer.add_char b '\n';
      Buffer.add_string b k)
    keys;
  Digest.to_hex (Digest.string (Buffer.contents b))

let is_deadline = function
  | Sim_engine.Simulator.Budget_exhausted _ -> true
  | Sim_engine.Simulator.Fault
      { error = Sim_engine.Simulator.Budget_exhausted _; _ } ->
    true
  | _ -> false

(* Budget tier for attempt [n] (1-based): the base deadline relaxed
   [relax_factor]x per retry, saturating instead of overflowing, so a
   deterministic deadline failure gets real headroom before the cell
   is quarantined.  Sabotaged cells are pinned to a one-event budget
   on every attempt — a deterministic "this cell can never meet its
   deadline" fault. *)
let budget_for config sabotage ~cell ~attempt =
  if sabotage.force_deadline_cell = Some cell then Some 1
  else
    match config.deadline_events with
    | None -> None
    | Some base ->
      let rec relax b k =
        if k <= 1 then b
        else
          relax
            (if b > max_int / config.relax_factor then max_int
             else b * config.relax_factor)
            (k - 1)
      in
      Some (relax base attempt)

(* One cell, run to an outcome on whatever domain the pool picked.
   Catches everything but a cache verify divergence: a cell may fail,
   never the wave, but a cache entry that differs from a fresh
   simulation fails the campaign, as it does without supervision. *)
let attempt_cell config sabotage cells i =
  let cell = cells.(i) in
  let rec go attempt =
    if attempt > 1 then Atomic.incr retries_total;
    match
      (if sabotage.kill_cell = Some i && attempt = 1 then
         raise (Worker_killed { cell = i }));
      Sim_engine.Simulator.with_budget
        (budget_for config sabotage ~cell:i ~attempt)
        cell.simulate
    with
    | v -> Done v
    | exception (Repcache.Cache.Verify_mismatch _ as e) -> raise e
    | exception e ->
      if is_deadline e then Atomic.incr deadline_hits_total;
      if attempt < config.max_attempts then go (attempt + 1)
      else begin
        Atomic.incr quarantined_total;
        Quarantined { attempts = attempt; error = Printexc.to_string e }
      end
  in
  go 1

let run ?(config = default_config) ?(jobs = 1) ?spec ?manifest_dir
    ?(sabotage = no_sabotage) ?should_stop (cells : 'a cell array) =
  if config.max_attempts < 1 then
    invalid_arg "Supervisor.run: max_attempts < 1";
  if config.relax_factor < 1 then
    invalid_arg "Supervisor.run: relax_factor < 1";
  let n = Array.length cells in
  let outcomes : 'a outcome option array = Array.make n None in
  let resumed = ref 0 in
  (* Checkpointing is on iff the campaign has a spec.  Restore settled
     cells from a surviving manifest first: a [done] line only counts
     if its key matches the rebuilt cell AND the manifest still holds
     a decodable payload for it — a torn, poisoned or missing payload
     heals by re-simulation.  In Verify cache mode every restored cell
     is re-simulated and compared, turning resume into a determinism
     oracle. *)
  let manifest, manifest_path =
    match spec with
    | None -> (None, None)
    | Some spec ->
      let keys = Array.map (fun c -> c.key) cells in
      let id = campaign_id ~spec ~keys in
      let dir =
        match manifest_dir with
        | Some d -> d
        | None -> Filename.concat (Repcache.Cache.dir ()) "campaigns"
      in
      let path = Manifest.path ~dir ~id in
      let prior =
        match Manifest.load ~path with
        | Ok m
          when m.Manifest.header.Manifest.id = id
               && m.Manifest.header.Manifest.spec = spec
               && m.Manifest.header.Manifest.cells = n ->
          Some m
        | Ok _ | Error _ -> None
      in
      (match prior with
      | None -> ()
      | Some m ->
        for i = 0 to n - 1 do
          match Hashtbl.find_opt m.Manifest.entries i with
          | None -> ()
          | Some (Manifest.Quarantined { attempts; error }) ->
            outcomes.(i) <- Some (Quarantined { attempts; error });
            incr resumed
          | Some (Manifest.Done { key }) when key = cells.(i).key -> (
            match Hashtbl.find_opt m.Manifest.payloads key with
            | None -> () (* payload torn or missing: re-simulate *)
            | Some payload -> (
              match cells.(i).decode payload with
              | None -> () (* payload poisoned: re-simulate *)
              | Some v ->
                (match Repcache.Cache.mode () with
                | Repcache.Cache.Verify ->
                  let fresh = cells.(i).encode (cells.(i).simulate ()) in
                  let ok = String.equal fresh payload in
                  Repcache.Cache.note_verify ~ok;
                  if not ok then
                    raise
                      (Repcache.Cache.Verify_mismatch
                         { key; cached = payload; fresh })
                | _ -> ());
                outcomes.(i) <- Some (Done v);
                incr resumed))
          | Some (Manifest.Done _) -> () (* foreign key: re-simulate *)
        done);
      ignore (Atomic.fetch_and_add resumed_total !resumed);
      let t =
        match prior with
        | Some _ -> Manifest.open_append ~path
        | None -> Manifest.create ~path ~id ~spec ~cells:n
      in
      (Some t, Some path)
  in
  let pending =
    Array.of_list
      (List.filter
         (fun i -> outcomes.(i) = None)
         (List.init n (fun i -> i)))
  in
  let wave_size =
    match config.wave_size with
    | Some w -> Stdlib.max 1 w
    | None -> Stdlib.max 16 (8 * Stdlib.max 1 jobs)
  in
  let interrupted = ref false in
  let completed = ref 0 in
  let quarantined = ref 0 in
  let pos = ref 0 in
  while (not !interrupted) && !pos < Array.length pending do
    (match should_stop with
    | Some f when f ~completed:!completed -> interrupted := true
    | _ -> ());
    if not !interrupted then begin
      let hi = Stdlib.min (Array.length pending) (!pos + wave_size) in
      let batch = Array.sub pending !pos (hi - !pos) in
      pos := hi;
      let results =
        Sim_engine.Parallel.map_array ~jobs
          (attempt_cell config sabotage cells)
          batch
      in
      Array.iteri
        (fun bi outcome ->
          let i = batch.(bi) in
          outcomes.(i) <- Some outcome;
          incr completed;
          (match outcome with
          | Quarantined _ -> incr quarantined
          | Done _ -> ());
          match manifest with
          | None -> ()
          | Some m -> (
            match outcome with
            | Done v ->
              let key = cells.(i).key in
              (* Poison sabotage: checkpoint a payload that fails to
                 decode, so a later resume exercises the healing path. *)
              Manifest.append_payload m ~key
                (if sabotage.poison_cell = Some i then "poisoned by sabotage"
                 else cells.(i).encode v);
              Manifest.append m ~idx:i (Manifest.Done { key })
            | Quarantined { attempts; error } ->
              Manifest.append m ~idx:i
                (Manifest.Quarantined { attempts; error })))
        results;
      match manifest with
      | None -> ()
      | Some m ->
        Manifest.flush m;
        Atomic.incr flushes_total
    end
  done;
  (match manifest with None -> () | Some m -> Manifest.close m);
  {
    outcomes;
    completed = !completed;
    resumed = !resumed;
    quarantined = !quarantined;
    interrupted = !interrupted;
    manifest_path;
  }
