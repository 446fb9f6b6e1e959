(** Parallel map over a persistent pool of OCaml 5 domains.

    Replications of a sweep are independent by construction (each
    seed owns its splitmix64 stream), so they can be fanned out
    across domains without changing any result: {!map} and
    {!map_array} preserve input order, which keeps the seed schedule
    — and therefore every measurement list — bit-identical to a
    sequential run at any [jobs].

    Domains are spawned {e once per process} (lazily, on the first
    parallel call) and then reused by every later call: a whole
    figure battery pays domain-spawn cost once, not once per sweep.
    Every domain runs with the runtime's default GC settings.  Each
    participant claims one index at a time off a shared cursor and
    writes that task's result into the output slot of the same index,
    so the output is deterministic whatever the claim interleaving
    was.

    Nesting is safe: a [map] issued from inside a pool worker runs
    sequentially on that worker instead of waiting on its own pool. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1.
    One domain is reserved for the caller, which also works as part
    of the pool. *)

(** The persistent domain pool behind {!map} / {!map_array}.

    Most callers never touch this module — they pass [~jobs] to the
    map functions and the pool is created, grown and reused
    transparently.  It is exposed for callers that want explicit
    lifecycle control (tests, benchmarks) and for its
    instrumentation. *)
module Pool : sig
  type t

  val get : ?jobs:int -> unit -> t
  (** The process-wide pool, created on first use.  Grows (spawns
      additional domains) if [jobs] exceeds every earlier request;
      never shrinks, never re-spawns an existing slot.  [jobs]
      defaults to {!default_jobs}[ () + 1] workers including the
      caller.  Must be called from the main domain.

      If spawning a helper raises (domain limit, out of memory), the
      exception propagates but the pool stays consistent: helpers
      already spawned remain registered and the creation lock is
      released, so a subsequent [get] / [map] retries the missing
      slots cleanly instead of deadlocking. *)

  val fail_spawns_for_tests : int -> unit
  (** Make the next [n] helper spawns raise [Failure] — test support
      for the spawn-failure recovery path, which real resource
      exhaustion would otherwise make untestable. *)

  val submit_map : ?jobs:int -> t -> ('a -> 'b) -> 'a array -> 'b array
  (** [submit_map pool f input] computes [Array.map f input] on the
      pool, the caller participating.  [jobs] caps the number of
      participating workers for this batch (default: all of them).
      Order-preserving and deterministic: each result lands at its
      input's index, so the output is byte-identical to the sequential
      map at any [jobs].  If any [f x] raises, the exception for the
      smallest failing index is re-raised in the caller with its
      original backtrace (helpers record backtraces for the batch
      exactly when the caller does), after every task has run.  [f] must be
      safe to run on multiple domains at once (the simulator's runs
      are: all their state is per-run).  One batch at a time, from
      the main domain only; a submission from inside a pool worker
      runs sequentially on that worker.  Unlike {!map_array}, no
      core-count cap is applied: tests and benchmarks use this entry
      point to exercise the pool machinery even on a one-core
      host. *)

  val shutdown : unit -> unit
  (** Join every pool domain and forget the pool; the next {!get}
      starts fresh.  Idempotent.  Registered [at_exit], so tests and
      short-lived processes never leak domains. *)

  type stats = {
    domains_spawned : int;  (** domains ever spawned (cumulative) *)
    tasks : int;  (** tasks executed across all batches *)
    steals : int;  (** tasks claimed by helper domains *)
    chunks : int;
        (** equal to [tasks]: every claim is one task.  Kept only
            because the benchmark reports it. *)
    batches : int;  (** [submit_map] batches run on the pool *)
  }

  val stats : unit -> stats
  (** Process-lifetime counters (monotone; survive {!shutdown}).
      [domains_spawned <= jobs - 1] for a process whose calls all use
      the same [jobs] — the "spawn once per process" property. *)
end

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f xs] is [Array.map f xs], computed by up to
    [jobs] workers of the persistent pool (including the calling
    domain).  Input order is preserved.  [jobs] is capped at
    [Domain.recommended_domain_count ()]: minor collections are a
    stop-the-world rendezvous of every domain, so domains beyond the
    core count only stall each other (measured ~4x slowdown for two
    allocating domains on one core) — a one-core host therefore runs
    sequentially whatever [jobs] says, which byte-identity makes
    unobservable.  When the effective [jobs <= 1] or the array has
    fewer than two elements this is exactly [Array.map f xs] on the
    current domain.  Exceptions propagate as in {!Pool.submit_map},
    which applies no core cap. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List façade over {!map_array}; [List.map f xs] when [jobs <= 1]
    or the list has fewer than two elements.  Array-based callers on
    the replication hot path should prefer {!map_array}, which skips
    the list↔array conversions. *)
