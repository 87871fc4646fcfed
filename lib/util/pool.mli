(** A small fixed-size [Domain] pool with work-stealing chunk
    distribution.

    The partition fan-out of [Partition_evaluate] and [Exhaustive] is
    embarrassingly parallel: every work item needs only read-only shared
    state (the time table), so the only coordination required is (1)
    carving an indexable range into contiguous chunks, (2) running the
    chunks on a bounded number of domains, and (3) a shared [(time,
    rank)] incumbent, so the paper's early-termination pruning keeps
    biting across domains and the winner is the same at every team
    size. This module provides exactly those three pieces and nothing
    else; everything policy-shaped (what a chunk computes, how results
    are reduced) stays with the caller, which is what makes the
    deterministic reductions easy to audit.

    Two schedulers are provided. {!Team} + {!map_chunks} is the
    production engine: domains are spawned once per team and parked
    between rounds, each worker owns an atomic range descriptor it
    claims adaptive chunks from, and idle workers steal the top half of
    a victim's descriptor. {!run} / {!map_ranges} is the legacy static
    layer (spawn per call, fixed chunk grid) kept for callers whose per
    item cost dwarfs scheduling ([Exhaustive]'s branch-and-bound) and
    for the test suite's scheduler-independent baselines.

    Determinism contract: {!run} and {!map_ranges} return results in
    input order; {!map_chunks} returns chunks sorted by [c_lo], and the
    chunks always tile the requested range exactly — every index
    covered exactly once — no matter how steals interleave. A caller
    whose per-chunk result is reduced by an associative,
    chunk-boundary-independent operator (the solvers' counter sums)
    therefore gets byte-identical reductions at every [jobs] value;
    the solvers' winner needs no reduction at all, {!Shared_min} holds
    it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default for [-j]. *)

val split : chunks:int -> length:int -> (int * int) array
(** [split ~chunks ~length] divides the index range [0 .. length-1] into
    at most [chunks] contiguous [(lo, hi)] half-open ranges. Every index
    is covered exactly once, ranges are in increasing order, and their
    sizes differ by at most one (the leading ranges take the remainder).
    Empty when [length <= 0]; fewer than [chunks] ranges when
    [length < chunks] (never an empty range). *)

val run :
  ?stats:Soctam_obs.Obs.t -> jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs thunks] evaluates every thunk and returns the results in
    input order. With [jobs <= 1] or fewer than two thunks everything
    runs inline on the calling domain (no spawning); otherwise
    [min jobs (Array.length thunks)] domains are spawned and pull thunks
    off a shared atomic counter until none remain, so a skewed thunk
    cost (e.g. tau pruning killing one chunk early) rebalances onto the
    idle domains.

    [stats] (default disabled) records pool utilization: each executed
    thunk bumps the [pool/chunks] counter attributed to the worker that
    ran it ({!Soctam_obs.Obs.set_worker} tags spawned domains 1..N-1;
    the calling domain is worker 0) and times the thunk into a
    [pool/worker<i>] span, so per-worker busy time and chunk counts are
    reported. The aggregate chunk count is deterministic; the
    worker split and the times are not.

    Exceptions raised by a thunk are re-raised on the calling domain
    after every domain has been joined. *)

val map_ranges :
  ?stats:Soctam_obs.Obs.t ->
  jobs:int ->
  ?chunks_per_job:int ->
  length:int ->
  f:(lo:int -> hi:int -> 'a) ->
  unit ->
  'a array
(** [map_ranges ~jobs ~length ~f ()] applies [f] to every range of
    [split ~chunks:(jobs * chunks_per_job) ~length] via {!run}. Results
    are in range order. [chunks_per_job] (default 4) oversubscribes the
    pool so chunks whose work collapses early (shared-tau pruning)
    do not leave domains idle. With [jobs <= 1] the single range
    [0 .. length-1] is processed inline: the sequential path is the
    parallel path with one chunk, not separate code. *)

module Team : sig
  (** A persistent set of worker domains. [Domain.spawn] costs
      milliseconds on a small host — more than an entire evaluation
      slice — so the work-stealing scheduler amortizes it: a team
      spawns its [jobs - 1] domains once, parks them on a condition
      variable, and every {!map_chunks} round is a broadcast plus a
      barrier. Worker [0] is always the calling domain; a [jobs = 1]
      team spawns nothing and runs rounds inline, so the sequential
      path is the parallel path with one worker, not separate code. *)

  type t

  val create : ?oversubscribe:bool -> jobs:int -> unit -> t
  (** Spawn a team of workers: the effective size is
      [min jobs (recommended_jobs ())] — [size - 1] domains plus the
      caller. The cap is the oversubscription guard: OCaml 5 minor
      collections stop the world across every running domain, so more
      domains than cores turns each collection into an OS-scheduler
      rendezvous (measured ~13x slowdown for an allocation-heavy round
      at 8 domains on a 1-core host) while adding no parallelism. The
      cap never changes results — {!map_chunks} reductions are
      chunk-boundary independent. [oversubscribe:true] (default false)
      disables the cap: the determinism test suite uses it to exercise
      real multi-worker interleavings on any host.
      @raise Invalid_argument when [jobs < 1]. *)

  val size : t -> int
  (** The effective worker count (after the oversubscription cap). *)

  val shutdown : t -> unit
  (** Wake every parked worker, let it exit, and join its domain.
      Idempotent; the team must not be used afterwards. *)

  val with_team : ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
  (** [with_team ~jobs f] runs [f] with a fresh team and guarantees
      {!shutdown} on every exit path. *)
end

type 'a chunk = { c_lo : int; c_hi : int; c_value : 'a }
(** One scheduled chunk: [f] was applied to the half-open index range
    [c_lo, c_hi). *)

val map_chunks :
  ?stats:Soctam_obs.Obs.t ->
  ?min_chunk:int ->
  Team.t ->
  length:int ->
  f:(worker:int -> lo:int -> hi:int -> 'a) ->
  unit ->
  'a chunk array
(** [map_chunks team ~length ~f ()] applies [f] to contiguous chunks
    that together tile [0, length) exactly, scheduled by work stealing:

    - every worker starts with one balanced contiguous share (the
      {!split} grid over [Team.size] workers);
    - an owner claims chunks off the {e low} end of its descriptor,
      halving what remains per claim (coarse first, finer toward the
      tail) and never claiming below [min_chunk] (default 256) except
      to swallow the final sub-[2 * min_chunk] tail whole;
    - a worker whose descriptor is empty steals the {e top} half of
      another worker's descriptor, so contiguity of every descriptor is
      preserved and claimed chunks plus descriptors always partition
      the range;
    - a worker that finds nothing to steal retries a bounded number of
      sweeps and then leaves the round rather than spin — on a host
      with fewer cores than workers, spinning would starve the very
      workers holding the remaining chunks.

    The [worker] index passed to [f] identifies the worker slot
    ([0 .. Team.size - 1]); at most one chunk runs per slot at any
    time, so per-slot mutable scratch state in the caller is race-free.
    Results are returned sorted by [c_lo]. Chunk boundaries are {e not}
    deterministic under [jobs > 1] (they depend on steal timing);
    determinism of the overall result is the caller's reduction
    contract, see the module preamble.

    [stats] records [pool/chunks] and [pool/steals] counters (worker
    attributed) and per-chunk [pool/worker<i>] busy spans. At
    [jobs = 1] the chunk count is deterministic: the adaptive halving
    sequence of a single owner, roughly [2 * log2 (length /
    min_chunk)] chunks — the same code path, with real counter
    traffic, as any other job count.

    The first exception raised by [f] is re-raised on the caller after
    the round barrier; the remaining workers drain without starting
    new chunks.

    @raise Invalid_argument when [min_chunk < 1]. *)

module Shared_min : sig
  (** The shared incumbent: the parallel form of the paper's best-known
      SOC time [tau], keyed lexicographically by [(time, rank)] and
      carrying the incumbent's payload. Domains publish completed
      evaluations with their rank; the cell keeps the minimum key — the
      first strict improvement in rank order, the sequential winner —
      however evaluations interleave. A stale read only weakens
      pruning, never the winner. *)

  type 'a t

  val create : int -> 'a t
  (** An incumbent with key [(tau, -1)] and no payload ([max_int] = no
      bound): every candidate must beat [tau] strictly. *)

  val get : 'a t -> int
  (** The incumbent's time. *)

  val winner : 'a t -> 'a option
  (** The incumbent's payload; [None] while the seed key stands. *)

  val improve : 'a t -> time:int -> rank:int -> 'a -> unit
  (** Make [(time, rank)] and its payload the incumbent if that key is
      lexicographically lower; a compare-and-set loop, so concurrent
      improvements never lose the minimum. *)

  val publications : 'a t -> int
  (** How many times the incumbent was replaced since {!create}: the
      strict time improvements when sequential, plus racing
      improvements beaten later when parallel. *)

  type 'a mirror
  (** A worker-local view of an incumbent, so workers do not serialize
      on one cache line: reads come from a plain field refreshed from
      the shared cell once every 32 reads. With a single worker the
      mirror is exact: it is the only publisher. *)

  val mirror : 'a t -> 'a mirror
  (** A fresh mirror, initially synced. *)

  val mirror_threshold : 'a mirror -> rank:int -> int
  (** The early-exit threshold for a candidate of rank [rank] under the
      known incumbent [(tau, r)]: [tau + 1] when [rank < r] (a tie would
      win on rank, so it must complete), [tau] otherwise. Ranks visited
      in ascending order always get [tau], the paper's tie pruning. *)

  val mirror_get : 'a mirror -> int
  (** The known incumbent time, as of the last {!mirror_threshold} or
      {!mirror_improve}. *)

  val mirror_improve : 'a mirror -> time:int -> rank:int -> 'a -> unit
  (** Lower the local view and, when the key beats it, the shared
      incumbent ({!improve}). *)
end
