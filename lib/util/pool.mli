(** A small fixed-size [Domain] pool with work-stealing chunk
    distribution.

    The rank-space searches ([Partition_evaluate], [Pack_engine],
    [Exhaustive], through [Slice_search]) are embarrassingly parallel:
    every work item needs only read-only shared state (the time table),
    so the only coordination required is (1) carving an indexable range
    into contiguous chunks, (2) running the chunks on a bounded number
    of domains, and (3) a shared [(time, rank)] incumbent, so the
    paper's early-termination pruning keeps biting across domains and
    the winner is the same at every team size. This module provides
    exactly those three pieces and nothing else; everything
    policy-shaped (what a chunk computes, how results are reduced)
    stays with the caller, which is what makes the deterministic
    reductions easy to audit.

    Determinism contract: {!map_chunks} returns chunks sorted by
    [c_lo], and the chunks always tile the requested range exactly —
    every index covered exactly once — no matter how steals
    interleave. A caller whose per-chunk result is reduced by an
    associative, chunk-boundary-independent operator (the solvers'
    counter sums) therefore gets byte-identical reductions at every
    [jobs] value; the solvers' winner needs no reduction at all,
    {!Shared_min} holds it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default for [-j]. *)

module Team : sig
  type t
  (** A persistent set of worker domains, parked on a condition
      variable between {!map_chunks} rounds ([Domain.spawn] costs more
      than a whole slice on a small host). Worker [0] is the calling
      domain, so a one-worker team spawns nothing: the sequential path
      is the parallel path with one worker. *)

  val with_team : ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
  (** [with_team ~jobs f] runs [f] with a fresh team of
      [min jobs (recommended_jobs ())] workers and joins its domains on
      every exit path. The cap guards against oversubscription: OCaml 5
      minor collections stop the world across every running domain, so
      more domains than cores turns each collection into an
      OS-scheduler rendezvous (measured ~13x slowdown for an
      allocation-heavy round at 8 domains on a 1-core host). It never
      changes results — {!map_chunks} reductions are chunk-boundary
      independent. [oversubscribe:true] lifts it: the determinism tests
      use it for real multi-worker interleavings on any host.
      @raise Invalid_argument when [jobs < 1]. *)

  val size : t -> int
  (** The effective worker count (after the oversubscription cap). *)
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

    - every worker starts with one balanced contiguous share (sizes
      differ by at most one, the leading shares taking the remainder);
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
  val rank : 'a t -> int
  val winner : 'a t -> 'a option
  (** The incumbent's time, rank and payload: rank [-1] and no payload
      while the seed key stands. *)

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
