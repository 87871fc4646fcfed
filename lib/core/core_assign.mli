(** The paper's [Core_assign] heuristic for P_AW (Figure 1).

    Cores are scheduled onto TAMs like independent jobs on parallel
    machines: repeatedly pick the TAM with the smallest summed testing
    time (ties: the widest TAM) and give it the unassigned core with the
    largest testing time on that TAM (ties: the core that would be most
    expensive on the widest narrower TAM). If at any point some TAM's
    summed time reaches the best-known SOC time [tau], evaluation stops
    early — the partition under evaluation cannot improve on [tau]. This
    early exit is the paper's second level of solution-space pruning and
    is what lets [Partition_evaluate] discard most partitions cheaply.

    Complexity: the paper states O(mB + m log m) for [m] cores and [B]
    TAMs, which assumes the per-TAM core orderings are pre-sorted and
    consulted via priority queues. This implementation rescans instead:
    each of the [m] steps is one O(B) pass for the TAM and one O(m + B)
    pass for the core (the tie-break included), O(m^2 + mB) overall,
    and {!run_table_direct} allocates nothing per step. What dominates
    the partition search is not the full loop but its first two steps:
    on wide TAMs almost every partition is abandoned after one or two
    of them. Both have a closed form, {!cut}: at most four table
    lookups, after which [Partition_evaluate] also skips the rest of
    the odometer block a step-1 cut covers. On wide-npaw's pass that
    leaves about 130 thousand of 15.4 million ranks for the loop; the
    scans only matter for those, so sorted structures would not pay. *)

type outcome =
  | Assigned of {
      assignment : int array;  (** core index -> TAM index *)
      tam_times : int array;  (** summed testing time per TAM *)
      time : int;  (** SOC testing time: max of [tam_times] *)
    }
  | Exceeded of int
      (** Some TAM's summed time reached the supplied [best] after this
          many cores were assigned; the partition was abandoned. *)

type stats = {
  mutable tried : int;
      (** core-assignment steps actually executed (paper lines 10-16) *)
  mutable early_terminations : int;
      (** evaluations abandoned through the [tau] early exit *)
  mutable levels_cut : int;
      (** assignment steps skipped by those early exits: for an SOC of
          [m] cores, an evaluation abandoned after [k] steps cuts
          [m - k] levels of the assignment loop *)
}
(** Accumulator for the observability layer: plain unsynchronized
    mutable fields, so a hot caller owns one per evaluation chunk and
    flushes it into a {!Soctam_obs.Obs} collector at chunk granularity.
    The per-call cost when supplied is a few integer stores; when absent
    it is one branch. For a fixed input the final field values are exact
    and reproducible. *)

val stats : unit -> stats
(** A zeroed accumulator. *)

val run :
  ?stats:stats ->
  ?best:int ->
  times:int array array ->
  widths:int array ->
  unit ->
  outcome
(** [run ?best ~times ~widths ()] assigns every core given
    [times.(i).(j) >= 0], the testing time of core [i] on TAM [j]
    (widths are consulted only by the tie-breaking rules). [best]
    defaults to [max_int], i.e. no early exit. [stats], when supplied,
    accumulates the work done by this call.
    @raise Invalid_argument on empty or ragged inputs. *)

val run_table :
  ?stats:stats ->
  ?best:int ->
  table:Time_table.t ->
  widths:int array ->
  unit ->
  outcome
(** Convenience wrapper deriving [times] from a precomputed table. *)

val cut : table:Time_table.t -> best:int -> widest:int -> second:int -> int
(** The first two assignment steps in closed form, for a partition
    whose widest TAM has width [widest] and whose second-widest has
    width [second] (0 when there is one TAM). All loads start at 0, so
    step 1 puts {!Time_table.peak} at [widest] on the widest TAM: when
    that reaches [best] the result is 1. Otherwise, when one core c1
    holds that peak ({!Time_table.peak_core}), step 2 puts on the
    second-widest TAM the largest time at [second] of any core but c1,
    which is {!Time_table.runner_up} at [second] when c1 holds the peak
    there too and {!Time_table.peak} at [second] otherwise; with one TAM
    it adds {!Time_table.runner_up} at [widest] to the first load. When
    that load reaches [best] the result is 2, and otherwise 0. The
    closed form declines, with 0, only when two or more TAMs meet a
    tied peak at [widest] below [best]: the tie-break then picks c1 and
    the loop decides. So 1 or 2 is exactly the [Exceeded] step
    {!run_table_direct} returns, and 0 means the loop gets past step 2
    unless the closed form declined. O(1). *)

val record_cuts : ?stats:stats -> cores:int -> step:int -> int -> unit
(** [record_cuts ?stats ~cores ~step n] adds to [stats] what [n]
    evaluations ending in [Exceeded step] record one by one: [n * step]
    steps tried, [n] early terminations and [n * (cores - step)] levels
    cut. This is how a caller that settles a partition, or a whole
    block of them, with one {!cut} keeps the counters exact. *)

type scratch
(** Caller-owned working storage for {!run_table_direct}: the three
    arrays the greedy loop fills per evaluation ([loads], [assignment],
    [unassigned]), re-allocated only when the core or TAM count
    changes. One scratch per worker; never share across domains. *)

val scratch : unit -> scratch
(** An empty scratch; arrays are sized on first use. *)

val run_table_direct :
  ?stats:stats ->
  scratch:scratch ->
  best:int ->
  table:Time_table.t ->
  widths:int array ->
  unit ->
  outcome
(** {!run_table} without the per-partition garbage: testing
    times are read straight from {!Time_table.rows} (no
    [Time_table.matrix] copy) and the working arrays come from
    [scratch]. Outcome-identical to {!run_table} on every
    input (pinned by a qcheck property), including tie-breaking.

    The first two steps come from {!cut} after an O(B) width check,
    recorded in [stats] as the loop would record them.

    Aliasing caveat: the arrays inside an [Assigned] result are the
    scratch arrays — valid only until the next call with the same
    scratch. Callers that keep a result copy what they need (the hot
    loops already copy only on strict improvement).
    @raise Invalid_argument on empty inputs or widths outside
    [1 .. Time_table.max_width table]. *)

val run_randomized :
  rng:Soctam_util.Prng.t ->
  restarts:int ->
  times:int array array ->
  widths:int array ->
  unit ->
  int array * int
(** Ablation variant: the same list-scheduling loop, but every tie (equal
    TAM loads, equal core times) is broken uniformly at random instead of
    by the paper's width-aware rules, and the best of [restarts]
    independent runs is kept. Returns [(assignment, time)]. Comparing it
    against {!run} quantifies how much the paper's deterministic
    tie-breaking buys (the [ab_ties] ablation of [soctam tables]).
    @raise Invalid_argument like {!run}, or when [restarts < 1]. *)
