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
    the partition search is not the full loop but its first step: on
    wide TAMs almost every partition is abandoned right after it
    (wide-npaw: 15,434,705 of 15,435,284 ranks; before the closed form
    below, that search was 4.2 s of a 6.5 s run). That step has a
    closed form, {!widest_cut}: an O(B) width check and one table
    lookup, after which [Partition_evaluate] also skips the rest of the
    odometer run the cut covers. The scans only matter for the few
    partitions that get past it, so sorted structures would not pay. *)

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

val run_bounded :
  ?stats:stats ->
  best:int ->
  times:int array array ->
  widths:int array ->
  unit ->
  outcome
(** {!run} with the early-exit bound as a required label: the call site
    passes a plain [int] instead of boxing [Some bound] per call, which
    is what the per-partition hot loops need ([max_int] means no early
    exit, exactly {!run}'s default). *)

val run_table :
  ?stats:stats ->
  ?best:int ->
  table:Time_table.t ->
  widths:int array ->
  unit ->
  outcome
(** Convenience wrapper deriving [times] from a precomputed table. *)

val run_table_bounded :
  ?stats:stats ->
  best:int ->
  table:Time_table.t ->
  widths:int array ->
  unit ->
  outcome
(** {!run_bounded} over a precomputed table. *)

val widest_cut : table:Time_table.t -> best:int -> widest:int -> bool
(** The first assignment step in closed form. All loads start at 0, so
    the step puts on the widest TAM the core with the largest time at
    that width: [widest_cut ~table ~best ~widest] is [true] exactly when
    {!Time_table.peak} at [widest] reaches [best], i.e. when
    {!run_table_direct} over any partition whose widest TAM is [widest]
    returns [Exceeded 1]. O(1). *)

val record_widest_cuts : ?stats:stats -> cores:int -> int -> unit
(** [record_widest_cuts ?stats ~cores n] adds to [stats] what [n]
    evaluations ending in [Exceeded 1] record one by one: [n] steps
    tried, [n] early terminations and [n * (cores - 1)] levels cut.
    This is how a caller that settles a whole batch of partitions with
    one {!widest_cut} keeps the counters exact. *)

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
(** {!run_table_bounded} without the per-partition garbage: testing
    times are read straight from {!Time_table.rows} (no
    [Time_table.matrix] copy) and the working arrays come from
    [scratch]. Outcome-identical to {!run_table_bounded} on every
    input (pinned by a qcheck property), including tie-breaking.

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
