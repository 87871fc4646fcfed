(** The paper's [Partition_evaluate] heuristic for P_PAW and P_NPAW
    (Figure 3).

    For each TAM count [B] up to [max_tams], every unique partition of the
    total width [W] into [B] positive parts is enumerated in nondecreasing
    form (first pruning level: no permuted duplicates) and evaluated with
    {!Core_assign} carrying the best SOC time found so far as the early
    exit threshold (second pruning level). The O(m^2) heuristic inner loop
    is the third pruning level relative to the exhaustive ILP baseline.

    Statistics are recorded per TAM count so the pruning efficiency
    [E = N_eval / p(W, B)] of the paper's Table 1 can be reproduced.

    {!run_with} is the primary entry point: one {!Run_config.t} carries
    jobs, observability, budgets, checkpointing, resume and cancellation.
    The engine walks each TAM count's rank sequence in contiguous slices
    of [Run_config.slice_size] ranks; budgets and cancellation are
    honored, and checkpoints written, only at slice boundaries — a
    non-checkpointed run is the same engine with one slice per TAM
    count. The resume invariant: a run stopped at a boundary and resumed
    from its checkpoint returns the same [widths], [time], [assignment]
    and the same [enumerated = pruned + evaluated] totals as an
    uninterrupted run (with [jobs = 1], every counter is identical; see
    DESIGN.md §12). *)

type b_stats = {
  tams : int;  (** the TAM count these statistics describe *)
  unique_partitions : int;  (** exact p(W, B) *)
  enumerated : int;  (** partitions generated by the odometer *)
  completed : int;  (** evaluated to completion by [Core_assign] *)
  tau_terminated : int;  (** abandoned through the early exit *)
  best_time : int option;  (** best SOC time using exactly [tams] TAMs *)
}

val efficiency : b_stats -> float
(** [completed / unique_partitions]; the paper's E column. *)

type result = {
  widths : int array;  (** best partition found *)
  time : int;  (** its heuristic SOC testing time *)
  assignment : int array;  (** core -> TAM from [Core_assign] *)
  per_b : b_stats array;
      (** statistics for every fully explored TAM count, in order; a
          truncated run omits the partially explored one (its progress
          lives in the outcome's checkpoint) *)
  outcome : Outcome.t;
      (** [Complete] when the whole space was searched; otherwise the
          carried checkpoint resumes the run via
          [Run_config.with_resume] *)
}

val run_with : Run_config.t -> table:Time_table.t -> total_width:int -> result
(** [run_with cfg ~table ~total_width] solves P_NPAW up to
    [cfg.max_tams] TAMs, or P_PAW when [cfg.tams] is set.

    Policy read from [cfg]: [jobs] evaluates each slice on a team of
    domains pruning against a shared (time, rank) incumbent
    ({!Slice_search.round}) — [widths], [time] and
    [assignment] are identical for every job count. The pruning
    threshold starts at [max_int], capped by [tau_import] when one is
    set; [carry_tau] (default true) keeps it monotone across TAM
    counts. [time_budget] stops the run at the next slice
    boundary with [Outcome.Budget_exhausted]; [cancel] (polled at
    boundaries) stops it with [Outcome.Interrupted]; both outcomes carry
    a resume token, also written to [checkpoint_path] when one is set
    (the file is removed again when a run completes). [resume] continues
    a checkpointed run; the checkpoint must match this run's solver,
    [total_width], TAM plan, pruning configuration and SOC name, or the
    call raises [Invalid_argument]. [stats] records the counters
    documented in DESIGN.md §7; on resume the checkpointed totals are
    replayed into the collector first, so a resumed run's final totals
    equal an uninterrupted run's.

    @raise Invalid_argument when {!Run_config.tam_plan} rejects the
    instance, or a resume checkpoint does not match this run.
    @raise Failure when a checkpoint write to [checkpoint_path] fails. *)

val check_body :
  Run_config.t ->
  table:Time_table.t ->
  total_width:int ->
  Soctam_util.Json.t ->
  unit
(** Decode and validate a resume-token body tagged ["pe"] (per-cursor
    [enumerated = pruned + evaluated], field types) and check its
    incumbent against the instance with {!Checkpoint.check_best}, under
    [cfg]'s TAM ceiling and the body's bound, as {!run_with} would.
    @raise Invalid_argument on a body {!run_with} would reject. *)
