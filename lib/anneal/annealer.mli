(** Simulated annealing for P_NPAW: an alternative global optimizer used
    as a yardstick for the paper's deterministic
    [Partition_evaluate] + exact-final-step pipeline.

    The state is a full architecture (TAM count, width partition, core
    assignment); moves shift one wire between TAMs, reassign one core,
    split a TAM in two, or merge two TAMs. The energy is the SOC testing
    time, the largest of the per-TAM loads that every move updates in
    place from the precomputed core time tables: a reassignment costs
    O(1), the other moves O(cores), and a rejected move is undone in
    place. Classic geometric cooling with a Metropolis acceptance rule;
    fully deterministic given the seed.

    {!run_with} runs the walk under the shared [Run_config]/[Outcome]
    lifecycle: budget-aware slices over the iteration schedule,
    checkpoint/resume (solver tag ["anneal"], with the splitmix64
    stream and the temperature captured bit-exactly so a resumed walk
    is byte-identical to an uninterrupted one), and [?stats] counters
    ([anneal/proposed], [anneal/accepted]). The walk is inherently
    sequential; [Run_config.jobs] is ignored. *)

type params = {
  iterations : int;  (** proposed moves, default 100_000 *)
  initial_temperature : float;
      (** in cycles; default: 10% of the initial energy *)
  cooling : float;  (** geometric factor per iteration, default 0.99995 *)
  seed : int64;
}

val default_params : params

type result = {
  widths : int array;
  assignment : int array;
  time : int;  (** best energy seen *)
  accepted : int;  (** accepted moves *)
  proposed : int;
  outcome : Soctam_core.Outcome.t;
      (** [Complete] iff the full iteration schedule ran; a truncated
          walk still reports its best-so-far architecture and the
          carried checkpoint resumes mid-schedule *)
}

val run_with :
  ?params:params ->
  Soctam_core.Run_config.t ->
  table:Soctam_core.Time_table.t ->
  total_width:int ->
  result
(** [run_with cfg ~table ~total_width] anneals from the single
    full-width TAM with every core on it, walking TAM counts up to
    [cfg.max_tams] (P_NPAW only — the walk cannot hold a TAM count
    fixed, so [cfg.tams] is rejected).

    Policy read from [cfg]: [time_budget], [cancel], [slice_limit],
    [checkpoint_path]/[checkpoint_every] (slices are
    [checkpoint_every] iterations) and [resume] behave as in
    {!Soctam_core.Partition_evaluate.run_with}; a resume checkpoint
    must match this instance, [params] schedule and SOC name, and the
    resumed walk replays the checkpointed counters into [cfg.stats]
    unless [resume_replay] is off. [jobs], [tau_import], [node_limit]
    and [carry_tau] are ignored: the walk is sequential and its energy
    landscape has no pruning bound to import.

    @raise Invalid_argument on a table narrower than [total_width],
    [max_tams < 1], [iterations < 0], [cfg.tams] set, or a resume
    checkpoint that does not match this run, including a walker or
    incumbent that is not an architecture of this instance and an
    incumbent time that is not its test time
    ({!Soctam_core.Checkpoint.check_best}).
    @raise Failure when a checkpoint write to [checkpoint_path]
    fails. *)

val engine : ?params:params -> unit -> Soctam_core.Engine.t
(** This solver as a first-class engine (registry name ["anneal"]):
    sequential, no tau import, free TAM counts only, proves nothing;
    the exact certificate applies to its architectures. *)
