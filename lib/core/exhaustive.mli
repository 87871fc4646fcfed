(** The exhaustive baseline of [Iyengar et al., JETTA 2002] ([8]): solve
    P_PAW by running an {e exact} P_AW optimization for every unique
    partition of the TAM width.

    This is the method the paper improves on. It produces optimal times
    (when it finishes) but its CPU time grows with the number of
    partitions times the cost of an exact solve, which is why the paper's
    authors could not run it beyond three TAMs on industrial SOCs. Both a
    per-partition node budget and a global wall-clock budget let it
    degrade to "best found so far", mirroring the paper's "did not
    complete even after two days" entries — and since those truncated
    runs are the expensive ones, {!run_with} can checkpoint them and
    resume later (the partition sequence is walked in slices by
    {!Slice_search.round}, exactly as in {!Partition_evaluate}). *)

type solver = Bb | Milp
(** Exact method used on every partition: the dedicated branch & bound
    ({!Soctam_ilp.Exact.solve_bb}, the default and the scalable one) or
    the paper's §3.2 ILP model ({!Soctam_ilp.Exact.solve_milp}) for
    cross-checking. A resume token is tagged with the method's registry
    name ([exhaustive] or [ilp]); resuming under the other one is
    rejected. *)

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  partitions_total : int;  (** unique partitions of the instance *)
  partitions_solved : int;  (** partitions solved to proven optimality *)
  nodes : int;  (** total branch & bound nodes *)
  outcome : Outcome.t;
      (** [Complete] iff every partition was solved to proven optimality
          within the budgets; otherwise the result is a best-effort
          incumbent and the carried checkpoint resumes the search *)
}

val run_with :
  ?solver:solver ->
  Run_config.t ->
  table:Time_table.t ->
  total_width:int ->
  tams:int ->
  result
(** [run_with cfg ~table ~total_width ~tams] enumerates every partition
    of [total_width] into [tams] parts and solves each exactly with
    [?solver] (default {!Bb}) under [cfg.node_limit] nodes per
    partition.

    [cfg.tau_import] warm-starts every B&B solve with the imported
    bound and excludes candidates that cannot strictly beat it; when
    nothing can, the result carries the imported time with {e empty}
    [widths]/[assignment] arrays — a completed run in that state proves
    no architecture of this instance beats the import. Only the racing
    portfolio sets this field. [cfg.slice_limit] stops the run
    (resumably, [Outcome.Budget_exhausted]) after that many slices.

    Policy read from [cfg]: [jobs] (capped at the host cores unless
    [oversubscribe]) solves each slice on a work-stealing team; without
    a budget the result is identical for every job count (the winner is
    the minimum by (time, rank)). [time_budget] is in elapsed seconds on
    the monotonic clock, read only after a solve, so even a zero budget
    returns a well-formed truncated incumbent with
    [Outcome.Budget_exhausted]; a solve that hits its node budget ends
    the run the same way, and either stop ends the whole slice.
    [cancel] is polled at slice boundaries ([Outcome.Interrupted]).
    Checkpoints go to [checkpoint_path] at every boundary (removed
    again on completion); a stop {e inside} a slice rewinds the resume
    token to the slice start, because which partitions beat the
    deadline is timing-dependent — the resumed run re-solves that slice
    and its counter totals match an uninterrupted run's. [resume]
    continues a checkpointed run of this instance and SOC name. [stats]
    records [exhaustive/partitions_total], [exhaustive/partitions_solved]
    and [exhaustive/nodes], [exhaustive/solve] spans and pool
    utilization; on resume the checkpointed counters are replayed first.

    @raise Invalid_argument when [total_width < tams] or a resume
    checkpoint does not match this run.
    @raise Failure when a checkpoint write to [checkpoint_path] fails. *)

val check_body :
  table:Time_table.t ->
  total_width:int ->
  tams:int ->
  Soctam_util.Json.t ->
  unit
(** Decode and validate a resume-token body tagged ["exhaustive"] or
    ["ilp"] and check its incumbent against the instance with
    {!Checkpoint.check_best} at [tams] TAMs, as {!run_with} would.
    @raise Invalid_argument on a body {!run_with} would reject. *)
