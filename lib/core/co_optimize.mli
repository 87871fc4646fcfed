(** The paper's end-to-end wrapper/TAM co-optimization methodology on a
    caller-built per-core time table (wrapper designs, P_W):

    + run {!Partition_evaluate} to pick the TAM count and width partition
      (P_PAW / P_NPAW, heuristic);
    + run one exact P_AW optimization on the winning partition (the
      paper's "final optimization step", §3.2).

    The result is a near-optimal test access architecture obtained in a
    small fraction of the exhaustive method's CPU time. *)

type t = {
  architecture : Soctam_tam.Architecture.t;  (** final architecture *)
  heuristic_time : int;  (** SOC time before the final exact step *)
  final_time : int;  (** SOC time after it (= [architecture.time]) *)
  final_proven_optimal : bool;
      (** the exact step ran and finished within its node budget, so
          [final_time] is optimal for the chosen partition *)
  outcome : Outcome.t;
      (** how the partition search ended; a truncated outcome carries
          the checkpoint that resumes it *)
}

val finish :
  ?stats:Soctam_obs.Obs.t ->
  table:Time_table.t ->
  node_limit:int ->
  Partition_evaluate.result ->
  t
(** The final exact step alone: polish a partition search's incumbent
    with one warm-started B&B on its chosen partition. Exposed so a
    caller holding a search result (the benchmark harness, which times
    the step apart from the search) can run it alone. *)

val run : Run_config.t -> table:Time_table.t -> total_width:int -> t
(** [run cfg ~table ~total_width] runs the whole pipeline under one
    configuration: {!Partition_evaluate.run_with} (P_NPAW up to
    [cfg.max_tams], or P_PAW when [cfg.tams] is set), then {!finish}
    with [cfg.node_limit] — but only when the search ran to
    [Outcome.Complete]. A truncated search reports its raw incumbent
    ([final_time = heuristic_time], not proven) with the resume token
    in [outcome], so a resumed slice never pays a B&B polish it may
    immediately discard.

    @raise Invalid_argument for the {!Partition_evaluate.run_with}
    cases, a table narrower than [total_width] among them. *)
