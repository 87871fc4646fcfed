(** The paper's end-to-end wrapper/TAM co-optimization methodology:

    + build the per-core time table (wrapper designs, P_W);
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
      (** the exact step finished within its node budget, so [final_time]
          is optimal for the chosen partition *)
  partition_stats : Partition_evaluate.b_stats array;
  exact_nodes : int;  (** nodes used by the final exact step *)
  outcome : Outcome.t;
      (** how the partition search ended; a truncated search still
          yields a usable (exactly polished) architecture, and the
          carried checkpoint resumes the search stage *)
}

val finish :
  ?stats:Soctam_obs.Obs.t ->
  table:Time_table.t ->
  node_limit:int ->
  Partition_evaluate.result ->
  t
(** The final exact step alone: polish a partition search's incumbent
    with one warm-started B&B on its chosen partition. Exposed so the
    engine adapters ({!Engine.pe}, the racer's winner polish) can run
    the paper's pipeline without re-deriving the time table. *)

val run_with : Run_config.t -> Soctam_model.Soc.t -> total_width:int -> t
(** [run_with cfg soc ~total_width] runs the whole pipeline under one
    configuration: P_NPAW up to [cfg.max_tams], or P_PAW when
    [cfg.tams] is set. [cfg.table] is reused when present (it must
    cover [total_width]); otherwise the table is built here.
    [cfg.node_limit] bounds the final exact step. Budgets,
    checkpointing, resume and cancellation apply to the partition
    search stage exactly as in {!Partition_evaluate.run_with}; the
    final exact step always runs on the search's incumbent, so a
    truncated run still returns a well-formed architecture.

    @raise Invalid_argument when the supplied table is narrower than
    [total_width], or for the {!Partition_evaluate.run_with} cases. *)
