module Obs = Soctam_obs.Obs

type t = {
  architecture : Soctam_tam.Architecture.t;
  heuristic_time : int;
  final_time : int;
  final_proven_optimal : bool;
  outcome : Outcome.t;
}

let architecture table ~widths ~assignment =
  Soctam_tam.Architecture.of_times
    ~times:(fun ~core ~width -> Time_table.time table ~core ~width)
    ~cores:(Time_table.core_count table)
    ~widths ~assignment

let finish ?(stats = Obs.null) ~table ~node_limit
    (pe : Partition_evaluate.result) =
  let widths = pe.Partition_evaluate.widths in
  let times = Time_table.matrix table ~widths in
  let exact =
    Obs.span stats "co_optimize/exact_step" (fun () ->
        Soctam_ilp.Exact.solve_bb ~node_limit
          ~initial:
            (pe.Partition_evaluate.assignment, pe.Partition_evaluate.time)
          ~widths ~times ())
  in
  Obs.add stats ~n:exact.Soctam_ilp.Exact.nodes "co_optimize/exact_nodes";
  {
    architecture =
      architecture table ~widths
        ~assignment:exact.Soctam_ilp.Exact.assignment;
    heuristic_time = pe.Partition_evaluate.time;
    final_time = exact.Soctam_ilp.Exact.time;
    final_proven_optimal = exact.Soctam_ilp.Exact.optimal;
    outcome = pe.Partition_evaluate.outcome;
  }

let run (cfg : Run_config.t) ~table ~total_width =
  let pe = Partition_evaluate.run_with cfg ~table ~total_width in
  if Outcome.is_complete pe.Partition_evaluate.outcome then
    finish ~stats:cfg.Run_config.stats ~table
      ~node_limit:cfg.Run_config.node_limit pe
  else
    (* A truncated search will be resumed (or dropped): polishing an
       incumbent the next slice may replace is wasted B&B work. *)
    {
      architecture =
        architecture table ~widths:pe.Partition_evaluate.widths
          ~assignment:pe.Partition_evaluate.assignment;
      heuristic_time = pe.Partition_evaluate.time;
      final_time = pe.Partition_evaluate.time;
      final_proven_optimal = false;
      outcome = pe.Partition_evaluate.outcome;
    }
