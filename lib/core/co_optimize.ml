module Obs = Soctam_obs.Obs

type t = {
  architecture : Soctam_tam.Architecture.t;
  heuristic_time : int;
  final_time : int;
  final_proven_optimal : bool;
  partition_stats : Partition_evaluate.b_stats array;
  exact_nodes : int;
  outcome : Outcome.t;
}

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
  let architecture =
    Soctam_tam.Architecture.of_times
      ~times:(fun ~core ~width -> Time_table.time table ~core ~width)
      ~cores:(Time_table.core_count table)
      ~widths
      ~assignment:exact.Soctam_ilp.Exact.assignment
  in
  {
    architecture;
    heuristic_time = pe.Partition_evaluate.time;
    final_time = exact.Soctam_ilp.Exact.time;
    final_proven_optimal = exact.Soctam_ilp.Exact.optimal;
    partition_stats = pe.Partition_evaluate.per_b;
    exact_nodes = exact.Soctam_ilp.Exact.nodes;
    outcome = pe.Partition_evaluate.outcome;
  }

let table_for ?(stats = Obs.null) ?table soc ~total_width =
  match table with
  | Some t ->
      if Time_table.max_width t < total_width then
        invalid_arg "Co_optimize: supplied table narrower than total width";
      t
  | None -> Time_table.build ~stats soc ~max_width:total_width

let run_with (cfg : Run_config.t) soc ~total_width =
  let stats = cfg.Run_config.stats in
  let table =
    table_for ~stats ?table:cfg.Run_config.table soc ~total_width
  in
  let pe =
    Obs.span stats "co_optimize/partition_evaluate" (fun () ->
        Partition_evaluate.run_with cfg ~table ~total_width)
  in
  finish ~stats ~table ~node_limit:cfg.Run_config.node_limit pe
