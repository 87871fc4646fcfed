(* Aggregated alcotest runner for the whole project. *)

let () =
  Alcotest.run "soctam"
    [
      ("util", Test_util.suite);
      ("model", Test_model.suite);
      ("partition", Test_partition.suite);
      ("schedule", Test_schedule.suite);
      ("wrapper", Test_wrapper.suite);
      ("tam", Test_tam.suite);
      ("lp", Test_lp.suite);
      ("ilp", Test_ilp.suite);
      ("core", Test_core.suite);
      ("soc_data", Test_soc_data.suite);
      ("baselines", Test_baselines.suite);
      ("power", Test_power.suite);
      ("anneal", Test_anneal.suite);
      ("sim", Test_sim.suite);
      ("architect", Test_architect.suite);
      ("pack", Test_pack.suite);
      ("regression", Test_regression.suite);
      ("report", Test_report.suite);
      ("check", Test_check.suite);
      ("analysis", Test_analysis.suite);
      ("obs", Test_obs.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("race", Test_race.suite);
      ("cli", Test_cli.suite);
    ]
