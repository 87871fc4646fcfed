(* Quickstart: co-optimize the test access architecture of the d695
   benchmark SOC for a 32-bit TAM budget.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let soc = Soctam_soc_data.D695.soc in
  Format.printf "%a@.@." Soctam_model.Soc.pp_summary soc;

  (* P_W for every core at widths 1..32: the wrapper designs' times. *)
  let table = Soctam_core.Time_table.build soc ~max_width:32 in
  (* P_NPAW: pick the number of TAMs, the width partition and the core
     assignment, minimizing the SOC testing time. *)
  let result =
    Soctam_core.Co_optimize.run Soctam_core.Run_config.default ~table
      ~total_width:32
  in
  let architecture = result.Soctam_core.Co_optimize.architecture in
  Format.printf "%a@." Soctam_tam.Architecture.pp architecture;

  Format.printf
    "heuristic found %d cycles; the final exact step settled on %d cycles%s@."
    result.Soctam_core.Co_optimize.heuristic_time
    result.Soctam_core.Co_optimize.final_time
    (if result.Soctam_core.Co_optimize.final_proven_optimal then
       " (optimal for this partition)"
     else "");

  (* Each core's wrapper can be inspected individually. *)
  let tam_of_core_4 =
    architecture.Soctam_tam.Architecture.assignment.(3)
  in
  let width = architecture.Soctam_tam.Architecture.widths.(tam_of_core_4) in
  let wrapper =
    Soctam_wrapper.Design.design (Soctam_model.Soc.core soc 3) ~width
  in
  Format.printf "@.core 4 sits on TAM %d; its wrapper: %a@."
    (tam_of_core_4 + 1) Soctam_wrapper.Design.pp wrapper
