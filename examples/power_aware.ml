(* Power-constrained test scheduling: co-optimize the architecture,
   estimate per-core test power, then sweep the power budget and watch
   the makespan stretch as parallel tests must be serialized.

   Run with: dune exec examples/power_aware.exe *)

module Ps = Soctam_power.Power_schedule

let glyphs = "123456789abcdefghijklmnopqrstuvwxyz"

let print_gantt architecture (sched : Ps.t) =
  let items =
    List.map
      (fun (s : Ps.slot) ->
        {
          Soctam_report.Gantt.label =
            String.make 1 glyphs.[s.Ps.core mod String.length glyphs];
          lane = s.Ps.tam;
          start = s.Ps.start;
          finish = s.Ps.finish;
        })
      sched.Ps.slots
  in
  print_string
    (Soctam_report.Gantt.render
       ~lanes:(Array.length architecture.Soctam_tam.Architecture.widths)
       ~total:sched.Ps.makespan items)

let () =
  let soc = Soctam_soc_data.D695.soc in
  let result =
    Soctam_core.Co_optimize.run Soctam_core.Run_config.default
      ~table:(Soctam_core.Time_table.build soc ~max_width:32)
      ~total_width:32
  in
  let architecture = result.Soctam_core.Co_optimize.architecture in
  let power = Soctam_power.Power_model.estimate soc in
  let free = Ps.unconstrained architecture power in
  Format.printf "architecture: %a, unconstrained makespan %d, peak power %d@.@."
    Soctam_tam.Architecture.pp_partition
    architecture.Soctam_tam.Architecture.widths free.Ps.makespan
    free.Ps.peak_power;

  print_endline "budget sweep (percent of the unconstrained peak):";
  print_endline "  pct    budget   makespan   stretch   peak reached";
  List.iter
    (fun pct ->
      let budget =
        max
          (Soctam_power.Power_model.max_power power)
          (free.Ps.peak_power * pct / 100)
      in
      match Ps.constrained architecture power ~budget with
      | Error msg -> Printf.printf "  %3d%%  %s\n" pct msg
      | Ok sched ->
          (match Ps.validate sched architecture power with
          | Ok () -> ()
          | Error msg -> failwith ("invalid schedule: " ^ msg));
          Printf.printf "  %3d%%  %8d  %9d  %+7.1f%%  %12d\n" pct budget
            sched.Ps.makespan
            (100.
            *. float_of_int (sched.Ps.makespan - free.Ps.makespan)
            /. float_of_int free.Ps.makespan)
            sched.Ps.peak_power)
    [ 100; 80; 60; 40 ];

  print_newline ();
  print_endline "schedule at 60% of peak power:";
  let budget =
    max (Soctam_power.Power_model.max_power power) (free.Ps.peak_power * 60 / 100)
  in
  match Ps.constrained architecture power ~budget with
  | Ok sched -> print_gantt architecture sched
  | Error msg -> failwith msg
