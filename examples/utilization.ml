(* Where do the TAM wire-cycles actually go? Simulate the full d695 test
   session phase by phase and break idle capacity into its causes: TAMs
   finishing early (what the partition optimizer fights), wrapper chains
   shorter than their shift phase, and wires the wrapper never used.

   Run with: dune exec examples/utilization.exe *)

let pct part whole = 100. *. float_of_int part /. float_of_int (max 1 whole)

let () =
  let soc = Soctam_soc_data.D695.soc in
  List.iter
    (fun width ->
      let r =
        Soctam_core.Co_optimize.run Soctam_core.Run_config.default
          ~table:(Soctam_core.Time_table.build soc ~max_width:width)
          ~total_width:width
      in
      let arch = r.Soctam_core.Co_optimize.architecture in
      let sim = Soctam_sim.Soc_sim.run soc arch in
      Format.printf "@.W = %d: partition %a, %d cycles (simulated: %d)@."
        width Soctam_tam.Architecture.pp_partition
        arch.Soctam_tam.Architecture.widths arch.Soctam_tam.Architecture.time
        sim.Soctam_sim.Soc_sim.soc_cycles;
      assert (
        sim.Soctam_sim.Soc_sim.soc_cycles = arch.Soctam_tam.Architecture.time);
      let total = sim.Soctam_sim.Soc_sim.total_wire_cycles in
      let tail = ref 0 and unused = ref 0 and intra = ref 0 in
      Array.iter
        (fun t ->
          tail := !tail + t.Soctam_sim.Soc_sim.tail_idle_wire_cycles;
          unused := !unused + t.Soctam_sim.Soc_sim.unused_width_wire_cycles;
          intra := !intra + t.Soctam_sim.Soc_sim.intra_core_idle_in)
        sim.Soctam_sim.Soc_sim.per_tam;
      Printf.printf
        "  input-side wire budget: %d wire-cycles\n\
        \    stimulus data     %5.1f%%\n\
        \    tail idle         %5.1f%%  (TAM done before the slowest)\n\
        \    unused wires      %5.1f%%  (wrapper used fewer chains)\n\
        \    intra-core idle   %5.1f%%  (short chains, capture cycles)\n"
        total
        (100. *. sim.Soctam_sim.Soc_sim.utilization_in)
        (pct !tail total) (pct !unused total) (pct !intra total))
    [ 16; 32; 64 ]
