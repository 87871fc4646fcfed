(* Working with .soc files: describe your own SOC programmatically, save
   it, reload it, and co-optimize its test access architecture.

   Run with: dune exec examples/soc_files.exe *)

let my_soc =
  let core = Soctam_model.Core_data.make in
  Soctam_model.Soc.make ~name:"minisoc"
    ~cores:
      [
        (* A DSP-like scan core. *)
        core ~id:1 ~name:"dsp" ~inputs:48 ~outputs:64
          ~scan_chains:[ 120; 120; 118; 115 ] ~patterns:220 ();
        (* A small control block. *)
        core ~id:2 ~name:"ctrl" ~inputs:30 ~outputs:18 ~scan_chains:[ 64; 60 ]
          ~patterns:90 ();
        (* Two memories: no internal scan, tested through the wrapper. *)
        core ~id:3 ~name:"sram0" ~inputs:40 ~outputs:32 ~patterns:2048 ();
        core ~id:4 ~name:"sram1" ~inputs:40 ~outputs:32 ~patterns:1024 ();
        (* An interface block with bidirectional pads. *)
        core ~id:5 ~name:"phy" ~inputs:22 ~outputs:25 ~bidirs:16
          ~scan_chains:[ 96 ] ~patterns:310 ();
      ]

let () =
  let path = Filename.temp_file "minisoc" ".soc" in
  (match Soctam_soc_data.Soc_format.save path my_soc with
  | Ok () -> Format.printf "saved to %s:@.@." path
  | Error msg -> failwith msg);
  print_string (Soctam_soc_data.Soc_format.to_string my_soc);
  print_newline ();
  let reloaded =
    match Soctam_soc_data.Soc_format.load path with
    | Ok soc -> soc
    | Error msg -> failwith msg
  in
  assert (
    Array.for_all2 Soctam_model.Core_data.equal
      (Soctam_model.Soc.cores my_soc)
      (Soctam_model.Soc.cores reloaded));
  Format.printf "reloaded %a@.@." Soctam_model.Soc.pp_summary reloaded;
  let result =
    Soctam_core.Co_optimize.run Soctam_core.Run_config.default
      ~table:(Soctam_core.Time_table.build reloaded ~max_width:24)
      ~total_width:24
  in
  Format.printf "%a@." Soctam_tam.Architecture.pp
    result.Soctam_core.Co_optimize.architecture;
  Sys.remove path
