type entry = { architecture : string; time : int; detail : string }

let run ?(max_tams = 10) soc ~width =
  let table = Soctam_core.Time_table.build soc ~max_width:width in
  let mux = Multiplexing.design_from_table table ~width in
  let daisy = Daisychain.design_from_table table ~soc ~width in
  let bus =
    Soctam_core.Co_optimize.run
      Soctam_core.Run_config.(default |> with_max_tams max_tams)
      ~table ~total_width:width
  in
  let entries =
    [
      {
        architecture = "multiplexing";
        time = mux.Multiplexing.time;
        detail = Printf.sprintf "%d cores serialized at full width"
            (Array.length mux.Multiplexing.core_times);
      };
      {
        architecture = "daisychain";
        time = daisy.Daisychain.time;
        detail =
          Printf.sprintf "bypass penalty %d cycles"
            daisy.Daisychain.bypass_penalty;
      };
      {
        architecture = "test bus (this paper)";
        time = bus.Soctam_core.Co_optimize.final_time;
        detail =
          Format.asprintf "partition %a" Soctam_tam.Architecture.pp_partition
            bus.Soctam_core.Co_optimize.architecture
              .Soctam_tam.Architecture.widths;
      };
    ]
  in
  let entries =
    if width >= Soctam_model.Soc.core_count soc then begin
      let dist = Distribution.design_from_table table ~width in
      {
        architecture = "distribution";
        time = dist.Distribution.time;
        detail =
          Printf.sprintf "allocation %s"
            (Array.to_list dist.Distribution.allocation
            |> List.map string_of_int |> String.concat "+");
      }
      :: entries
    end
    else entries
  in
  List.sort (fun a b -> compare a.time b.time) entries
