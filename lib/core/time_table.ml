type t = {
  soc : Soctam_model.Soc.t;
  max_width : int;
  times : int array array;  (* core -> width-1 -> time *)
  peak : int array;  (* width-1 -> max over cores of the time *)
}

module Obs = Soctam_obs.Obs

let build ?(stats = Obs.null) soc ~max_width =
  if max_width < 1 then invalid_arg "Time_table.build: max_width must be >= 1";
  let times =
    Obs.span stats "time_table/build" (fun () ->
        Array.map
          (fun core -> Soctam_wrapper.Front.time_table ~stats core ~max_width)
          (Soctam_model.Soc.cores soc))
  in
  Obs.add stats ~n:(Array.length times * max_width) "time_table/entries";
  let peak =
    Array.init max_width (fun w ->
        Array.fold_left (fun acc row -> Int.max acc row.(w)) 0 times)
  in
  { soc; max_width; times; peak }

let core_count t = Array.length t.times
let max_width t = t.max_width
let soc t = t.soc
let rows t = t.times

let check_width name t width =
  if width < 1 || width > t.max_width then
    invalid_arg
      (Printf.sprintf "Time_table.%s: width %d outside 1..%d" name width
         t.max_width)

let time t ~core ~width =
  check_width "time" t width;
  t.times.(core).(width - 1)

let peak t ~width =
  check_width "peak" t width;
  t.peak.(width - 1)

let matrix t ~widths =
  Array.init (core_count t) (fun core ->
      Array.map (fun width -> time t ~core ~width) widths)

let bottleneck_core t ~width =
  Soctam_util.Select.max_index_by
    (fun row -> row.(width - 1))
    t.times

let bottleneck_bound t ~width = peak t ~width
