type t = {
  soc : Soctam_model.Soc.t;
  max_width : int;
  times : int array array;  (* core -> width-1 -> time *)
  peak : int array;  (* width-1 -> max over cores of the time *)
  peak_core : int array;  (* width-1 -> the core holding [peak], -1 on a tie *)
  runner_up : int array;  (* width-1 -> max over every other core, 0 alone *)
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
  (* One pass per core keeps, per width, the largest time, its core and
     the largest time of every other core: a second core reaching the
     peak makes the peak tied (-1) and becomes its own runner-up. *)
  let peak = Array.make max_width 0 in
  let peak_core = Array.make max_width (-1) in
  let runner_up = Array.make max_width 0 in
  Array.iteri
    (fun i row ->
      for w = 0 to max_width - 1 do
        let x = row.(w) in
        if i = 0 || x > peak.(w) then begin
          if i > 0 then runner_up.(w) <- peak.(w);
          peak.(w) <- x;
          peak_core.(w) <- i
        end
        else begin
          if x = peak.(w) then peak_core.(w) <- -1;
          if x > runner_up.(w) then runner_up.(w) <- x
        end
      done)
    times;
  { soc; max_width; times; peak; peak_core; runner_up }

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

let peak_core t ~width =
  check_width "peak_core" t width;
  t.peak_core.(width - 1)

let runner_up t ~width =
  check_width "runner_up" t width;
  t.runner_up.(width - 1)

let matrix t ~widths =
  Array.init (core_count t) (fun core ->
      Array.map (fun width -> time t ~core ~width) widths)

let bottleneck_core t ~width =
  check_width "bottleneck_core" t width;
  Soctam_util.Select.argmax (Array.map (fun row -> row.(width - 1)) t.times)

let bottleneck_bound t ~width = peak t ~width
