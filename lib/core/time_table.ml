type t = {
  soc : Soctam_model.Soc.t;
  max_width : int;
  times : int array array;  (* core -> width-1 -> time *)
  order : int array array;  (* width-1 -> cores by descending time *)
  peak : int array;  (* width-1 -> max over cores of the time *)
  peak_core : int array;  (* width-1 -> the core holding [peak], -1 on a tie *)
  runner_up : int array;  (* width-1 -> max over every other core, 0 alone *)
}

module Obs = Soctam_obs.Obs

(* [c] goes before [d] at width [w]: a longer time, or an equal time and
   a lower index. *)
let precedes (times : int array array) w c d =
  let tc = times.(c).(w) and td = times.(d).(w) in
  tc > td || (tc = td && c < d)

(* Each width's cores by descending time, ties by ascending index. The
   first width is sorted outright; every later one by insertion from the
   width before it. The rows are running minima over chain counts, so
   the order barely changes from one width to the next and each
   insertion pass is close to linear. *)
let sort_orders times ~max_width =
  let first = Array.init (Array.length times) Fun.id in
  Array.sort
    (fun c d -> if precedes times 0 c d then -1 else if c = d then 0 else 1)
    first;
  let order = Array.make max_width first in
  for w = 1 to max_width - 1 do
    let o = Array.copy order.(w - 1) in
    for p = 1 to Array.length o - 1 do
      let c = o.(p) in
      let q = ref p in
      while !q > 0 && precedes times w c o.(!q - 1) do
        o.(!q) <- o.(!q - 1);
        decr q
      done;
      o.(!q) <- c
    done;
    order.(w) <- o
  done;
  order

let build ?(stats = Obs.null) soc ~max_width =
  if max_width < 1 then invalid_arg "Time_table.build: max_width must be >= 1";
  let times =
    Obs.span stats "time_table/build" (fun () ->
        Array.map
          (fun core -> Soctam_wrapper.Front.time_table ~stats core ~max_width)
          (Soctam_model.Soc.cores soc))
  in
  Obs.add stats ~n:(Array.length times * max_width) "time_table/entries";
  let order = sort_orders times ~max_width in
  (* The peak is the first core of each order and the runner-up the
     second: equal times there mean the peak is tied (-1). *)
  let cores = Array.length times in
  let first w = times.(order.(w).(0)).(w) in
  let second w = if cores > 1 then times.(order.(w).(1)).(w) else 0 in
  let peak = Array.init max_width first in
  let runner_up = Array.init max_width second in
  let peak_core =
    Array.init max_width (fun w ->
        if cores > 1 && runner_up.(w) = peak.(w) then -1 else order.(w).(0))
  in
  { soc; max_width; times; order; peak; peak_core; runner_up }

let core_count t = Array.length t.times
let max_width t = t.max_width
let soc t = t.soc
let rows t = t.times
let orders t = t.order

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
  t.order.(width - 1).(0)

let bottleneck_bound t ~width = peak t ~width
