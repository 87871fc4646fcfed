type schedule = { assignment : int array; loads : int array; makespan : int }

let makespan_of ~loads =
  if Array.length loads = 0 then 0 else Soctam_util.Intutil.max_element loads

let lpt ~durations ~machines =
  if machines < 1 then invalid_arg "Makespan.lpt: machines must be >= 1";
  let jobs = Array.length durations in
  let order = Array.init jobs (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare durations.(b) durations.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let assignment = Array.make jobs 0 in
  let loads = Array.make machines 0 in
  Array.iter
    (fun job ->
      let m = Soctam_util.Select.min_index_by (fun x -> x) loads in
      assignment.(job) <- m;
      loads.(m) <- loads.(m) + durations.(job))
    order;
  { assignment; loads; makespan = makespan_of ~loads }

let loads_of_assignment ~durations ~assignment ~machines =
  let loads = Array.make machines 0 in
  Array.iteri
    (fun job m -> loads.(m) <- loads.(m) + durations job m)
    assignment;
  loads

let lower_bound_identical ~durations ~machines =
  let total = Soctam_util.Intutil.sum durations in
  let longest =
    if Array.length durations = 0 then 0
    else Soctam_util.Intutil.max_element durations
  in
  max longest (Soctam_util.Intutil.ceil_div total machines)

let lower_bound_unrelated ~duration ~jobs ~machines =
  let best_total = ref 0 in
  let best_single = ref 0 in
  for j = 0 to jobs - 1 do
    let best = ref max_int in
    for m = 0 to machines - 1 do
      let d = duration ~job:j ~machine:m in
      if d < !best then best := d
    done;
    best_total := !best_total + !best;
    if !best > !best_single then best_single := !best
  done;
  if jobs = 0 then 0
  else max !best_single (Soctam_util.Intutil.ceil_div !best_total machines)
