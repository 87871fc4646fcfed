type t = { allocation : int array; core_times : int array; time : int }

(* times.(i).(w-1) = core i's time at width w, non-increasing in w. *)
let optimize ~times ~width =
  let cores = Array.length times in
  if width < cores then
    invalid_arg "Distribution: width must be at least the number of cores";
  let max_w = Array.length times.(0) in
  (* Narrowest width at which core i finishes within [target]. *)
  let minwidth i target =
    if times.(i).(max_w - 1) > target then None
    else begin
      let rec search lo hi =
        (* invariant: times.(i).(hi-1) <= target < times.(i).(lo-1) or lo=1 *)
        if lo >= hi then hi
        else begin
          let mid = (lo + hi) / 2 in
          if times.(i).(mid - 1) <= target then search lo mid
          else search (mid + 1) hi
        end
      in
      Some (search 1 max_w)
    end
  in
  let feasible target =
    let rec loop i used =
      if i = cores then Some used
      else
        match minwidth i target with
        | None -> None
        | Some w ->
            let used = used + w in
            if used > width then None else loop (i + 1) used
    in
    loop 0 0 <> None
  in
  (* Candidate times: every value a core can take; binary search the
     smallest feasible one. *)
  let candidates =
    Array.to_list times
    |> List.concat_map Array.to_list
    |> List.sort_uniq compare |> Array.of_list
  in
  let rec bisect lo hi =
    (* candidates.(hi) feasible; candidates.(lo-1) infeasible (or lo=0) *)
    if lo >= hi then hi
    else begin
      let mid = (lo + hi) / 2 in
      if feasible candidates.(mid) then bisect lo mid else bisect (mid + 1) hi
    end
  in
  if Array.length candidates = 0 || not (feasible candidates.(Array.length candidates - 1))
  then invalid_arg "Distribution: no feasible allocation (width too small)";
  let best = candidates.(bisect 0 (Array.length candidates - 1)) in
  let allocation =
    Array.init cores (fun i ->
        match minwidth i best with
        | Some w -> w
        | None -> assert false)
  in
  (* Spread any leftover wires over the slowest cores (cannot hurt). *)
  let leftover = ref (width - Soctam_util.Intutil.sum allocation) in
  while !leftover > 0 do
    let i =
      Soctam_util.Select.argmax
        (Array.init cores (fun i -> times.(i).(min max_w allocation.(i) - 1)))
    in
    if allocation.(i) < max_w then allocation.(i) <- allocation.(i) + 1;
    decr leftover
  done;
  let core_times = Array.init cores (fun i -> times.(i).(allocation.(i) - 1)) in
  {
    allocation;
    core_times;
    time = Soctam_util.Intutil.max_element core_times;
  }

let design soc ~width =
  let times =
    Array.map
      (fun core -> Soctam_wrapper.Design.time_table core ~max_width:width)
      (Soctam_model.Soc.cores soc)
  in
  optimize ~times ~width

let design_from_table table ~width =
  let times =
    Array.init (Soctam_core.Time_table.core_count table) (fun core ->
        Array.init width (fun w ->
            Soctam_core.Time_table.time table ~core ~width:(w + 1)))
  in
  optimize ~times ~width
