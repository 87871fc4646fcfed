module Tt = Soctam_core.Time_table
module Ca = Soctam_core.Core_assign

type result = {
  widths : int array;
  assignment : int array;
  time : int;
  moves_tried : int;
  moves_accepted : int;
}

type solution = { widths : int list; assignment : int array; time : int }

(* Evaluate a width multiset with Core_assign; None when it cannot beat
   [best] (the tau early exit doubles as move rejection). *)
let evaluate ~table ~best widths_list =
  let widths = Array.of_list widths_list in
  match Ca.run_table ~best ~table ~widths () with
  | Ca.Assigned { assignment; time; _ } ->
      if time < best then Some { widths = widths_list; assignment; time }
      else None
  | Ca.Exceeded _ -> None

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let replace_nth n v l = List.mapi (fun i x -> if i = n then v else x) l

let climb ?(max_tams = 10) ~table ~widths () =
  if Array.length widths = 0 then
    invalid_arg "Tr_architect.climb: empty seed partition";
  Array.iter
    (fun w ->
      if w < 1 then invalid_arg "Tr_architect.climb: seed widths must be >= 1")
    widths;
  if max_tams < 1 then invalid_arg "Tr_architect.climb: max_tams must be >= 1";
  if Tt.max_width table < Soctam_util.Intutil.sum widths then
    invalid_arg "Tr_architect.climb: table narrower than the seed's width";
  (* The climb never merges below one TAM, and a seed already past
     [max_tams] may still be improved in place — only splits are
     bounded, so widen the bound to the seed's TAM count. *)
  let max_tams = max max_tams (Array.length widths) in
  let moves_tried = ref 0 in
  let moves_accepted = ref 0 in
  (* The hill climb itself: repeatedly try to help the bottleneck TAM of
     [current] and recurse on the first improving move. *)
  let try_move current widths_list =
    incr moves_tried;
    evaluate ~table ~best:current.time widths_list
  in
  let rec improve current =
    let widths = Array.of_list current.widths in
    let tams = Array.length widths in
    (* Loads of the current assignment identify bottleneck and slack. *)
    let loads = Array.make tams 0 in
    Array.iteri
      (fun core tam ->
        loads.(tam) <-
          loads.(tam) + Tt.time table ~core ~width:widths.(tam))
      current.assignment;
    let bottleneck = Soctam_util.Select.argmax loads in
    (* Candidate moves, most promising first. *)
    let shift_wire ~donor ~receiver =
      if donor = receiver || widths.(donor) <= 1 then None
      else
        try_move current
          (current.widths
          |> replace_nth donor (widths.(donor) - 1)
          |> replace_nth receiver (widths.(receiver) + 1))
    in
    let donors =
      (* TAMs by increasing load: most slack first. *)
      List.init tams (fun j -> j)
      |> List.sort (fun a b -> compare loads.(a) loads.(b))
    in
    let receivers =
      (* The bottleneck first, then the rest by decreasing load. *)
      List.rev donors
    in
    let merge_two_lightest () =
      match donors with
      | a :: b :: _ when tams > 1 && a <> bottleneck && b <> bottleneck ->
          (* Fuse a and b; their combined width serves both core sets.
             Remove the higher index first so the lower stays valid. *)
          let merged = widths.(a) + widths.(b) in
          let hi = max a b and lo = min a b in
          try_move current
            (current.widths |> remove_nth hi |> replace_nth lo merged)
      | _ -> None
    in
    let split_bottleneck () =
      (* Give the bottleneck its own narrow helper TAM if room remains. *)
      if tams >= max_tams || widths.(bottleneck) <= 1 then None
      else
        try_move current
          (replace_nth bottleneck (widths.(bottleneck) - 1) current.widths
          @ [ 1 ])
    in
    let first_some candidates =
      List.fold_left
        (fun acc cand -> match acc with Some _ -> acc | None -> cand ())
        None candidates
    in
    let next =
      first_some
        (List.concat_map
           (fun receiver ->
             List.map (fun donor () -> shift_wire ~donor ~receiver) donors)
           receivers
        @ [ merge_two_lightest; split_bottleneck ])
    in
    match next with
    | Some improved ->
        incr moves_accepted;
        improve improved
    | None -> current
  in
  let seed =
    match Ca.run_table ~table ~widths () with
    | Ca.Assigned { assignment; time; _ } ->
        { widths = Array.to_list widths; assignment; time }
    | Ca.Exceeded _ -> assert false
  in
  let final = improve seed in
  {
    widths = Array.of_list final.widths;
    assignment = final.assignment;
    time = final.time;
    moves_tried = !moves_tried;
    moves_accepted = !moves_accepted;
  }
