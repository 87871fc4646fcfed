type rect = { r_id : int; r_w : int; r_h : int }
type placed = { p_id : int; p_x : int; p_y : int; p_w : int; p_h : int }
type level = { l_y : int; l_h : int; l_slots : placed list }
type packing = { pk_width : int; pk_height : int; pk_levels : level list }
type order = Ffdh | Nfdh | Diagonal

let orders = [ Ffdh; Nfdh; Diagonal ]

let check_input ~width rects =
  if width < 1 then invalid_arg "Level_pack: width must be >= 1";
  List.iter
    (fun r ->
      if r.r_w < 1 then invalid_arg "Level_pack: rectangle width must be >= 1";
      if r.r_w > width then
        invalid_arg "Level_pack: rectangle wider than the strip";
      if r.r_h < 0 then invalid_arg "Level_pack: rectangle height must be >= 0")
    rects

(* Every sort key is a chain of integer comparisons ending at [r_id],
   so rectangles with identical shapes still order totally and the
   packers stay deterministic on any input. *)
let cmp_height a b =
  let c = Int.compare b.r_h a.r_h in
  if c <> 0 then c
  else
    let c = Int.compare b.r_w a.r_w in
    if c <> 0 then c else Int.compare a.r_id b.r_id

let cmp_diagonal a b =
  let da = (a.r_w * a.r_w) + (a.r_h * a.r_h)
  and db = (b.r_w * b.r_w) + (b.r_h * b.r_h) in
  let c = Int.compare db da in
  if c <> 0 then c else cmp_height a b

let sorted order rects =
  match order with
  | Ffdh | Nfdh -> List.sort cmp_height rects
  | Diagonal -> List.sort cmp_diagonal rects

(* Shelf under construction: x grows left to right, the height is the
   tallest rectangle so far (under diagonal order a later rectangle may
   out-grow the shelf's first occupant). The y floors are only knowable
   once every shelf is closed, so slots store x and the floor is added
   in [finalize]. *)
type shelf = {
  mutable s_used : int;
  mutable s_h : int;
  mutable s_rev : (int * int * int * int) list;  (* id, x, w, h *)
}

let place shelf r =
  shelf.s_rev <- (r.r_id, shelf.s_used, r.r_w, r.r_h) :: shelf.s_rev;
  shelf.s_used <- shelf.s_used + r.r_w;
  if r.r_h > shelf.s_h then shelf.s_h <- r.r_h

let finalize width shelves =
  let y = ref 0 in
  let levels =
    List.map
      (fun s ->
        let floor = !y in
        y := !y + s.s_h;
        {
          l_y = floor;
          l_h = s.s_h;
          l_slots =
            List.rev_map
              (fun (id, x, w, h) ->
                { p_id = id; p_x = x; p_y = floor; p_w = w; p_h = h })
              s.s_rev;
        })
      shelves
  in
  { pk_width = width; pk_height = !y; pk_levels = levels }

let pack order ~width rects =
  check_input ~width rects;
  let shelves_rev = ref [] in
  let open_shelf r =
    let s = { s_used = 0; s_h = 0; s_rev = [] } in
    place s r;
    shelves_rev := s :: !shelves_rev
  in
  List.iter
    (fun r ->
      match order with
      | Nfdh -> (
          (* Next-fit: only the latest shelf is still open. *)
          match !shelves_rev with
          | s :: _ when s.s_used + r.r_w <= width -> place s r
          | _ -> open_shelf r)
      | Ffdh | Diagonal -> (
          (* First-fit: the lowest shelf with room wins. *)
          let rec fit = function
            | [] -> open_shelf r
            | s :: rest ->
                if s.s_used + r.r_w <= width then place s r else fit rest
          in
          fit (List.rev !shelves_rev)))
    (sorted order rects);
  finalize width (List.rev !shelves_rev)

let slots packing = List.concat_map (fun l -> l.l_slots) packing.pk_levels

let lower_bound ~width rects =
  check_input ~width rects;
  let area = List.fold_left (fun acc r -> acc + (r.r_w * r.r_h)) 0 rects in
  let tallest = List.fold_left (fun acc r -> max acc r.r_h) 0 rects in
  max (Soctam_util.Intutil.ceil_div area width) tallest
