module Tt = Soctam_core.Time_table

type t = {
  rows : int array array;
  steps : int array array;
  base : int array;
}

(* Rows are monotone non-increasing, so the narrowest width reaching
   [T_i(c)] is [c] itself when the time dropped at [c], and otherwise
   the previous cap's step. A cap whose times all equal the previous
   cap's has that cap's rectangles, and so its base. *)
let make table =
  let rows = Tt.rows table in
  let width = Tt.max_width table in
  let steps =
    Array.map
      (fun (row : int array) ->
        let s = Array.make width 1 in
        for c = 2 to width do
          s.(c - 1) <- (if row.(c - 1) = row.(c - 2) then s.(c - 2) else c)
        done;
        s)
      rows
  in
  let base = Array.make width 1 in
  for c = 2 to width do
    let same =
      Array.for_all (fun (s : int array) -> s.(c - 1) = s.(c - 2)) steps
    in
    base.(c - 1) <- (if same then base.(c - 2) else c)
  done;
  { rows; steps; base }

let check t ~cap =
  if cap < 1 then invalid_arg "Rect_build: cap must be >= 1";
  if Array.length t.base < cap then
    invalid_arg "Rect_build: time table narrower than the cap"

let rects t ~cap =
  check t ~cap;
  List.init (Array.length t.rows) (fun i ->
      {
        Level_pack.r_id = i;
        r_w = t.steps.(i).(cap - 1);
        r_h = t.rows.(i).(cap - 1);
      })

let base_cap t ~cap =
  check t ~cap;
  t.base.(cap - 1)
