let ceil_div a b =
  assert (a >= 0 && b > 0);
  (a + b - 1) / b

let sum a = Array.fold_left ( + ) 0 a
let sum_list l = List.fold_left ( + ) 0 l

let max_element a =
  if Array.length a = 0 then invalid_arg "Intutil.max_element: empty array";
  Array.fold_left Int.max a.(0) a

let min_element a =
  if Array.length a = 0 then invalid_arg "Intutil.min_element: empty array";
  Array.fold_left Int.min a.(0) a

let range lo hi =
  let rec loop i acc = if i < lo then acc else loop (i - 1) (i :: acc) in
  loop hi []

let pow b e =
  assert (e >= 0);
  let rec loop acc e = if e = 0 then acc else loop (acc * b) (e - 1) in
  loop 1 e

let factorial n =
  assert (n >= 0);
  let rec loop acc i = if i <= 1 then acc else loop (acc * i) (i - 1) in
  loop 1 n
