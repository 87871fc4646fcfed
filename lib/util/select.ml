let best_index better a =
  if Array.length a = 0 then invalid_arg "Select: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if better a.(i) a.(!best) then best := i
  done;
  !best

let min_index compare a = best_index (fun x y -> compare x y < 0) a
let max_index compare a = best_index (fun x y -> compare x y > 0) a

(* The keys are typed [int] so [<] / [>] compile to an inline compare:
   at a type variable each would be a C call into the polymorphic
   compare, once per element. *)
let min_index_by (key : 'a -> int) a =
  if Array.length a = 0 then invalid_arg "Select: empty array";
  let best = ref 0 and best_key = ref (key a.(0)) in
  for i = 1 to Array.length a - 1 do
    let k = key a.(i) in
    if k < !best_key then begin
      best := i;
      best_key := k
    end
  done;
  !best

let max_index_by (key : 'a -> int) a =
  if Array.length a = 0 then invalid_arg "Select: empty array";
  let best = ref 0 and best_key = ref (key a.(0)) in
  for i = 1 to Array.length a - 1 do
    let k = key a.(i) in
    if k > !best_key then begin
      best := i;
      best_key := k
    end
  done;
  !best

let filter_indices p a =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if p i a.(i) then acc := i :: !acc
  done;
  !acc
