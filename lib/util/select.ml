(* Monomorphic on purpose: at [int array] the reads are plain loads and
   [<] / [>] compile to an inline compare; an ['a array] read checks the
   float-array tag and a generic comparison is a C call, per element. *)
let argmin (a : int array) =
  if Array.length a = 0 then invalid_arg "Select: empty array";
  let best = ref 0 and best_v = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let v = a.(i) in
    if v < !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let argmax (a : int array) =
  if Array.length a = 0 then invalid_arg "Select: empty array";
  let best = ref 0 and best_v = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let v = a.(i) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let filter_indices p a =
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    if p i a.(i) then acc := i :: !acc
  done;
  !acc
