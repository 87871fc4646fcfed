(* p(n, k) satisfies p(n, k) = p(n-1, k-1) + p(n-k, k): either the smallest
   part is 1 (remove it) or all parts are >= 2 (subtract 1 from each). *)

(* The memo is shared across calls and, since the parallel evaluation
   layer, across domains; a single lock around each top-level query keeps
   the Hashtbl safe. The recursion runs lock-free underneath ([go] never
   takes the lock), so there is no reentrancy hazard, and queries are
   cheap enough (<= total * parts table entries) that contention is
   irrelevant — callers count once per TAM count, not per partition. *)
let table : (int * int, int) Hashtbl.t = Hashtbl.create 1024
let lock = Mutex.create ()

exception Overflow

(* Counts are non-negative, so a sum wrapped past [max_int] exactly
   when it came out below an operand. *)
let add a b =
  let v = a + b in
  if v < a then raise Overflow else v

let rec go ~total ~parts =
  if parts <= 0 || total < parts then (if total = 0 && parts = 0 then 1 else 0)
  else if parts = total || parts = 1 then 1
  else
    match Hashtbl.find_opt table (total, parts) with
    | Some v -> v
    | None ->
        let v =
          add
            (go ~total:(total - 1) ~parts:(parts - 1))
            (go ~total:(total - parts) ~parts)
        in
        Hashtbl.add table (total, parts) v;
        v

let exact_two n = if n < 2 then 0 else n / 2

(* Both summands of the recurrence are at most p(total, parts), so an
   overflow anywhere below the query means the query itself overflows.
   At most two parts the count needs no memo and so no lock: the
   odometer's block skip asks for p(n, 2) whenever it cuts the rest of
   an innermost run. *)
let exact ~total ~parts =
  if parts = 2 then exact_two total
  else if parts < 2 then go ~total ~parts
  else begin
    Mutex.lock lock;
    match
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () -> go ~total ~parts)
    with
    | v -> v
    | exception Overflow ->
        invalid_arg
          (Printf.sprintf
             "Count.exact: p(total = %d, parts = %d) exceeds max_int" total
             parts)
  end

let at_most ~total ~max_parts =
  let rec loop k acc =
    if k > max_parts then acc
    else
      match add acc (exact ~total ~parts:k) with
      | acc -> loop (k + 1) acc
      | exception Overflow ->
          invalid_arg
            (Printf.sprintf
               "Count.at_most: partitions of total = %d into at most %d \
                parts exceed max_int"
               total max_parts)
  in
  loop 1 0

let all n = at_most ~total:n ~max_parts:n

let estimate ~total ~parts =
  let open Soctam_util in
  float_of_int (Intutil.pow total (parts - 1))
  /. float_of_int (Intutil.factorial parts * Intutil.factorial (parts - 1))

let exact_three n =
  if n < 3 then 0 else int_of_float (Float.round (float_of_int (n * n) /. 12.))
