let fold ~total ~parts ~init ~f =
  if parts < 1 || total < parts then init
  else begin
    let widths = Array.make parts 0 in
    (* Position j chooses w_j >= w_(j-1) with enough left for the remaining
       parts; the last part takes the remainder. *)
    let rec go j minimum remaining acc =
      if j = parts - 1 then begin
        widths.(j) <- remaining;
        f acc widths
      end
      else begin
        let upper = remaining / (parts - j) in
        let rec widths_loop w acc =
          if w > upper then acc
          else begin
            widths.(j) <- w;
            let acc = go (j + 1) w (remaining - w) acc in
            widths_loop (w + 1) acc
          end
        in
        widths_loop minimum acc
      end
    in
    go 0 1 total init
  end

let iter ~total ~parts f = fold ~total ~parts ~init:() ~f:(fun () w -> f w)

let to_list ~total ~parts =
  fold ~total ~parts ~init:[] ~f:(fun acc w -> Array.copy w :: acc)
  |> List.rev

module Compositions = struct
  type stats = { compositions : int; unique : int; memory_entries : int }

  let fold ~total ~parts ~init ~f =
    if parts < 1 || total < parts then
      (init, { compositions = 0; unique = 0; memory_entries = 0 })
    else begin
      let seen = Hashtbl.create 1024 in
      let compositions = ref 0 in
      let unique = ref 0 in
      let widths = Array.make parts 0 in
      let rec go j remaining acc =
        if j = parts - 1 then begin
          widths.(j) <- remaining;
          incr compositions;
          let canonical = Array.copy widths in
          Array.sort Int.compare canonical;
          let key = Array.to_list canonical in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            incr unique;
            f acc canonical
          end
        end
        else begin
          (* Every position ranges over its full 1..remaining-(rest) span:
             no bound, hence the duplicates. *)
          let upper = remaining - (parts - 1 - j) in
          let rec widths_loop w acc =
            if w > upper then acc
            else begin
              widths.(j) <- w;
              let acc = go (j + 1) (remaining - w) acc in
              widths_loop (w + 1) acc
            end
          in
          widths_loop 1 acc
        end
      in
      let acc = go 0 total init in
      ( acc,
        {
          compositions = !compositions;
          unique = !unique;
          memory_entries = Hashtbl.length seen;
        } )
    end

  let count ~total ~parts =
    snd (fold ~total ~parts ~init:() ~f:(fun () _ -> ()))
end

(* Partitions of [total] into [parts] parts, each >= [min_part]: subtract
   [min_part - 1] from every part and count ordinary partitions. *)
let count_with_min ~total ~parts ~min_part =
  Count.exact ~total:(total - (parts * (min_part - 1))) ~parts

(* Walk the enumeration tree of [fold]: position [j] tries each
   candidate w >= w_(j-1) in increasing order, and each candidate covers
   a contiguous block of [count_with_min] ranks; descend into the block
   containing [rank]. O(parts * total) counting queries. Module-level
   (not closures over [widths]) so [unrank_into] is allocation-free. *)
let rec unrank_fill widths parts j min_part remaining rank =
  if j = parts - 1 then widths.(j) <- remaining
  else unrank_choose widths parts j remaining min_part rank
[@@soctam.hot]

and unrank_choose widths parts j remaining w rank =
  let block =
    count_with_min ~total:(remaining - w) ~parts:(parts - j - 1) ~min_part:w
  in
  if rank < block then begin
    widths.(j) <- w;
    unrank_fill widths parts (j + 1) w (remaining - w) rank
  end
  else unrank_choose widths parts j remaining (w + 1) (rank - block)
[@@soctam.hot]

let unrank_into ~total ~parts ~rank widths =
  if Array.length widths < parts then
    invalid_arg "Enumerate.unrank_into: widths shorter than parts";
  if parts < 1 || total < parts || rank < 0 then false
  else if rank >= Count.exact ~total ~parts then false
  else begin
    unrank_fill widths parts 0 1 total rank;
    true
  end
[@@soctam.hot]

let unrank ~total ~parts ~rank =
  if parts < 1 || total < parts || rank < 0 then None
  else begin
    let widths = Array.make parts 0 in
    if unrank_into ~total ~parts ~rank widths then Some widths else None
  end

module Odometer = struct
  type t = { total : int; parts : int; widths : int array }

  let create ~total ~parts =
    if parts < 1 || total < parts then None
    else begin
      let widths = Array.make parts 1 in
      widths.(parts - 1) <- total - parts + 1;
      Some { total; parts; widths }
    end

  let create_at ~total ~parts ~rank =
    Option.map
      (fun widths -> { total; parts; widths })
      (unrank ~total ~parts ~rank)

  let current t = t.widths

  (* Allocation-free re-aim: a worker that receives a non-contiguous
     chunk (a steal) re-points its existing odometer instead of
     allocating a fresh one per chunk. [unrank_into] leaves the widths
     untouched on failure, so a [false] return keeps the odometer
     valid at its previous position. *)
  let reposition t ~rank =
    unrank_into ~total:t.total ~parts:t.parts ~rank t.widths

  (* Sum of widths.(0 .. j-1): the prefix already fixed below position
     [j]. Accumulator recursion rather than a [ref] so the hot
     [advance] path never allocates. *)
  let rec prefix_sum widths j i acc =
    if i >= j then acc else prefix_sum widths j (i + 1) (acc + widths.(i))
  [@@soctam.hot]

  (* Paper Figure 3, procedure Increment: find the rightmost loop variable
     w_j (j < parts) that can still grow under the bound
     floor((total - prefix) / (parts - j)), grow it, reset every later
     loop variable to the new w_j, and give the remainder to w_B. *)
  let rec try_position t j =
    if j < 0 then false
    else begin
      let prefix = prefix_sum t.widths j 0 0 in
      let bound = (t.total - prefix) / (t.parts - j) in
      if t.widths.(j) < bound then begin
        let w = t.widths.(j) + 1 in
        for i = j to t.parts - 2 do
          t.widths.(i) <- w
        done;
        t.widths.(t.parts - 1) <- t.total - prefix - (w * (t.parts - 1 - j));
        true
      end
      else try_position t (j - 1)
    end
  [@@soctam.hot]

  let advance t =
    if t.parts = 1 then false else try_position t (t.parts - 2)
  [@@soctam.hot]

  (* The trailing block starts at the smallest [j] with
     w_j = ... = w_(B-1) (loop variables only; w_B is derived). *)
  let rec block_start (widths : int array) j =
    if j > 0 && widths.(j - 1) = widths.(j) then block_start widths (j - 1)
    else j
  [@@soctam.hot]

  (* With the prefix below [j] fixed and w_j = ... = w_(B-1) = w, the
     current partition is the first of the partitions of
     [R = total - prefix] into [B - j] parts of size >= w: the rest of
     the prefix's subtree in lexicographic order, ending at the
     balanced split of [R]. [unrank_fill] finds the [limit]-th of them
     when the block is longer than [limit]. *)
  let skip_block t ~limit =
    if t.parts = 1 || limit <= 0 then 0
    else begin
      let j = block_start t.widths (t.parts - 2) in
      let w = t.widths.(j) in
      let r = t.total - prefix_sum t.widths j 0 0 in
      let k = t.parts - j in
      let left = count_with_min ~total:r ~parts:k ~min_part:w - 1 in
      if left <= limit then begin
        let q = r / k and wider = t.parts - (r mod k) in
        for i = j to t.parts - 1 do
          t.widths.(i) <- (if i < wider then q else q + 1)
        done;
        left
      end
      else begin
        unrank_fill t.widths t.parts j w r limit;
        limit
      end
    end
  [@@soctam.hot]
end
