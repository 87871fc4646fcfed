type outcome =
  | Assigned of { assignment : int array; tam_times : int array; time : int }
  | Exceeded of int

(* Plain mutable fields, no synchronization: each caller owns its record
   (one per evaluation chunk) and flushes it into an [Obs] collector at
   chunk granularity, so the per-partition hot loop pays only an option
   branch and two or three integer stores. *)
type stats = {
  mutable tried : int;
  mutable early_terminations : int;
  mutable levels_cut : int;
}

let stats () = { tried = 0; early_terminations = 0; levels_cut = 0 }

let record stats ~cores ~assigned ~exceeded =
  match stats with
  | None -> ()
  | Some s ->
      s.tried <- s.tried + assigned;
      if exceeded then begin
        s.early_terminations <- s.early_terminations + 1;
        s.levels_cut <- s.levels_cut + (cores - assigned)
      end

(* -- the first two steps in closed form ------------------------------------ *)

(* All loads start at 0, so the first step gives the widest TAM
   (lines 10-12) the core with the largest time at that width (lines
   13-16, whatever the tie-break), and the exit after it (lines 18-20)
   fires exactly when that peak reaches [best]. A peak held by one core
   c1 out of two or more is positive, so the second step goes to the
   widest TAM still at load 0, of width [second], and adds the largest
   time there among the other cores. A tied peak leaves c1 to the
   tie-break, so the loop decides. With one TAM ([second = 0]) the
   second step adds the largest time of the other cores to the same
   load, tied or not. *)
let cut ~table ~best ~widest ~second =
  let peak = Time_table.peak table ~width:widest in
  if peak >= best then 1
  else if second = 0 then
    if peak + Time_table.runner_up table ~width:widest >= best then 2 else 0
  else
    let c1 = Time_table.peak_core table ~width:widest in
    if c1 < 0 then 0
    else
      let load =
        if Time_table.peak_core table ~width:second = c1 then
          Time_table.runner_up table ~width:second
        else Time_table.peak table ~width:second
      in
      if load >= best then 2 else 0

(* The counters [n] evaluations abandoned by [cut] at [step] would have
   recorded one by one: [step] steps tried and [cores - step] levels cut
   each. *)
let record_cuts ?stats ~cores ~step n =
  match stats with
  | None -> ()
  | Some s ->
      s.tried <- s.tried + (n * step);
      s.early_terminations <- s.early_terminations + n;
      s.levels_cut <- s.levels_cut + (n * (cores - step))

(* -- the greedy loop (Figure 1) ---------------------------------------------- *)

(* Lines 10-12: TAM with minimum summed time; ties to the widest. *)
let select_tam (loads : int array) (widths : int array) =
  let best_j = ref 0 in
  for j = 1 to Array.length widths - 1 do
    if
      loads.(j) < loads.(!best_j)
      || (loads.(j) = loads.(!best_j) && widths.(j) > widths.(!best_j))
    then best_j := j
  done;
  !best_j

(* The widest TAM narrower than [j] (first index among equals), or -1. *)
let narrower (widths : int array) j =
  let n = ref (-1) in
  for k = 0 to Array.length widths - 1 do
    if widths.(k) < widths.(j) && (!n < 0 || widths.(k) > widths.(!n)) then
      n := k
  done;
  !n

(* Lines 13-16: unassigned core with maximum time on TAM [j]; if tied,
   compare the tied cores on the widest TAM narrower than [j] and take
   the one that would be costliest there (still tied: lowest index).
   One pass, keeping the best core so far under that order. *)
let select_core (times : int array array) unassigned widths j =
  let k = narrower widths j in
  let best_i = ref (-1) in
  for i = 0 to Array.length times - 1 do
    if unassigned.(i) then begin
      let b = !best_i in
      if
        b < 0
        || times.(i).(j) > times.(b).(j)
        || times.(i).(j) = times.(b).(j)
           && k >= 0
           && times.(i).(k) > times.(b).(k)
      then best_i := i
    end
  done;
  !best_i

(* [exceeded]: the number of cores assigned when the early exit fired,
   0 when every core was assigned. *)
let finish stats ~cores ~assignment ~loads exceeded =
  if exceeded > 0 then begin
    record stats ~cores ~assigned:exceeded ~exceeded:true;
    Exceeded exceeded
  end
  else begin
    record stats ~cores ~assigned:cores ~exceeded:false;
    Assigned
      {
        assignment;
        tam_times = loads;
        time = Soctam_util.Intutil.max_element loads;
      }
  end

let run ?stats ?(best = max_int) ~times ~widths () =
  let cores = Array.length times in
  if cores = 0 then invalid_arg "Core_assign.run: no cores";
  let tams = Array.length widths in
  if tams = 0 then invalid_arg "Core_assign.run: no TAMs";
  Array.iter
    (fun row ->
      if Array.length row <> tams then invalid_arg "Core_assign.run: ragged times")
    times;
  let loads = Array.make tams 0 in
  let assignment = Array.make cores (-1) in
  let unassigned = Array.make cores true in
  let assigned = ref 0 and exceeded = ref 0 in
  while !exceeded = 0 && !assigned < cores do
    let j = select_tam loads widths in
    let i = select_core times unassigned widths j in
    assignment.(i) <- j;
    unassigned.(i) <- false;
    loads.(j) <- loads.(j) + times.(i).(j);
    incr assigned;
    (* Lines 18-20: abandon the partition once it cannot beat [best].
       Before this step every load was below [best] (or 0, at the first
       step) and only TAM [j]'s grew, by a non-negative time, so the
       maximum load reaches [best] iff [loads.(j)] does. *)
    if loads.(j) >= best then exceeded := !assigned
  done;
  finish stats ~cores ~assignment ~loads !exceeded

let run_table ?stats ?best ~table ~widths () =
  run ?stats ?best ~times:(Time_table.matrix table ~widths) ~widths ()

(* -- allocation-free direct-table variant ---------------------------------- *)

type scratch = {
  mutable sc_loads : int array;
  mutable sc_assignment : int array;
  mutable sc_unassigned : bool array;
}

let scratch () =
  { sc_loads = [||]; sc_assignment = [||]; sc_unassigned = [||] }

(* The first position from [p] on whose core is still unassigned, or
   the order's length when there is none. *)
let rec next_unassigned (order : int array) (unassigned : bool array) p =
  if p < Array.length order && not unassigned.(order.(p)) then
    next_unassigned order unassigned (p + 1)
  else p
[@@soctam.hot]

(* The tie-break over the run of cores from position [p] on whose time
   at width index [wj] is [t]: the unassigned core with the largest time
   at width index [wk], the one met first (the lowest index) among
   equals. *)
let rec tie_run (rows : int array array) (order : int array)
    (unassigned : bool array) wj t wk best p =
  if p = Array.length order || rows.(order.(p)).(wj) <> t then best
  else
    let c = order.(p) in
    let best =
      if unassigned.(c) && rows.(c).(wk) > rows.(best).(wk) then c else best
    in
    tie_run rows order unassigned wj t wk best (p + 1)
[@@soctam.hot]

(* [select_core] read from [order], TAM [j]'s width order (descending
   time, ties by ascending index): the first unassigned core has the
   largest time on [j] and, among equals, the lowest index. Only when the
   next unassigned core has the same time does the tie-break look past
   it, at that run of equal times on the widest TAM narrower than [j]. *)
let select_core_walk (rows : int array array) (order : int array) unassigned
    (widths : int array) j =
  let wj = widths.(j) - 1 in
  let p = next_unassigned order unassigned 0 in
  let best = order.(p) in
  let t = rows.(best).(wj) in
  let q = next_unassigned order unassigned (p + 1) in
  if q = Array.length order || rows.(order.(q)).(wj) <> t then best
  else
    let k = narrower widths j in
    if k < 0 then best
    else tie_run rows order unassigned wj t (widths.(k) - 1) best q
[@@soctam.hot]

(* The same greedy loop as [run], reading testing times straight
   out of the table rows ([rows.(i).(widths.(j) - 1)]) instead of a
   per-partition [Time_table.matrix] copy, picking each core by
   [select_core_walk] on the table's per-width order instead of
   [select_core]'s scan of every core, and reusing caller-owned scratch
   arrays instead of allocating three per call. The loop is kept as a
   deliberate twin of [run]'s rather than abstracted over the time
   lookup and the core pick: an indirect lookup there costs on the order
   of the whole remaining loop body, and the equivalence is pinned by
   qcheck properties (test_core.ml) instead of by sharing code. Any
   behavioral edit must land in both. *)
let greedy_direct ~stats ~scratch:s ~best ~rows ~orders ~widths =
  let cores = Array.length rows in
  let tams = Array.length widths in
  (* Scratch arrays are sized exactly (not merely grown): the
     [Assigned] result aliases them, so their length is part of the
     contract. Re-allocation only happens when the core or TAM count
     changes — once per B value, not per partition. *)
  if Array.length s.sc_loads <> tams then s.sc_loads <- Array.make tams 0
  else Array.fill s.sc_loads 0 tams 0;
  if Array.length s.sc_assignment <> cores then
    s.sc_assignment <- Array.make cores (-1)
  else Array.fill s.sc_assignment 0 cores (-1);
  if Array.length s.sc_unassigned <> cores then
    s.sc_unassigned <- Array.make cores true
  else Array.fill s.sc_unassigned 0 cores true;
  let loads = s.sc_loads in
  let assignment = s.sc_assignment in
  let unassigned = s.sc_unassigned in
  let assigned = ref 0 and exceeded = ref 0 in
  while !exceeded = 0 && !assigned < cores do
    let j = select_tam loads widths in
    let i =
      select_core_walk rows orders.(widths.(j) - 1) unassigned widths j
    in
    assignment.(i) <- j;
    unassigned.(i) <- false;
    loads.(j) <- loads.(j) + rows.(i).(widths.(j) - 1);
    incr assigned;
    (* Lines 18-20, as in [run]. *)
    if loads.(j) >= best then exceeded := !assigned
  done;
  finish stats ~cores ~assignment ~loads !exceeded

(* Validation, then the first two steps in closed form, before any
   scratch work. *)
let run_table_direct ?stats ~scratch:s ~best ~table ~widths () =
  let rows = Time_table.rows table in
  let cores = Array.length rows in
  if cores = 0 then invalid_arg "Core_assign.run: no cores";
  let tams = Array.length widths in
  if tams = 0 then invalid_arg "Core_assign.run: no TAMs";
  let table_width = Time_table.max_width table in
  let widest = ref 0 and second = ref 0 in
  for j = 0 to tams - 1 do
    let w = widths.(j) in
    if w < 1 || w > table_width then
      invalid_arg "Core_assign.run: width outside the table range";
    if w > !widest then begin
      second := !widest;
      widest := w
    end
    else if w > !second then second := w
  done;
  match cut ~table ~best ~widest:!widest ~second:!second with
  | 0 ->
      greedy_direct ~stats ~scratch:s ~best ~rows
        ~orders:(Time_table.orders table) ~widths
  | step ->
      record_cuts ?stats ~cores ~step 1;
      Exceeded step

(* One pass of the same greedy loop with uniform random tie-breaking. *)
let run_random_once ~rng ~times ~widths =
  let cores = Array.length times in
  let tams = Array.length widths in
  let loads = Array.make tams 0 in
  let assignment = Array.make cores (-1) in
  let unassigned = Array.make cores true in
  let pick_uniform candidates =
    match candidates with
    | [] -> assert false
    | [ x ] -> x
    | _ ->
        Soctam_util.Prng.choose rng (Array.of_list candidates)
  in
  for _ = 1 to cores do
    let min_load = Soctam_util.Intutil.min_element loads in
    let j =
      pick_uniform
        (Soctam_util.Select.filter_indices (fun _ l -> l = min_load) loads)
    in
    let best_time = ref (-1) in
    for i = 0 to cores - 1 do
      if unassigned.(i) && times.(i).(j) > !best_time then
        best_time := times.(i).(j)
    done;
    let tied = ref [] in
    for i = cores - 1 downto 0 do
      if unassigned.(i) && times.(i).(j) = !best_time then tied := i :: !tied
    done;
    let i = pick_uniform !tied in
    assignment.(i) <- j;
    unassigned.(i) <- false;
    loads.(j) <- loads.(j) + times.(i).(j)
  done;
  (assignment, Soctam_util.Intutil.max_element loads)

let run_randomized ~rng ~restarts ~times ~widths () =
  if restarts < 1 then
    invalid_arg "Core_assign.run_randomized: restarts must be >= 1";
  if Array.length times = 0 then
    invalid_arg "Core_assign.run_randomized: no cores";
  if Array.length widths = 0 then
    invalid_arg "Core_assign.run_randomized: no TAMs";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length widths then
        invalid_arg "Core_assign.run_randomized: ragged times")
    times;
  let best = ref (run_random_once ~rng ~times ~widths) in
  for _ = 2 to restarts do
    let cand = run_random_once ~rng ~times ~widths in
    if snd cand < snd !best then best := cand
  done;
  !best
