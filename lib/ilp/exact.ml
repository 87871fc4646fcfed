type result = {
  time : int;
  assignment : int array;
  optimal : bool;
  nodes : int;
}

let check_instance times =
  let cores = Array.length times in
  if cores = 0 then invalid_arg "Exact: no cores";
  let tams = Array.length times.(0) in
  if tams = 0 then invalid_arg "Exact: no TAMs";
  Array.iter
    (fun row ->
      if Array.length row <> tams then invalid_arg "Exact: ragged times")
    times;
  (cores, tams)

let makespan ~times ~assignment =
  let _, tams = check_instance times in
  let loads = Array.make tams 0 in
  Array.iteri (fun i j -> loads.(j) <- loads.(j) + times.(i).(j)) assignment;
  Soctam_util.Intutil.max_element loads

(* Branch & bound state. Nothing is allocated once the search starts:
   the path, the loads and the candidate lists live in arrays made up
   front. Row [k] of [cand_tam]/[cand_load] (positions [k * tams] to
   [k * tams + tams - 1]) holds the candidate TAMs of the core at depth
   [k] and the load each would reach, sorted by (load, TAM index). *)
type search = {
  times : int array array;
  widths : int array;
  order : int array;  (** depth -> core, hardest first *)
  suffix_min : int array;
      (** [suffix_min.(k)]: summed best-TAM times of depths [k ..] *)
  cores : int;
  tams : int;
  node_limit : int;
  loads : int array;
  current : int array;  (** core -> TAM along the current path *)
  cand_tam : int array;
  cand_load : int array;
  incumbent : int array;
  mutable incumbent_time : int;
  mutable nodes : int;
  mutable budget_hit : bool;
}

(* Every TAM from [j] on would take the core with times [row] to at
   least the incumbent. *)
let rec lands_at_or_above s row j =
  j = s.tams
  || s.loads.(j) + row.(j) >= s.incumbent_time
     && lands_at_or_above s row (j + 1)
[@@soctam.hot]

(* Each remaining core must land somewhere; its cheapest landing spot
   bounds the final makespan. True as soon as one core's bound reaches
   the incumbent. *)
let rec placement_reaches s k =
  k < s.cores
  && (lands_at_or_above s s.times.(s.order.(k)) 0
     || placement_reaches s (k + 1))
[@@soctam.hot]

(* The node's lower bound is the max of the path's makespan, the
   average-load bound and the placement bound; it prunes when it reaches
   the incumbent. The terms are tried cheapest first and the first one
   that reaches the incumbent decides. *)
let pruned s k total_load current_max =
  current_max >= s.incumbent_time
  || Soctam_util.Intutil.ceil_div (total_load + s.suffix_min.(k)) s.tams
     >= s.incumbent_time
  || placement_reaches s k
[@@soctam.hot]

(* Insertion sort step: place TAM [j] with resulting load [v] into the
   sorted row [base .. pos - 1]. Only strictly heavier entries move up,
   so equal loads keep increasing TAM order. *)
let rec insert s base pos v j =
  if pos > base && s.cand_load.(pos - 1) > v then begin
    s.cand_load.(pos) <- s.cand_load.(pos - 1);
    s.cand_tam.(pos) <- s.cand_tam.(pos - 1);
    insert s base (pos - 1) v j
  end
  else begin
    s.cand_load.(pos) <- v;
    s.cand_tam.(pos) <- j
  end
[@@soctam.hot]

let rec fill_row s row base j =
  if j < s.tams then begin
    insert s base (base + j) (s.loads.(j) + row.(j)) j;
    fill_row s row base (j + 1)
  end
[@@soctam.hot]

(* Symmetry breaking: TAMs with the same (width, load, time) lead to
   mirror-image subtrees, so only the first in candidate order is
   explored. This is only sound between TAMs of equal width, since equal
   width implies equal times for every core. A mirror of TAM [j] has the
   same resulting load [v], so [p] walks down from the candidate's left
   neighbour only through the run of loads equal to [v]; there, equal
   time means equal load. *)
let rec symmetric s row base j v p =
  p >= base
  && s.cand_load.(p) = v
  && (let j' = s.cand_tam.(p) in
      (s.widths.(j') = s.widths.(j) && row.(j') = row.(j))
      || symmetric s row base j v (p - 1))
[@@soctam.hot]

let rec explore s k total_load current_max =
  if k = s.cores then begin
    if current_max < s.incumbent_time then begin
      s.incumbent_time <- current_max;
      Array.blit s.current 0 s.incumbent 0 s.cores
    end
  end
  else begin
    s.nodes <- s.nodes + 1;
    if s.nodes > s.node_limit then s.budget_hit <- true
    else if not (pruned s k total_load current_max) then begin
      let i = s.order.(k) in
      let row = s.times.(i) in
      let base = k * s.tams in
      fill_row s row base 0;
      branch s k i row base base total_load current_max
    end
  end
[@@soctam.hot]

(* The children of the node at depth [k] in candidate order, from row
   position [pos]. Loads only grow along the row and the incumbent only
   falls, so the first candidate that reaches the incumbent ends the
   loop; a spent budget ends it too. Every earlier row entry was thus
   explored or skipped as a mirror of an explored one, which is what
   lets [symmetric] scan the row instead of a set of explored keys. *)
and branch s k i row base pos total_load current_max =
  if pos < base + s.tams && not s.budget_hit then begin
    let v = s.cand_load.(pos) in
    if v < s.incumbent_time then begin
      let j = s.cand_tam.(pos) in
      if not (symmetric s row base j v (pos - 1)) then begin
        s.loads.(j) <- v;
        s.current.(i) <- j;
        explore s (k + 1) (total_load + row.(j)) (Int.max current_max v);
        s.loads.(j) <- v - row.(j)
      end;
      branch s k i row base (pos + 1) total_load current_max
    end
  end
[@@soctam.hot]

let solve_bb ?(node_limit = 2_000_000) ?initial ?widths ~times () =
  let cores, tams = check_instance times in
  (* Without width information each TAM gets a distinct sentinel, so
     symmetry breaking merges nothing. *)
  let widths =
    match widths with Some w -> w | None -> Array.init tams (fun j -> -j - 1)
  in
  (* Explore the hardest cores first: decreasing best-machine time. *)
  let min_time = Array.map Soctam_util.Intutil.min_element times in
  let order = Array.init cores (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare min_time.(b) min_time.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let suffix_min = Array.make (cores + 1) 0 in
  for k = cores - 1 downto 0 do
    suffix_min.(k) <- suffix_min.(k + 1) + min_time.(order.(k))
  done;
  let s =
    {
      times;
      widths;
      order;
      suffix_min;
      cores;
      tams;
      node_limit;
      loads = Array.make tams 0;
      current = Array.make cores 0;
      cand_tam = Array.make (cores * tams) 0;
      cand_load = Array.make (cores * tams) 0;
      incumbent = Array.make cores 0;
      incumbent_time = max_int;
      nodes = 0;
      budget_hit = false;
    }
  in
  (match initial with
  | Some (assignment, time) ->
      s.incumbent_time <- time;
      Array.blit assignment 0 s.incumbent 0 cores
  | None -> ());
  explore s 0 0 0;
  if s.incumbent_time = max_int then begin
    (* No incumbent under an exhausted budget: fall back to greedy. *)
    let assignment =
      Array.init cores (fun i ->
          Soctam_util.Select.min_index_by (fun x -> x) times.(i))
    in
    {
      time = makespan ~times ~assignment;
      assignment;
      optimal = false;
      nodes = s.nodes;
    }
  end
  else
    {
      time = s.incumbent_time;
      assignment = Array.copy s.incumbent;
      optimal = not s.budget_hit;
      nodes = s.nodes;
    }

let solve_milp ?(node_limit = 50_000) ~times () =
  let cores, tams = check_instance times in
  let module P = Soctam_lp.Problem in
  let p = P.create ~name:"p_aw" () in
  let t_var = P.add_var p "T" in
  let x =
    Array.init cores (fun i ->
        Array.init tams (fun j -> P.binary p (Printf.sprintf "x_%d_%d" i j)))
  in
  for j = 0 to tams - 1 do
    let terms =
      (1., t_var)
      :: List.init cores (fun i -> (-.float_of_int times.(i).(j), x.(i).(j)))
    in
    P.add_constraint p terms P.Ge 0.
  done;
  for i = 0 to cores - 1 do
    let terms = List.init tams (fun j -> (1., x.(i).(j))) in
    P.add_constraint p terms P.Eq 1.
  done;
  P.set_objective p P.Minimize [ (1., t_var) ];
  let extract (s : Soctam_lp.Milp.solution) =
    let assignment =
      Array.init cores (fun i ->
          let best = ref 0 in
          for j = 1 to tams - 1 do
            let v = s.Soctam_lp.Milp.values.(P.var_index x.(i).(j)) in
            if v > s.Soctam_lp.Milp.values.(P.var_index x.(i).(!best)) then
              best := j
          done;
          !best)
    in
    (assignment, makespan ~times ~assignment)
  in
  let outcome, stats =
    Soctam_lp.Milp.solve ~node_limit ~objective_is_integral:true p
  in
  let nodes = stats.Soctam_lp.Milp.nodes in
  match outcome with
  | Soctam_lp.Milp.Optimal s ->
      let assignment, time = extract s in
      { time; assignment; optimal = true; nodes }
  | Soctam_lp.Milp.Feasible s ->
      let assignment, time = extract s in
      { time; assignment; optimal = false; nodes }
  | Soctam_lp.Milp.Infeasible | Soctam_lp.Milp.Unbounded
  | Soctam_lp.Milp.No_solution_found ->
      (* P_AW always has a feasible assignment; reaching here means the
         node budget ran out before any integral point. Fall back. *)
      let assignment =
        Array.init cores (fun i ->
            Soctam_util.Select.min_index_by (fun v -> v) times.(i))
      in
      {
        time = makespan ~times ~assignment;
        assignment;
        optimal = false;
        nodes;
      }
