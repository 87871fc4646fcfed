type outcome =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded

exception Numerical_failure of string

let eps = 1e-9
let feas_eps = 1e-7

(* The tableau holds one row per constraint plus an objective row kept in
   reduced-cost form; column layout is [structurals | slacks | artificials
   | rhs]. [basis.(r)] is the column basic in row [r]; [allowed.(c)] marks
   columns permitted to enter (artificials are blocked in phase 2).
   [nonzero] is scratch space for [pivot]. *)
type tableau = {
  rows : float array array;  (* m rows, each of length ncols + 1 *)
  obj : float array;  (* reduced-cost row, length ncols + 1 *)
  basis : int array;
  allowed : bool array;
  ncols : int;
  nonzero : int array;  (* length ncols + 1 *)
}

(* Elimination only touches the columns where the pivot row is nonzero:
   elsewhere [target.(c) -. factor *. 0.] is [target.(c)] again. The
   rows of the models built here are sparse, and stay mostly so. *)
let pivot t ~row ~col =
  let m = Array.length t.rows in
  let piv = t.rows.(row).(col) in
  let r = t.rows.(row) in
  let count = ref 0 in
  for c = 0 to t.ncols do
    r.(c) <- r.(c) /. piv;
    if r.(c) <> 0. then begin
      t.nonzero.(!count) <- c;
      incr count
    end
  done;
  let count = !count in
  let eliminate target =
    let factor = target.(col) in
    if Float.abs factor > 0. then
      for k = 0 to count - 1 do
        let c = t.nonzero.(k) in
        target.(c) <- target.(c) -. (factor *. r.(c))
      done
  in
  for i = 0 to m - 1 do
    if i <> row then eliminate t.rows.(i)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* Leaving-row choice: minimum ratio; ties prefer driving an artificial
   out of the basis, then the smallest basis index (lexicographic-ish
   anti-cycling support). *)
let choose_row t ~col ~artificial_from =
  let m = Array.length t.rows in
  let best = ref (-1) in
  let best_ratio = ref infinity in
  for i = 0 to m - 1 do
    let a = t.rows.(i).(col) in
    if a > eps then begin
      let ratio = t.rows.(i).(t.ncols) /. a in
      let better =
        ratio < !best_ratio -. eps
        || Float.abs (ratio -. !best_ratio) <= eps
           && !best >= 0
           &&
           let cur_art = t.basis.(!best) >= artificial_from in
           let new_art = t.basis.(i) >= artificial_from in
           (new_art && not cur_art)
           || (new_art = cur_art && t.basis.(i) < t.basis.(!best))
      in
      if !best < 0 || better then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

let choose_col_dantzig t =
  let best = ref (-1) in
  let best_val = ref (-.eps) in
  for c = 0 to t.ncols - 1 do
    if t.allowed.(c) && t.obj.(c) < !best_val then begin
      best := c;
      best_val := t.obj.(c)
    end
  done;
  !best

let choose_col_bland t =
  let rec loop c =
    if c >= t.ncols then -1
    else if t.allowed.(c) && t.obj.(c) < -.eps then c
    else loop (c + 1)
  in
  loop 0

(* Minimize until no improving column remains. *)
let optimize t ~artificial_from =
  let limit = 200 * (Array.length t.rows + t.ncols + 10) in
  let bland_after = limit / 2 in
  let rec loop iter =
    if iter > limit then raise (Numerical_failure "simplex iteration cap");
    let col =
      if iter < bland_after then choose_col_dantzig t else choose_col_bland t
    in
    if col < 0 then `Optimal
    else begin
      let row = choose_row t ~col ~artificial_from in
      if row < 0 then `Unbounded
      else begin
        pivot t ~row ~col;
        loop (iter + 1)
      end
    end
  in
  loop 0

let solve ?bounds problem =
  let nstruct = Problem.var_count problem in
  let var_bounds =
    match bounds with Some b -> b | None -> Problem.bounds problem
  in
  if Array.length var_bounds <> nstruct then
    invalid_arg "Simplex.solve: bounds array length mismatch";
  let direction, obj_constant, costs = Problem.objective problem in
  let sign = match direction with Problem.Minimize -> 1. | Maximize -> -1. in
  let infeasible_bounds =
    Array.exists (fun (lb, ub) -> lb > ub +. feas_eps) var_bounds
  in
  if infeasible_bounds then Infeasible
  else begin
    (* Shift x = lb + y with y >= 0; finite upper bounds become rows. *)
    let lbs = Array.map fst var_bounds in
    let ub_rows =
      let acc = ref [] in
      Array.iteri
        (fun i (lb, ub) ->
          if Float.is_finite ub then begin
            let coeffs = Array.make nstruct 0. in
            coeffs.(i) <- 1.;
            acc := (coeffs, Problem.Le, ub -. lb) :: !acc
          end)
        var_bounds;
      List.rev !acc
    in
    let base_rows =
      Problem.rows problem |> Array.to_list
      |> List.map (fun (coeffs, sense, rhs) ->
             let shift = ref 0. in
             Array.iteri (fun i c -> shift := !shift +. (c *. lbs.(i))) coeffs;
             (coeffs, sense, rhs -. !shift))
    in
    let all_rows = Array.of_list (base_rows @ ub_rows) in
    let m = Array.length all_rows in
    (* Column layout: count slacks and artificials first. *)
    let needs_slack = function Problem.Le | Problem.Ge -> true | Eq -> false in
    let needs_artificial sense rhs_nonneg =
      match (sense, rhs_nonneg) with
      | Problem.Le, true -> false
      | Problem.Le, false -> true (* flipped to Ge *)
      | Problem.Ge, true -> true
      | Problem.Ge, false -> false (* flipped to Le *)
      | Problem.Eq, _ -> true
    in
    let nslack = ref 0 and nart = ref 0 in
    Array.iter
      (fun (_, sense, rhs) ->
        if needs_slack sense then incr nslack;
        if needs_artificial sense (rhs >= 0.) then incr nart)
      all_rows;
    let slack_from = nstruct in
    let artificial_from = nstruct + !nslack in
    let ncols = nstruct + !nslack + !nart in
    let t =
      {
        rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.);
        obj = Array.make (ncols + 1) 0.;
        basis = Array.make m (-1);
        allowed = Array.make ncols true;
        ncols;
        nonzero = Array.make (ncols + 1) 0;
      }
    in
    let next_slack = ref slack_from in
    let next_art = ref artificial_from in
    Array.iteri
      (fun i (coeffs, sense, rhs) ->
        let flip = rhs < 0. in
        let mult = if flip then -1. else 1. in
        let sense =
          if not flip then sense
          else
            match sense with
            | Problem.Le -> Problem.Ge
            | Ge -> Le
            | Eq -> Eq
        in
        let row = t.rows.(i) in
        Array.iteri (fun j c -> row.(j) <- mult *. c) coeffs;
        row.(ncols) <- mult *. rhs;
        (match sense with
        | Problem.Le ->
            row.(!next_slack) <- 1.;
            t.basis.(i) <- !next_slack;
            incr next_slack
        | Ge ->
            row.(!next_slack) <- -1.;
            incr next_slack;
            row.(!next_art) <- 1.;
            t.basis.(i) <- !next_art;
            incr next_art
        | Eq ->
            row.(!next_art) <- 1.;
            t.basis.(i) <- !next_art;
            incr next_art))
      all_rows;
    (* Phase 1: minimize the sum of artificials. *)
    let phase1_needed = artificial_from < ncols in
    let infeasible = ref false in
    if phase1_needed then begin
      for c = artificial_from to ncols - 1 do
        t.obj.(c) <- 1.
      done;
      (* Zero out the reduced costs of the artificial basis. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= artificial_from then
          for c = 0 to ncols do
            t.obj.(c) <- t.obj.(c) -. t.rows.(i).(c)
          done
      done;
      (match optimize t ~artificial_from with
      | `Optimal -> ()
      | `Unbounded ->
          raise (Numerical_failure "phase-1 objective cannot be unbounded"));
      let phase1_obj = -.t.obj.(ncols) in
      if phase1_obj > feas_eps then infeasible := true
      else begin
        (* Drive remaining artificials out of the basis where possible. *)
        for i = 0 to m - 1 do
          if t.basis.(i) >= artificial_from then begin
            let col = ref (-1) in
            for c = 0 to artificial_from - 1 do
              if !col < 0 && Float.abs t.rows.(i).(c) > feas_eps then col := c
            done;
            if !col >= 0 then pivot t ~row:i ~col:!col
            (* else: redundant row; its artificial stays basic at 0. *)
          end
        done;
        for c = artificial_from to ncols - 1 do
          t.allowed.(c) <- false
        done
      end
    end;
    if !infeasible then Infeasible
    else begin
      (* Phase 2: minimize sign * c over the feasible basis. *)
      Array.fill t.obj 0 (ncols + 1) 0.;
      for j = 0 to nstruct - 1 do
        t.obj.(j) <- sign *. costs.(j)
      done;
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        if b >= 0 && Float.abs t.obj.(b) > 0. then begin
          let factor = t.obj.(b) in
          for c = 0 to ncols do
            t.obj.(c) <- t.obj.(c) -. (factor *. t.rows.(i).(c))
          done
        end
      done;
      match optimize t ~artificial_from with
      | `Unbounded -> Unbounded
      | `Optimal ->
          let y = Array.make nstruct 0. in
          for i = 0 to m - 1 do
            let b = t.basis.(i) in
            if b >= 0 && b < nstruct then y.(b) <- t.rows.(i).(ncols)
          done;
          let values = Array.mapi (fun i v -> v +. lbs.(i)) y in
          let objective =
            let acc = ref obj_constant in
            Array.iteri (fun i c -> acc := !acc +. (c *. values.(i))) costs;
            !acc
          in
          Optimal { objective; values }
    end
  end
