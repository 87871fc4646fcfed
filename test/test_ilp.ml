(* Tests for Soctam_ilp.Exact: the dedicated branch & bound and the
   paper's ILP model, cross-checked against brute force and each other. *)

module Exact = Soctam_ilp.Exact

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let random_instance seed ~cores ~tams =
  let rng = Soctam_util.Prng.create seed in
  Array.init cores (fun _ ->
      Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 100))

let brute_force times =
  let cores = Array.length times and tams = Array.length times.(0) in
  let best = ref max_int in
  let loads = Array.make tams 0 in
  let rec go i =
    if i = cores then best := min !best (Soctam_util.Intutil.max_element loads)
    else
      for j = 0 to tams - 1 do
        loads.(j) <- loads.(j) + times.(i).(j);
        go (i + 1);
        loads.(j) <- loads.(j) - times.(i).(j)
      done
  in
  go 0;
  !best

let makespan_evaluates () =
  let times = [| [| 3; 9 |]; [| 5; 2 |] |] in
  Alcotest.(check int) "both on 0" 8
    (Exact.makespan ~times ~assignment:[| 0; 0 |]);
  Alcotest.(check int) "split" 3
    (Exact.makespan ~times ~assignment:[| 0; 1 |])

let bb_single_tam () =
  let times = [| [| 5 |]; [| 7 |]; [| 1 |] |] in
  let r = Exact.solve_bb ~times () in
  Alcotest.(check int) "sum" 13 r.Exact.time;
  Alcotest.(check bool) "optimal" true r.Exact.optimal

let bb_single_core () =
  let times = [| [| 9; 4; 6 |] |] in
  let r = Exact.solve_bb ~times () in
  Alcotest.(check int) "best machine" 4 r.Exact.time;
  Alcotest.(check int) "assigned there" 1 r.Exact.assignment.(0)

let bb_assignment_consistent =
  QCheck.Test.make ~name:"bb: reported time matches its assignment"
    ~count:100
    QCheck.(pair (int_range 1 7) (int_range 1 3))
    (fun (cores, tams) ->
      let times =
        random_instance (Int64.of_int ((cores * 11) + tams)) ~cores ~tams
      in
      let r = Exact.solve_bb ~times () in
      r.Exact.time = Exact.makespan ~times ~assignment:r.Exact.assignment)

let bb_matches_brute_force =
  QCheck.Test.make ~name:"bb: optimal on small instances" ~count:60
    QCheck.(pair (int_range 1 7) (int_range 1 3))
    (fun (cores, tams) ->
      let times =
        random_instance (Int64.of_int ((cores * 13) + tams)) ~cores ~tams
      in
      let r = Exact.solve_bb ~times () in
      r.Exact.optimal && r.Exact.time = brute_force times)

let milp_matches_bb =
  QCheck.Test.make ~name:"milp model: agrees with the dedicated bb"
    ~count:20
    QCheck.(pair (int_range 2 5) (int_range 2 3))
    (fun (cores, tams) ->
      let times =
        random_instance (Int64.of_int ((cores * 17) + tams)) ~cores ~tams
      in
      let bb = Exact.solve_bb ~times () in
      let milp = Exact.solve_milp ~times () in
      milp.Exact.optimal && milp.Exact.time = bb.Exact.time)

let warm_start_respected () =
  let times = random_instance 99L ~cores:8 ~tams:3 in
  let plain = Exact.solve_bb ~times () in
  let warm =
    Exact.solve_bb
      ~initial:(plain.Exact.assignment, plain.Exact.time)
      ~times ()
  in
  Alcotest.(check int) "same optimum" plain.Exact.time warm.Exact.time;
  Alcotest.(check bool) "fewer or equal nodes" true
    (warm.Exact.nodes <= plain.Exact.nodes)

let node_budget_degrades_gracefully () =
  let times = random_instance 123L ~cores:14 ~tams:4 in
  let r = Exact.solve_bb ~node_limit:5 ~times () in
  Alcotest.(check bool) "not proven" false r.Exact.optimal;
  Alcotest.(check int) "valid incumbent" r.Exact.time
    (Exact.makespan ~times ~assignment:r.Exact.assignment);
  let full = Exact.solve_bb ~times () in
  Alcotest.(check bool) "incumbent no better than optimum" true
    (r.Exact.time >= full.Exact.time)

let symmetry_breaking_safe =
  (* With equal widths declared, symmetric TAMs are merged in the search;
     the optimum must not change. *)
  QCheck.Test.make ~name:"bb: symmetry breaking preserves the optimum"
    ~count:40
    QCheck.(int_range 1 7)
    (fun cores ->
      let rng = Soctam_util.Prng.create (Int64.of_int (cores * 19)) in
      let per_core = Array.init cores (fun _ -> 1 + Soctam_util.Prng.int rng 60) in
      (* Three identical-width TAMs: time depends only on the core. *)
      let times = Array.map (fun t -> [| t; t; t |]) per_core in
      let with_widths = Exact.solve_bb ~widths:[| 8; 8; 8 |] ~times () in
      let without = Exact.solve_bb ~times () in
      with_widths.Exact.optimal
      && with_widths.Exact.time = without.Exact.time
      && with_widths.Exact.nodes <= without.Exact.nodes)

let rejects_bad_instances () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Exact.solve_bb ~times:[||] ());
  invalid (fun () -> Exact.solve_bb ~times:[| [||] |] ());
  invalid (fun () -> Exact.solve_bb ~times:[| [| 1; 2 |]; [| 3 |] |] ())

let milp_node_budget_fallback () =
  (* Tiny LP node budget: the MILP path falls back to a valid greedy
     assignment rather than failing. *)
  let times = random_instance 7L ~cores:6 ~tams:3 in
  let r = Exact.solve_milp ~node_limit:1 ~times () in
  Alcotest.(check bool) "not proven" false r.Exact.optimal;
  Alcotest.(check int) "consistent" r.Exact.time
    (Exact.makespan ~times ~assignment:r.Exact.assignment)

(* Random instances built to reach every branch of the node loop: TAMs
   of equal width (identical time columns, so symmetry breaking merges
   them), times drawn from a narrow range so loads tie, warm starts, and
   node limits small enough to cut the search mid-tree. *)
type visit_case = {
  v_times : int array array;
  v_widths : int array option;
  v_initial : (int array * int) option;
  v_node_limit : int option;
}

let visit_case seed =
  let rng = Soctam_util.Prng.create (Int64.of_int seed) in
  let int_in lo hi = Soctam_util.Prng.int_in rng lo hi in
  let cores = int_in 1 12 in
  let tams = int_in 1 4 in
  let widths = Array.init tams (fun _ -> int_in 1 3) in
  let hi = if Soctam_util.Prng.bool rng then 6 else 60 in
  let column = Array.init 3 (fun _ -> Array.init cores (fun _ -> int_in 1 hi)) in
  let times =
    Array.init cores (fun i ->
        Array.init tams (fun j -> column.(widths.(j) - 1).(i)))
  in
  let v_widths = if Soctam_util.Prng.bool rng then Some widths else None in
  let v_initial =
    match int_in 0 2 with
    | 0 -> None
    | 1 ->
        let assignment = Array.init cores (fun _ -> int_in 0 (tams - 1)) in
        Some (assignment, Exact.makespan ~times ~assignment)
    | _ ->
        let assignment =
          Array.map Soctam_util.Select.argmin times
        in
        Some (assignment, Exact.makespan ~times ~assignment)
  in
  let v_node_limit =
    if Soctam_util.Prng.bool rng then Some (int_in 1 200) else None
  in
  { v_times = times; v_widths; v_initial; v_node_limit }

let solve_case c =
  Exact.solve_bb ?node_limit:c.v_node_limit ?initial:c.v_initial
    ?widths:c.v_widths ~times:c.v_times ()

let bb_visit_order_property =
  QCheck.Test.make
    ~name:"bb: consistent and optimal under ties, symmetry, warm starts, limits"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let c = visit_case seed in
      let r = solve_case c in
      r.Exact.time = Exact.makespan ~times:c.v_times ~assignment:r.Exact.assignment
      && ((not r.Exact.optimal)
         || Array.length c.v_times > 7
         || r.Exact.time = brute_force c.v_times))

(* The node count is the search tree's fingerprint: any change to the
   candidate order, the symmetry merge, the bound or the budget cut-off
   moves it. Which of several equal-time assignments is reported is
   pinned by a digest beside it. The totals are split by whether the
   case has a node limit. The dual-weight term only cuts subtrees
   holding nothing strictly better than the incumbent, so it must leave
   every unlimited search's answer alone: that half keeps the digest
   recorded without the term (896441823), and its node total may only
   fall from the 25253 recorded then. A limited search stops at another
   point of the tree when a bound changes, so that half is re-pinned
   with every bound change (the dual-weight term left it as it was). *)
let visit_totals ~limited =
  let nodes = ref 0 and digest = ref 0 in
  for seed = 0 to 1999 do
    let c = visit_case seed in
    if Option.is_some c.v_node_limit = limited then begin
      let r = solve_case c in
      nodes := !nodes + r.Exact.nodes;
      digest :=
        Array.fold_left
          (fun d j -> ((d * 5) + j) mod 1_000_000_007)
          (!digest + r.Exact.time + Bool.to_int r.Exact.optimal)
          r.Exact.assignment
    end
  done;
  (!nodes, !digest)

let bb_visit_order_pinned () =
  Alcotest.(check (pair int int))
    "nodes and digest over the unlimited cases of seeds 0..1999"
    (24158, 896441823)
    (visit_totals ~limited:false)

let bb_limited_visit_order_pinned () =
  Alcotest.(check (pair int int))
    "nodes and digest over the node-limited cases of seeds 0..1999"
    (16231, 127928134)
    (visit_totals ~limited:true)

(* The heaviest paper-npaw finishes, rebuilt the way Co_optimize.finish
   builds them: the partition search's winner, its time matrix, and its
   heuristic assignment as the warm start. All four are proven optimal
   within the default node limit; before the dual-weight term the two
   p21241 W=16/32 finishes stopped at it (W=32 at 540574). The budget
   cut-off is covered by the small node limits of the visit cases. *)
let heavy_finishes () =
  let module Tt = Soctam_core.Time_table in
  let module Pe = Soctam_core.Partition_evaluate in
  let module Rc = Soctam_core.Run_config in
  let cfg = Rc.with_max_tams 10 Rc.default in
  let finish soc ~total_width =
    let table = Tt.build soc ~max_width:total_width in
    let pe = Pe.run_with cfg ~table ~total_width in
    let widths = pe.Pe.widths in
    let r =
      Exact.solve_bb ~node_limit:cfg.Rc.node_limit
        ~initial:(pe.Pe.assignment, pe.Pe.time)
        ~widths
        ~times:(Tt.matrix table ~widths)
        ()
    in
    (r.Exact.time, r.Exact.optimal, r.Exact.nodes)
  in
  let p21241 = Soctam_soc_data.Philips.soc_p21241 () in
  let p93791 = Soctam_soc_data.Philips.soc_p93791 () in
  let pin = Alcotest.(triple int bool int) in
  Alcotest.check pin "p21241 W=16" (1079751, true, 614336)
    (finish p21241 ~total_width:16);
  Alcotest.check pin "p21241 W=32" (537633, true, 757425)
    (finish p21241 ~total_width:32);
  Alcotest.check pin "p21241 W=56" (330595, true, 933416)
    (finish p21241 ~total_width:56);
  Alcotest.check pin "p93791 W=32" (2965762, true, 96385)
    (finish p93791 ~total_width:32)

(* -- LP relaxation against the integer search ------------------------------ *)

(* The §3.2 model's LP relaxation in primal form: minimise [T] subject
   to every TAM's fractional load staying below [T] and every core being
   fully assigned. *)
let primal_lp times =
  let module P = Soctam_lp.Problem in
  let cores = Array.length times and tams = Array.length times.(0) in
  let p = P.create () in
  let t = P.add_var p "T" in
  let x =
    Array.init cores (fun _ -> Array.init tams (fun _ -> P.add_var p "x"))
  in
  for j = 0 to tams - 1 do
    let load =
      List.init cores (fun i -> (-.float_of_int times.(i).(j), x.(i).(j)))
    in
    P.add_constraint p ((1., t) :: load) P.Ge 0.
  done;
  Array.iter
    (fun row ->
      P.add_constraint p
        (Array.to_list (Array.map (fun v -> (1., v)) row))
        P.Eq 1.)
    x;
  P.set_objective p P.Minimize [ (1., t) ];
  match Soctam_lp.Simplex.solve p with
  | Soctam_lp.Simplex.Optimal { objective; _ } -> objective
  | _ -> Alcotest.fail "primal LP not solved"

(* Small instances in the shapes that stress a simplex: one core, one
   TAM, identical columns (TAMs of equal width), all-equal times, and
   one-hot rows (a core's time on one TAM, zero on the rest). *)
let lp_instance seed =
  let rng = Soctam_util.Prng.create (Int64.of_int seed) in
  let int_in lo hi = Soctam_util.Prng.int_in rng lo hi in
  let cores = int_in 1 6 and tams = int_in 1 4 in
  let shape = seed mod 6 in
  let cores = if shape = 1 then 1 else cores in
  let tams = if shape = 2 then 1 else tams in
  match shape with
  | 3 ->
      let column = Array.init cores (fun _ -> int_in 1 50) in
      Array.map (fun t -> Array.make tams t) column
  | 4 -> Array.make_matrix cores tams (int_in 1 50)
  | 5 ->
      Array.init cores (fun _ ->
          let row = Array.make tams 0 in
          row.(int_in 0 (tams - 1)) <- int_in 1 50;
          row)
  | _ -> Array.init cores (fun _ -> Array.init tams (fun _ -> int_in 1 50))

let within_rel a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)

let lp_dual_matches_primal =
  QCheck.Test.make
    ~name:"lp dual: agrees with the primal and bounds the optimum"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let times = lp_instance seed in
      let optimum = brute_force times in
      let bb = Exact.solve_bb ~times () in
      match Exact.lp_dual ~times with
      | None -> false
      | Some (value, lambda) ->
          within_rel value (primal_lp times)
          && value <= float_of_int optimum *. (1. +. 1e-6)
          && bb.Exact.optimal && bb.Exact.time = optimum
          && Array.for_all (fun l -> l >= -1e-9) lambda
          && (match Exact.root_bound ~times with
             | None -> true
             | Some b -> b <= optimum))

(* Times near [max_int / (4 * cores)]: the weights would overflow, so the
   term must switch itself off, and the search must still be exact. At a
   4096th of that size the weights shrink (to about 2^11 in total) but
   stay on. Both searches run past the point where the LP is solved. *)
let dual_bound_huge_times () =
  let cores = 8 and tams = 3 in
  List.iter
    (fun (shrink, on) ->
      let base = max_int / (4 * cores * shrink) in
      let rng = Soctam_util.Prng.create 5L in
      let times =
        Array.init cores (fun _ ->
            Array.init tams (fun _ -> base - Soctam_util.Prng.int rng 1000))
      in
      let optimum = brute_force times in
      let r = Exact.solve_bb ~times () in
      Alcotest.(check bool) "proven" true r.Exact.optimal;
      Alcotest.(check int) "brute force" optimum r.Exact.time;
      Alcotest.(check bool) "LP solved" true
        (r.Exact.nodes >= cores * tams * (cores + tams));
      match Exact.root_bound ~times with
      | None -> Alcotest.(check bool) "term off" false on
      | Some b ->
          Alcotest.(check bool) "term on" true on;
          Alcotest.(check bool) "root bound below the optimum" true
            (b <= optimum))
    [ (1, false); (4096, true) ]

(* d695 W=48 B=4: the exhaustive engine's 816 per-partition searches are
   all small, so the lazy dual LP must not make them slower. The answer
   is pinned, and the node total may only fall from the 24352 recorded
   before the dual-weight term. *)
let exhaustive_d695_guard () =
  let module Ex = Soctam_core.Exhaustive in
  let table =
    Soctam_core.Time_table.build Soctam_soc_data.D695.soc ~max_width:48
  in
  let r = Runners.ex_run ~table ~total_width:48 ~tams:4 () in
  Alcotest.(check (pair int int)) "partitions solved" (816, 816)
    (r.Ex.partitions_solved, r.Ex.partitions_total);
  Alcotest.(check bool) "nodes at most 24352" true (r.Ex.nodes <= 24352);
  Alcotest.(check (array int)) "widths" [| 5; 9; 16; 18 |] r.Ex.widths;
  Alcotest.(check int) "time" 14768 r.Ex.time;
  Alcotest.(check (array int))
    "assignment" [| 0; 2; 0; 0; 1; 2; 3; 0; 2; 3 |] r.Ex.assignment

let suite =
  [
    test "makespan: evaluates assignments" makespan_evaluates;
    test "bb: single TAM" bb_single_tam;
    test "bb: single core" bb_single_core;
    qtest bb_assignment_consistent;
    qtest bb_matches_brute_force;
    qtest milp_matches_bb;
    test "bb: warm start" warm_start_respected;
    test "bb: node budget degrades gracefully" node_budget_degrades_gracefully;
    qtest symmetry_breaking_safe;
    test "bb: rejects bad instances" rejects_bad_instances;
    test "milp: node budget fallback" milp_node_budget_fallback;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |])
      bb_visit_order_property;
    test "bb: visit order pinned by node totals" bb_visit_order_pinned;
    test "bb: heavy paper finishes pinned" heavy_finishes;
    test "bb: node-limited visit order pinned" bb_limited_visit_order_pinned;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 16 |])
      lp_dual_matches_primal;
    test "bb: dual bound safe at huge times" dual_bound_huge_times;
    test "exhaustive: d695 W=48 B=4 pinned" exhaustive_d695_guard;
  ]
