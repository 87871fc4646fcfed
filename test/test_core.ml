(* Tests for Soctam_core: the time table, Core_assign (Figure 1),
   Partition_evaluate (Figure 3), the exhaustive baseline and the full
   co-optimization pipeline. *)

module Tt = Soctam_core.Time_table
module Ca = Soctam_core.Core_assign
module Pe = Soctam_core.Partition_evaluate
module Ex = Soctam_core.Exhaustive
module Co = Soctam_core.Co_optimize
module Exact = Soctam_ilp.Exact
module Obs = Soctam_obs.Obs
module Prng = Soctam_util.Prng

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let small_soc seed ~cores =
  let rng = Soctam_util.Prng.create seed in
  Soctam_soc_data.Random_soc.generate rng
    {
      Soctam_soc_data.Random_soc.default_params with
      Soctam_soc_data.Random_soc.cores;
      max_ios = 60;
      max_patterns = 200;
      max_chains = 6;
      max_chain_length = 50;
    }

(* Every core draws its pattern count and its longest scan chain from
   two values each, so groups of cores saturate to one testing time at
   wide widths while still differing at narrow ones, and some cores are
   exact copies: the regime where Core_assign's tie-breaks decide. *)
let tie_heavy_soc seed ~cores =
  let rng = Prng.create seed in
  let pick a = a.(Prng.int rng (Array.length a)) in
  Soctam_model.Soc.make ~name:"ties"
    ~cores:
      (List.init cores (fun i ->
           let longest = pick [| 20; 30 |] in
           let shorter =
             List.init (Prng.int rng 3) (fun _ -> 1 + Prng.int rng longest)
           in
           Soctam_model.Core_data.make ~id:(i + 1)
             ~name:(Printf.sprintf "c%d" (i + 1))
             ~inputs:(pick [| 0; 4; 8 |])
             ~outputs:(pick [| 0; 4; 8 |])
             ~scan_chains:(longest :: shorter)
             ~patterns:(pick [| 50; 80 |])
             ()))

(* -- Time_table ----------------------------------------------------------- *)

let table_matches_wrapper =
  QCheck.Test.make ~name:"time table: agrees with Design_wrapper" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let ok = ref true in
      for core = 0 to 3 do
        for width = 1 to 10 do
          let direct =
            (Soctam_wrapper.Design.design (Soctam_model.Soc.core soc core)
               ~width)
              .Soctam_wrapper.Design.time
          in
          if Tt.time table ~core ~width <> direct then ok := false
        done
      done;
      !ok)

let table_accessors () =
  let soc = small_soc 5L ~cores:6 in
  let table = Tt.build soc ~max_width:16 in
  Alcotest.(check int) "cores" 6 (Tt.core_count table);
  Alcotest.(check int) "max width" 16 (Tt.max_width table);
  Alcotest.(check bool) "soc identity" true (Tt.soc table == soc);
  Alcotest.check_raises "width too large"
    (Invalid_argument "Time_table.time: width 17 outside 1..16") (fun () ->
      ignore (Tt.time table ~core:0 ~width:17))

let table_matrix () =
  let soc = small_soc 6L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  let m = Tt.matrix table ~widths:[| 2; 8 |] in
  for core = 0 to 2 do
    Alcotest.(check int) "col 0" (Tt.time table ~core ~width:2) m.(core).(0);
    Alcotest.(check int) "col 1" (Tt.time table ~core ~width:8) m.(core).(1)
  done

let bottleneck_identifies_max () =
  let soc = small_soc 7L ~cores:8 in
  let table = Tt.build soc ~max_width:12 in
  let core = Tt.bottleneck_core table ~width:12 in
  let bound = Tt.bottleneck_bound table ~width:12 in
  Alcotest.(check int) "bound is that core's time" bound
    (Tt.time table ~core ~width:12);
  for i = 0 to 7 do
    Alcotest.(check bool) "no core exceeds" true
      (Tt.time table ~core:i ~width:12 <= bound)
  done

(* Like every other accessor, a width outside the table is named rather
   than an array index out of bounds. *)
let bottleneck_checks_width () =
  let table = Tt.build (small_soc 7L ~cores:8) ~max_width:12 in
  List.iter
    (fun width ->
      Alcotest.check_raises
        (Printf.sprintf "width %d" width)
        (Invalid_argument
           (Printf.sprintf
              "Time_table.bottleneck_core: width %d outside 1..12" width))
        (fun () -> ignore (Tt.bottleneck_core table ~width)))
    [ 0; 13 ]

let peak_row =
  QCheck.Test.make
    ~name:"time table: peak is the per-width maximum, non-increasing"
    ~count:30
    QCheck.(pair (int_range 1 1000) bool)
    (fun (seed, ties) ->
      let soc =
        if ties then tie_heavy_soc (Int64.of_int seed) ~cores:6
        else small_soc (Int64.of_int seed) ~cores:6
      in
      let table = Tt.build soc ~max_width:16 in
      let ok = ref true in
      for width = 1 to 16 do
        let top = ref 0 in
        for core = 0 to 5 do
          top := max !top (Tt.time table ~core ~width)
        done;
        if Tt.peak table ~width <> !top then ok := false;
        if Tt.bottleneck_bound table ~width <> !top then ok := false;
        if width > 1 && Tt.peak table ~width > Tt.peak table ~width:(width - 1)
        then ok := false
      done;
      !ok)

let peak_core_and_runner_up =
  QCheck.Test.make
    ~name:"time table: peak_core and runner_up match a scan of the cores"
    ~count:30
    QCheck.(triple (int_range 1 1000) (int_range 1 6) bool)
    (fun (seed, cores, ties) ->
      let soc =
        if ties then tie_heavy_soc (Int64.of_int seed) ~cores
        else small_soc (Int64.of_int seed) ~cores
      in
      let table = Tt.build soc ~max_width:16 in
      let ok = ref true in
      for width = 1 to 16 do
        let time core = Tt.time table ~core ~width in
        let peak = Tt.peak table ~width in
        let all = List.init cores Fun.id in
        let expected_core =
          match List.filter (fun c -> time c = peak) all with
          | [ c ] -> c
          | _ -> -1
        in
        let others = List.filter (fun c -> c <> expected_core) all in
        let expected_runner_up =
          List.fold_left (fun acc c -> max acc (time c)) 0 others
        in
        if Tt.peak_core table ~width <> expected_core then ok := false;
        if Tt.runner_up table ~width <> expected_runner_up then ok := false
      done;
      !ok)

(* -- Core_assign ---------------------------------------------------------- *)

let figure2_times =
  [|
    [| 50; 100; 200 |]; [| 75; 95; 200 |]; [| 90; 100; 150 |];
    [| 60; 75; 80 |]; [| 120; 120; 125 |];
  |]

let figure2_widths = [| 32; 16; 8 |]

let figure2_reproduced () =
  match Ca.run ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded _ -> Alcotest.fail "must complete"
  | Ca.Assigned { assignment; tam_times; time } ->
      Alcotest.(check (list int)) "assignment (paper Figure 2b)"
        [ 1; 2; 1; 0; 0 ] (Array.to_list assignment);
      Alcotest.(check (list int)) "loads 180/200/200" [ 180; 200; 200 ]
        (Array.to_list tam_times);
      Alcotest.(check int) "SOC time" 200 time

let core_assign_exceeded () =
  match Ca.run ~best:100 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded assigned ->
      Alcotest.(check bool) "stopped early" true (assigned >= 1 && assigned <= 5)
  | Ca.Assigned _ -> Alcotest.fail "100 cycles is unbeatable here"

let core_assign_threshold_boundary () =
  (* best exactly equal to the achievable time: >= triggers the exit. *)
  (match Ca.run ~best:200 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Exceeded _ -> ()
  | Ca.Assigned _ -> Alcotest.fail "equal threshold must abandon");
  match Ca.run ~best:201 ~times:figure2_times ~widths:figure2_widths () with
  | Ca.Assigned { time; _ } -> Alcotest.(check int) "201 admits 200" 200 time
  | Ca.Exceeded _ -> Alcotest.fail "201 must admit completion"

let core_assign_rejects_bad_inputs () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Ca.run ~times:[||] ~widths:[| 1 |] ());
  invalid (fun () -> Ca.run ~times:[| [| 1 |] |] ~widths:[||] ());
  invalid (fun () -> Ca.run ~times:[| [| 1; 2 |] |] ~widths:[| 4 |] ())

let random_ca_instance seed ~cores ~tams =
  let rng = Soctam_util.Prng.create seed in
  let widths =
    Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 32)
  in
  let times =
    Array.init cores (fun _ ->
        Array.init tams (fun _ -> 1 + Soctam_util.Prng.int rng 500))
  in
  (times, widths)

let core_assign_complete_and_consistent =
  QCheck.Test.make ~name:"Core_assign: assigns every core exactly once"
    ~count:200
    QCheck.(pair (int_range 1 20) (int_range 1 5))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 7) + tams)) ~cores ~tams
      in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { assignment; tam_times; time } ->
          Array.length assignment = cores
          && Array.for_all (fun j -> j >= 0 && j < tams) assignment
          && tam_times
             = Soctam_schedule.Makespan.loads_of_assignment
                 ~durations:(fun i j -> times.(i).(j))
                 ~assignment ~machines:tams
          && time = Soctam_util.Intutil.max_element tam_times)

let core_assign_never_beats_exact =
  QCheck.Test.make ~name:"Core_assign: never below the exact optimum"
    ~count:60
    QCheck.(pair (int_range 1 8) (int_range 1 3))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 11) + tams)) ~cores ~tams
      in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { time; _ } ->
          let exact = Exact.solve_bb ~times () in
          exact.Exact.optimal && time >= exact.Exact.time)

let core_assign_heuristic_quality =
  (* List scheduling on unrelated machines has no constant guarantee on
     adversarial matrices, but on realistic instances - times derived from
     wrapper designs, where a core's time shrinks with TAM width - the
     heuristic stays close to the optimum (the paper observes 0-20%).
     A regression tripwire at 1.75x. *)
  QCheck.Test.make
    ~name:"Core_assign: near-optimal on wrapper-derived instances" ~count:30
    QCheck.(pair (int_range 1 500) (int_range 2 3))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:7 in
      let table = Tt.build soc ~max_width:12 in
      let widths = if tams = 2 then [| 5; 7 |] else [| 3; 4; 5 |] in
      let times = Tt.matrix table ~widths in
      match Ca.run ~times ~widths () with
      | Ca.Exceeded _ -> false
      | Ca.Assigned { time; _ } ->
          let exact = Exact.solve_bb ~widths ~times () in
          float_of_int time <= 1.75 *. float_of_int exact.Exact.time)

let randomized_variant_is_sound =
  QCheck.Test.make ~name:"Core_assign: randomized variant stays valid"
    ~count:50
    QCheck.(pair (int_range 2 10) (int_range 2 4))
    (fun (cores, tams) ->
      let times, widths =
        random_ca_instance (Int64.of_int ((cores * 23) + tams)) ~cores ~tams
      in
      let rng = Soctam_util.Prng.create 9L in
      let assignment, time =
        Ca.run_randomized ~rng ~restarts:5 ~times ~widths ()
      in
      Array.length assignment = cores
      && Array.for_all (fun j -> j >= 0 && j < tams) assignment
      && time = Soctam_ilp.Exact.makespan ~times ~assignment)

(* The direct-table variant is a deliberate code twin of
   [run_table] (see core_assign.ml); this property is the pin
   that keeps the two loops behaviorally identical, including
   tie-breaking, early-exit step counts and stats accounting. *)
let equal_outcome a b =
  match (a, b) with
  | ( Ca.Assigned { assignment = a1; tam_times = l1; time = t1 },
      Ca.Assigned { assignment = a2; tam_times = l2; time = t2 } ) ->
      a1 = a2 && l1 = l2 && t1 = t2
  | Ca.Exceeded m, Ca.Exceeded n -> m = n
  | _ -> false

(* The second step's load by brute force: the first step puts the
   first core of largest time at [w1] on the widest TAM, the second the
   largest time at [w2] among the rest on the second-widest. *)
let step2_load table ~w1 ~w2 =
  let cores = Tt.core_count table in
  let c1 = ref 0 in
  for i = 1 to cores - 1 do
    if Tt.time table ~core:i ~width:w1 > Tt.time table ~core:!c1 ~width:w1
    then c1 := i
  done;
  let load = ref 0 in
  for i = 0 to cores - 1 do
    if i <> !c1 then load := max !load (Tt.time table ~core:i ~width:w2)
  done;
  !load

let direct_matches_table =
  QCheck.Test.make
    ~name:"Core_assign: run_table_direct identical to run_table"
    ~count:300
    QCheck.(quad (int_range 1 1000) (int_range 1 5) (int_range 0 4) bool)
    (fun (seed, tams, bound_kind, ties) ->
      let soc =
        if ties then tie_heavy_soc (Int64.of_int seed) ~cores:6
        else small_soc (Int64.of_int seed) ~cores:6
      in
      let table = Tt.build soc ~max_width:12 in
      let rng = Prng.create (Int64.of_int ((seed * 31) + tams)) in
      (* The second step can only exit before the first when the
         second-widest TAM is much narrower: bound kind 4 draws it so. *)
      let widths =
        Array.init tams (fun j ->
            1 + Prng.int rng (if bound_kind = 4 && j > 0 then 3 else 12))
      in
      let reference = Ca.run_table ~table ~widths () in
      let top2 widths =
        let sorted = Array.copy widths in
        Array.sort Int.compare sorted;
        let n = Array.length sorted in
        (sorted.(n - 1), if n > 1 then sorted.(n - 2) else 0)
      in
      (* Exercise every early-exit regime: no bound, a bound hit exactly
         (the Exceeded path), a loose bound, a tight one in
         [0, peak(w_max)] where the first step alone decides, and one in
         (peak(w_max), step-2 load] where the second step does (on the
         second-widest TAM, or on the same one when there is one). *)
      let best =
        let widest, second = top2 widths in
        let peak = Tt.peak table ~width:widest in
        match (bound_kind, reference) with
        | 3, _ -> Prng.int rng (peak + 1)
        | 4, _ ->
            let load =
              if second > 0 then step2_load table ~w1:widest ~w2:second
              else peak + step2_load table ~w1:widest ~w2:widest
            in
            peak + 1 + Prng.int rng (max 1 (load - peak))
        | 0, _ | _, Ca.Exceeded _ -> max_int
        | 1, Ca.Assigned { time; _ } -> time
        | _, Ca.Assigned { time; _ } -> time + 1 + Prng.int rng 50
      in
      let scratch = Ca.scratch () in
      let check widths =
        let sb = Ca.stats () and sd = Ca.stats () in
        let looped = Ca.run_table ~stats:sb ~best ~table ~widths () in
        let direct =
          Ca.run_table_direct ~stats:sd ~scratch ~best ~table ~widths ()
        in
        (* The closed-form first two steps agree with the loop that does
           not use them: a cut at step 1 or 2 exactly when the loop
           exits there, except that a tied first peak over two or more
           TAMs declines (0) and never names a wrong step. *)
        let widest, second = top2 widths in
        let step = Ca.cut ~table ~best ~widest ~second in
        let exited =
          match looped with Ca.Exceeded ((1 | 2) as k) -> k | _ -> 0
        in
        let declines = second > 0 && Tt.peak_core table ~width:widest < 0 in
        equal_outcome looped direct
        && (step = exited || (declines && exited = 2 && step = 0))
        && ((not declines) || step <> 2)
        && sb.Ca.tried = sd.Ca.tried
        && sb.Ca.early_terminations = sd.Ca.early_terminations
        && sb.Ca.levels_cut = sd.Ca.levels_cut
      in
      (* Second instance with the same scratch: stale state must not
         leak between evaluations. *)
      let widths2 = Array.init tams (fun _ -> 1 + Prng.int rng 12) in
      check widths && check widths2)

(* Lines 13-16 of Figure 1 as the paper words them: collect the cores
   tied on TAM [j], then compare them on the widest narrower TAM. The
   oracle for Core_assign's single-pass selection. *)
let reference_assign ~times ~widths =
  let cores = Array.length times and tams = Array.length widths in
  let loads = Array.make tams 0 and assignment = Array.make cores (-1) in
  for _ = 1 to cores do
    let j = ref 0 in
    for k = 1 to tams - 1 do
      if
        loads.(k) < loads.(!j)
        || (loads.(k) = loads.(!j) && widths.(k) > widths.(!j))
      then j := k
    done;
    let j = !j in
    let free = List.filter (fun i -> assignment.(i) < 0) (List.init cores Fun.id) in
    let top = List.fold_left (fun m i -> max m times.(i).(j)) (-1) free in
    let tied = List.filter (fun i -> times.(i).(j) = top) free in
    let narrower =
      List.filter (fun k -> widths.(k) < widths.(j)) (List.init tams Fun.id)
    in
    let i =
      match narrower with
      | [] -> List.hd tied
      | k0 :: _ ->
          let k =
            List.fold_left
              (fun a k -> if widths.(k) > widths.(a) then k else a)
              k0 narrower
          in
          List.fold_left
            (fun a i -> if times.(i).(k) > times.(a).(k) then i else a)
            (List.hd tied) tied
    in
    assignment.(i) <- j;
    loads.(j) <- loads.(j) + times.(i).(j)
  done;
  (assignment, loads)

let tie_break_matches_reference =
  QCheck.Test.make
    ~name:"Core_assign: tie-breaks match the two-pass reference" ~count:200
    QCheck.(triple (int_range 1 1000) (int_range 1 5) bool)
    (fun (seed, tams, ties) ->
      let soc =
        if ties then tie_heavy_soc (Int64.of_int seed) ~cores:7
        else small_soc (Int64.of_int seed) ~cores:7
      in
      let table = Tt.build soc ~max_width:12 in
      let rng = Prng.create (Int64.of_int seed) in
      let widths = Array.init tams (fun _ -> 1 + Prng.int rng 12) in
      let times = Tt.matrix table ~widths in
      let assignment, loads = reference_assign ~times ~widths in
      let agrees = function
        | Ca.Assigned { assignment = a; tam_times = l; _ } ->
            a = assignment && l = loads
        | Ca.Exceeded _ -> false
      in
      agrees (Ca.run ~times ~widths ())
      && agrees
           (Ca.run_table_direct ~scratch:(Ca.scratch ()) ~best:max_int ~table
              ~widths ()))

let randomized_restarts_help =
  QCheck.Test.make
    ~name:"Core_assign: more restarts never hurt (same seed)" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let times, widths =
        random_ca_instance (Int64.of_int seed) ~cores:8 ~tams:3
      in
      let one =
        snd
          (Ca.run_randomized
             ~rng:(Soctam_util.Prng.create 3L)
             ~restarts:1 ~times ~widths ())
      in
      let twenty =
        snd
          (Ca.run_randomized
             ~rng:(Soctam_util.Prng.create 3L)
             ~restarts:20 ~times ~widths ())
      in
      twenty <= one)

let randomized_never_beats_exact =
  QCheck.Test.make ~name:"Core_assign: randomized variant above the optimum"
    ~count:30
    QCheck.(int_range 1 300)
    (fun seed ->
      let times, widths =
        random_ca_instance (Int64.of_int seed) ~cores:6 ~tams:3
      in
      let _, time =
        Ca.run_randomized
          ~rng:(Soctam_util.Prng.create 11L)
          ~restarts:10 ~times ~widths ()
      in
      time >= (Soctam_ilp.Exact.solve_bb ~times ()).Soctam_ilp.Exact.time)

let randomized_validation () =
  let times = [| [| 1; 2 |] |] and widths = [| 2; 2 |] in
  match
    Ca.run_randomized
      ~rng:(Soctam_util.Prng.create 1L)
      ~restarts:0 ~times ~widths ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restarts 0 accepted"

(* -- Sweep ------------------------------------------------------------------ *)

let sweep_points_consistent =
  QCheck.Test.make ~name:"Sweep: per-point invariants" ~count:6
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let points =
        Runners.sweep_run ~max_tams:4 soc ~widths:[ 6; 10; 14 ]
      in
      List.length points = 3
      && List.for_all
           (fun (p : Soctam_core.Sweep.point) ->
             Soctam_util.Intutil.sum p.Soctam_core.Sweep.widths
             = p.Soctam_core.Sweep.width
             && p.Soctam_core.Sweep.tams
                = Array.length p.Soctam_core.Sweep.widths
             && p.Soctam_core.Sweep.time >= p.Soctam_core.Sweep.lower_bound
             && p.Soctam_core.Sweep.gap_pct >= 0.)
           points)

let sweep_knee_selection () =
  let mk width time =
    {
      Soctam_core.Sweep.width;
      tams = 1;
      widths = [| width |];
      time;
      lower_bound = time;
      gap_pct = 0.;
      saturated = false;
    }
  in
  let points = [ mk 16 200; mk 24 105; mk 32 101; mk 40 100 ] in
  (match Soctam_core.Sweep.knee ~tolerance_pct:5. points with
  | Some p -> Alcotest.(check int) "narrowest within 5%" 24 p.Soctam_core.Sweep.width
  | None -> Alcotest.fail "knee expected");
  (match Soctam_core.Sweep.knee ~tolerance_pct:0. points with
  | Some p -> Alcotest.(check int) "exact best" 40 p.Soctam_core.Sweep.width
  | None -> Alcotest.fail "knee expected");
  Alcotest.(check bool) "empty" true (Soctam_core.Sweep.knee [] = None)

let sweep_validation () =
  let soc = small_soc 3L ~cores:3 in
  (match Runners.sweep_run soc ~widths:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty widths accepted");
  match Runners.sweep_run soc ~widths:[ 4; 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero width accepted"

(* -- Partition_evaluate ---------------------------------------------------- *)

let brute_force_partition_best table ~total_width ~max_tams =
  (* Reference: evaluate every partition with an unpruned Core_assign. *)
  let best = ref max_int in
  for tams = 1 to max_tams do
    Soctam_partition.Enumerate.iter ~total:total_width ~parts:tams
      (fun widths ->
        match Ca.run_table ~table ~widths () with
        | Ca.Assigned { time; _ } -> if time < !best then best := time
        | Ca.Exceeded _ -> Alcotest.fail "no threshold given")
  done;
  !best

let pruning_preserves_best =
  QCheck.Test.make
    ~name:"Partition_evaluate: tau pruning never changes the result"
    ~count:12
    QCheck.(pair (int_range 1 200) (int_range 4 12))
    (fun (seed, total_width) ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:total_width in
      let result = Runners.pe_run ~table ~total_width ~max_tams:4 () in
      result.Pe.time
      = brute_force_partition_best table ~total_width ~max_tams:4)

let stats_account_for_everything =
  QCheck.Test.make ~name:"Partition_evaluate: statistics add up" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:12 in
      let result = Runners.pe_run ~table ~total_width:12 ~max_tams:5 () in
      Array.for_all
        (fun s ->
          s.Pe.enumerated = s.Pe.unique_partitions
          && s.Pe.completed + s.Pe.tau_terminated = s.Pe.enumerated
          && Pe.efficiency s >= 0.
          && Pe.efficiency s <= 1.)
        result.Pe.per_b)

let partition_result_is_consistent =
  QCheck.Test.make ~name:"Partition_evaluate: result widths and assignment"
    ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:14 in
      let r = Runners.pe_run ~table ~total_width:14 ~max_tams:4 () in
      Soctam_util.Intutil.sum r.Pe.widths = 14
      && Array.length r.Pe.assignment = 6
      && Exact.makespan
           ~times:(Tt.matrix table ~widths:r.Pe.widths)
           ~assignment:r.Pe.assignment
         = r.Pe.time)

let tau_reset_weakens_pruning_only =
  QCheck.Test.make
    ~name:"Partition_evaluate: carry_tau changes statistics, not the result"
    ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:12 in
      let carried = Runners.pe_run ~carry_tau:true ~table ~total_width:12 ~max_tams:4 () in
      let reset = Runners.pe_run ~carry_tau:false ~table ~total_width:12 ~max_tams:4 () in
      let completions r =
        Array.fold_left (fun acc s -> acc + s.Pe.completed) 0 r.Pe.per_b
      in
      carried.Pe.time = reset.Pe.time
      && carried.Pe.widths = reset.Pe.widths
      && completions carried <= completions reset)

let run_fixed_restricts_b () =
  let soc = small_soc 33L ~cores:5 in
  let table = Tt.build soc ~max_width:10 in
  let r = Runners.pe_run_fixed ~table ~total_width:10 ~tams:3 () in
  Alcotest.(check int) "three TAMs" 3 (Array.length r.Pe.widths);
  Alcotest.(check int) "one stats entry" 1 (Array.length r.Pe.per_b);
  Alcotest.(check int) "p(10,3) enumerated" 8 r.Pe.per_b.(0).Pe.enumerated

let partition_evaluate_validation () =
  let soc = small_soc 1L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Runners.pe_run ~table ~total_width:0 ~max_tams:2 ());
  invalid (fun () -> Runners.pe_run ~table ~total_width:9 ~max_tams:2 ());
  invalid (fun () -> Runners.pe_run_fixed ~table ~total_width:4 ~tams:5 ())

let fewer_tams_than_requested_is_fine () =
  (* max_tams larger than the width: B is silently capped. *)
  let soc = small_soc 2L ~cores:4 in
  let table = Tt.build soc ~max_width:3 in
  let r = Runners.pe_run ~table ~total_width:3 ~max_tams:10 () in
  Alcotest.(check int) "stats for B = 1..3" 3 (Array.length r.Pe.per_b)

(* d695 at W = 40, P_NPAW (B <= 10) at jobs = 1: an instance where the
   block skip of cut odometer blocks fires (it settles 6,770 of the
   16,928 ranks without visiting them) and 6,503 ranks end at the
   closed-form second step. The architecture and every counter are the
   ones the rank-by-rank evaluation produced before either existed. *)
let d695_w40_counters =
  [
    ("core_assign/assignments_tried", 28141);
    ("core_assign/early_terminations", 16906);
    ("core_assign/levels_cut", 141139);
    ("partition/enumerated", 16928);
    ("partition/evaluated", 22);
    ("partition/pruned", 16906);
    ("pool/chunks", 26);
    ("pool/tau_publications", 22);
  ]

let pinned_run_skip_instance () =
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:40 in
  let stats = Obs.create () in
  let r =
    Runners.pe_run ~stats ~jobs:1 ~table ~total_width:40 ~max_tams:10 ()
  in
  Alcotest.(check (array int)) "widths" [| 4; 4; 8; 12; 12 |] r.Pe.widths;
  Alcotest.(check int) "time" 19196 r.Pe.time;
  Alcotest.(check (array int))
    "assignment" [| 0; 4; 2; 1; 2; 3; 0; 1; 1; 4 |] r.Pe.assignment;
  let snap = Obs.snapshot stats in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) name n (Obs.counter_value snap name))
    d695_w40_counters

(* p31108 at W = 96 saturates at its bottleneck floor, so almost every
   partition ties the incumbent. A racing worker must not complete those
   ties: only a tie whose rank is below the incumbent's can win. Before
   the (time, rank) incumbent, jobs = 2 completed 1.8 M of them; the
   bound is loose because parallel counts depend on the schedule. *)
let p31108_w96_ties_pruned_at_jobs2 () =
  let table = Tt.build (Soctam_soc_data.Philips.soc_p31108 ()) ~max_width:96 in
  let seq = Runners.pe_run ~jobs:1 ~table ~total_width:96 ~max_tams:10 () in
  let stats = Obs.create () in
  let par =
    Runners.pe_run ~stats ~jobs:2 ~table ~total_width:96 ~max_tams:10 ()
  in
  Alcotest.(check (array int)) "widths" seq.Pe.widths par.Pe.widths;
  Alcotest.(check int) "time" seq.Pe.time par.Pe.time;
  Alcotest.(check (array int)) "assignment" seq.Pe.assignment par.Pe.assignment;
  let evaluated =
    Obs.counter_value (Obs.snapshot stats) "partition/evaluated"
  in
  Alcotest.(check bool)
    (Printf.sprintf "partition/evaluated %d <= 10000" evaluated)
    true (evaluated <= 10_000)

(* d695 at W = 88, P_NPAW (B <= 10) at jobs = 1: a wide instance where
   nearly every rank is settled by the closed-form first two steps and
   the block skip. The architecture and every counter are the ones the
   rank-by-rank evaluation produces; jobs = 2 must find the same
   architecture. *)
let d695_w88_counters =
  [
    ("core_assign/assignments_tried", 3_452_219);
    ("core_assign/early_terminations", 2_543_793);
    ("core_assign/levels_cut", 21_986_271);
    ("partition/enumerated", 2_543_849);
    ("partition/evaluated", 56);
    ("partition/pruned", 2_543_793);
  ]

let pinned_block_skip_instance () =
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:88 in
  let stats = Obs.create () in
  let r =
    Runners.pe_run ~stats ~jobs:1 ~table ~total_width:88 ~max_tams:10 ()
  in
  Alcotest.(check (array int)) "widths" [| 3; 7; 9; 17; 21; 31 |] r.Pe.widths;
  Alcotest.(check int) "time" 9878 r.Pe.time;
  let snap = Obs.snapshot stats in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) name n (Obs.counter_value snap name))
    d695_w88_counters;
  let par = Runners.pe_run ~jobs:2 ~table ~total_width:88 ~max_tams:10 () in
  Alcotest.(check (array int)) "jobs=2 widths" r.Pe.widths par.Pe.widths;
  Alcotest.(check int) "jobs=2 time" r.Pe.time par.Pe.time;
  Alcotest.(check (array int))
    "jobs=2 assignment" r.Pe.assignment par.Pe.assignment

let tau_import_fallback () =
  (* An imported bound below every achievable time cuts every
     partition, so the run falls back to the even split, which must
     still honour the fixed TAM count; a bound above the optimum
     reproduces the plain run. *)
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:10 in
  let run ?tau_import () =
    Runners.pe_run_fixed ?tau_import ~table ~total_width:10 ~tams:3 ()
  in
  let plain = run () in
  let loose = run ~tau_import:(plain.Pe.time + 1) () in
  Alcotest.(check int) "loose import reproduces" plain.Pe.time loose.Pe.time;
  Alcotest.(check (array int))
    "loose import: same widths" plain.Pe.widths loose.Pe.widths;
  let cut = run ~tau_import:1 () in
  Array.iter
    (fun s -> Alcotest.(check int) "nothing completes" 0 s.Pe.completed)
    cut.Pe.per_b;
  Alcotest.(check (array int)) "fallback keeps B" [| 4; 3; 3 |] cut.Pe.widths;
  Alcotest.(check int) "fallback widths sum" 10
    (Soctam_util.Intutil.sum cut.Pe.widths)

(* -- Exhaustive baseline --------------------------------------------------- *)

let exhaustive_is_optimal =
  QCheck.Test.make
    ~name:"Exhaustive: matches brute force over partitions x assignments"
    ~count:8
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let total_width = 8 and tams = 2 in
      let table = Tt.build soc ~max_width:total_width in
      let reference =
        Soctam_partition.Enumerate.fold ~total:total_width ~parts:tams
          ~init:max_int
          ~f:(fun acc widths ->
            let times = Tt.matrix table ~widths in
            min acc (Exact.solve_bb ~times ()).Exact.time)
      in
      let r = Runners.ex_run ~table ~total_width ~tams () in
      Soctam_core.Outcome.is_complete r.Ex.outcome && r.Ex.time = reference)

let exhaustive_budget_degrades () =
  (* Starving the per-partition node budget must yield a usable incumbent
     flagged as incomplete, never a false optimality claim. *)
  let soc = small_soc 62L ~cores:6 in
  let table = Tt.build soc ~max_width:14 in
  let full = Runners.ex_run ~table ~total_width:14 ~tams:3 () in
  Alcotest.(check bool) "full run complete" true
    (Soctam_core.Outcome.is_complete full.Ex.outcome);
  let starved =
    Runners.ex_run ~node_limit_per_partition:1 ~table ~total_width:14 ~tams:3 ()
  in
  Alcotest.(check bool) "starved run incomplete" false
    (Soctam_core.Outcome.is_complete starved.Ex.outcome);
  Alcotest.(check bool) "incumbent no better than optimum" true
    (starved.Ex.time >= full.Ex.time)

let exhaustive_counts_partitions () =
  let soc = small_soc 3L ~cores:4 in
  let table = Tt.build soc ~max_width:10 in
  let r = Runners.ex_run ~table ~total_width:10 ~tams:3 () in
  Alcotest.(check int) "p(10,3) = 8" 8 r.Ex.partitions_total;
  Alcotest.(check int) "all solved" 8 r.Ex.partitions_solved;
  Alcotest.(check bool) "complete" true
    (Soctam_core.Outcome.is_complete r.Ex.outcome)

let exhaustive_zero_budget_truncates () =
  (* The deadline is monotonic and consulted only after the first
     partition of each chunk: even a zero budget must return a
     well-formed truncated incumbent, never raise. *)
  let soc = small_soc 11L ~cores:5 in
  let table = Tt.build soc ~max_width:12 in
  let r = Runners.ex_run ~time_budget:0. ~table ~total_width:12 ~tams:3 () in
  Alcotest.(check int) "widths sum to W" 12
    (Soctam_util.Intutil.sum r.Ex.widths);
  Alcotest.(check int) "assignment covers every core" 5
    (Array.length r.Ex.assignment);
  Alcotest.(check bool) "at least one partition solved" true
    (r.Ex.partitions_solved >= 1);
  Alcotest.(check bool) "truncated run not marked complete" false
    (Soctam_core.Outcome.is_complete r.Ex.outcome);
  let full = Runners.ex_run ~table ~total_width:12 ~tams:3 () in
  Alcotest.(check bool) "incumbent no better than optimum" true
    (r.Ex.time >= full.Ex.time)

let exhaustive_parallel_matches_sequential () =
  (* One cheap fixed-instance determinism check in tier 1; the seeded
     100-case qcheck version lives in test_parallel.ml (@runtest-slow). *)
  let soc = small_soc 21L ~cores:5 in
  let table = Tt.build soc ~max_width:11 in
  let seq = Runners.ex_run ~jobs:1 ~table ~total_width:11 ~tams:3 () in
  let par = Runners.ex_run ~jobs:4 ~table ~total_width:11 ~tams:3 () in
  Alcotest.(check int) "time" seq.Ex.time par.Ex.time;
  Alcotest.(check (array int)) "widths" seq.Ex.widths par.Ex.widths;
  Alcotest.(check (array int)) "assignment" seq.Ex.assignment
    par.Ex.assignment;
  let pseq = Runners.pe_run ~jobs:1 ~table ~total_width:11 ~max_tams:4 () in
  let ppar = Runners.pe_run ~jobs:4 ~table ~total_width:11 ~max_tams:4 () in
  Alcotest.(check int) "heuristic time" pseq.Pe.time ppar.Pe.time;
  Alcotest.(check (array int)) "heuristic widths" pseq.Pe.widths
    ppar.Pe.widths;
  Alcotest.(check (array int)) "heuristic assignment" pseq.Pe.assignment
    ppar.Pe.assignment

let exhaustive_beats_or_matches_heuristic =
  QCheck.Test.make ~name:"Exhaustive: never worse than Partition_evaluate"
    ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:10 in
      let heuristic = Runners.pe_run_fixed ~table ~total_width:10 ~tams:2 () in
      let exact = Runners.ex_run ~table ~total_width:10 ~tams:2 () in
      exact.Ex.time <= heuristic.Pe.time)

(* Exhaustive at jobs = 1 on three budgets: a complete run, a run whose
   per-partition node budget stops the slice at its first partition,
   and a zero time budget, which stops after the first solve. The
   sequence of solves, and so every figure here, is the one the
   sequential search has always produced. *)
let exhaustive_jobs1_pinned () =
  let table = Tt.build (small_soc 62L ~cores:6) ~max_width:14 in
  let check name ?node_limit_per_partition ?time_budget ~time ~widths
      ~solved ~nodes ~complete () =
    let stats = Obs.create () in
    let r =
      Runners.ex_run ~stats ~jobs:1 ?node_limit_per_partition ?time_budget
        ~table ~total_width:14 ~tams:3 ()
    in
    let snap = Obs.snapshot stats in
    Alcotest.(check int) (name ^ ": time") time r.Ex.time;
    Alcotest.(check (array int)) (name ^ ": widths") widths r.Ex.widths;
    Alcotest.(check int) (name ^ ": partitions_solved") solved
      r.Ex.partitions_solved;
    Alcotest.(check int) (name ^ ": nodes") nodes r.Ex.nodes;
    Alcotest.(check int)
      (name ^ ": exhaustive/partitions_solved")
      solved
      (Obs.counter_value snap "exhaustive/partitions_solved");
    Alcotest.(check int) (name ^ ": exhaustive/nodes") nodes
      (Obs.counter_value snap "exhaustive/nodes");
    Alcotest.(check bool) (name ^ ": complete") complete
      (Soctam_core.Outcome.is_complete r.Ex.outcome)
  in
  check "complete" ~time:7386 ~widths:[| 3; 5; 6 |] ~solved:16 ~nodes:173
    ~complete:true ();
  check "node limit 1" ~node_limit_per_partition:1 ~time:21070
    ~widths:[| 1; 1; 12 |] ~solved:0 ~nodes:2 ~complete:false ();
  check "zero budget" ~time_budget:0. ~time:14056 ~widths:[| 1; 1; 12 |]
    ~solved:1 ~nodes:6 ~complete:false ()

(* An imported bound warm-starts every B&B solve with a placeholder
   assignment at the bound's time. A tie with the optimum must not
   surface that placeholder as the engine's own architecture; a looser
   bound leaves the optimum to be found. *)
let exhaustive_tau_import () =
  let table = Tt.build (small_soc 62L ~cores:6) ~max_width:14 in
  let plain = Runners.ex_run ~table ~total_width:14 ~tams:3 () in
  let run cap =
    Ex.run_with
      (Runners.cfg ~tams:3 ~tau_import:cap ())
      ~table ~total_width:14 ~tams:3
  in
  let tied = run plain.Ex.time in
  Alcotest.(check int) "tied: the import's time" plain.Ex.time tied.Ex.time;
  Alcotest.(check (array int)) "tied: no architecture of its own" [||]
    tied.Ex.widths;
  Alcotest.(check (array int)) "tied: no assignment" [||] tied.Ex.assignment;
  let loose = run (plain.Ex.time + 1) in
  Alcotest.(check int) "loose: the optimum" plain.Ex.time loose.Ex.time;
  Alcotest.(check (array int)) "loose: widths" plain.Ex.widths loose.Ex.widths;
  Alcotest.(check (array int))
    "loose: assignment" plain.Ex.assignment loose.Ex.assignment

(* A sweep stopped by its slice limit inside a width pays the exact
   finish only for the widths it completed: W = 4 completes within three
   slices of four ranks, W = 12 needs six and is truncated. *)
let sweep_truncated_width_skips_finish () =
  let soc = small_soc 5L ~cores:4 in
  let stats = Obs.create () in
  let cfg =
    Runners.cfg ~stats ~max_tams:3 ()
    |> Soctam_core.Run_config.with_checkpoint_every 4
    |> Soctam_core.Run_config.with_slice_limit 3
  in
  let r = Soctam_core.Sweep.run_with cfg soc ~widths:[ 4; 12 ] in
  Alcotest.(check bool) "truncated" false
    (Soctam_core.Outcome.is_complete r.Soctam_core.Sweep.outcome);
  let completed = List.length r.Soctam_core.Sweep.points in
  Alcotest.(check int) "completed widths" 1 completed;
  let finishes =
    match
      List.assoc_opt "co_optimize/exact_step" (Obs.snapshot stats).Obs.spans
    with
    | Some s -> s.Obs.s_count
    | None -> 0
  in
  Alcotest.(check int) "exact steps = completed widths" completed finishes

(* -- Co_optimize ----------------------------------------------------------- *)

let pipeline_invariants =
  QCheck.Test.make ~name:"Co_optimize: final step only improves" ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let r = Runners.co_run ~max_tams:4 soc ~total_width:12 in
      let arch = r.Co.architecture in
      r.Co.final_time <= r.Co.heuristic_time
      && r.Co.final_time = arch.Soctam_tam.Architecture.time
      && Soctam_util.Intutil.sum arch.Soctam_tam.Architecture.widths = 12)

let pipeline_lower_bound =
  QCheck.Test.make ~name:"Co_optimize: never below the bottleneck bound"
    ~count:10
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let r = Runners.co_run ~table ~max_tams:4 soc ~total_width:12 in
      r.Co.final_time >= Tt.bottleneck_bound table ~width:12)

let pipeline_fixed_tams () =
  let soc = small_soc 44L ~cores:6 in
  let r = Runners.co_run_fixed_tams soc ~total_width:12 ~tams:3 in
  Alcotest.(check int) "three TAMs" 3
    (Array.length r.Co.architecture.Soctam_tam.Architecture.widths)

let pipeline_rejects_narrow_table () =
  let soc = small_soc 45L ~cores:3 in
  let table = Tt.build soc ~max_width:8 in
  Alcotest.check_raises "table too narrow"
    (Invalid_argument "Run_config.tam_plan: time table narrower than total width")
    (fun () -> ignore (Runners.co_run ~table soc ~total_width:16))

let final_step_matches_exact =
  QCheck.Test.make
    ~name:"Co_optimize: final time is optimal for the chosen partition"
    ~count:8
    QCheck.(int_range 1 40)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:10 in
      let r = Runners.co_run ~table ~max_tams:3 soc ~total_width:10 in
      let times =
        Tt.matrix table ~widths:r.Co.architecture.Soctam_tam.Architecture.widths
      in
      r.Co.final_proven_optimal
      && r.Co.final_time = (Exact.solve_bb ~times ()).Exact.time)

(* The pipeline's one truncation rule: a search stopped after its first
   slice reports its raw incumbent and runs no exact step; a complete
   search is the [pe] engine's report, field for field. *)
let pipeline_truncation_rule () =
  let module Rc = Soctam_core.Run_config in
  let module E = Soctam_core.Engine in
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:32 in
  let stats = Obs.create () in
  let cut =
    Co.run
      Rc.(default |> with_stats stats |> with_slice_limit 1
          |> with_checkpoint_every 7)
      ~table ~total_width:32
  in
  Alcotest.(check bool) "truncated" true
    (match cut.Co.outcome with
    | Soctam_core.Outcome.Budget_exhausted _ -> true
    | Soctam_core.Outcome.Complete | Soctam_core.Outcome.Interrupted _ ->
        false);
  Alcotest.(check int) "raw incumbent" 37327 cut.Co.heuristic_time;
  Alcotest.(check int) "final = heuristic" cut.Co.heuristic_time
    cut.Co.final_time;
  Alcotest.(check bool) "not proven" false cut.Co.final_proven_optimal;
  Alcotest.(check bool) "no exact step" false
    (List.mem_assoc "co_optimize/exact_step" (Obs.snapshot stats).Obs.spans);
  let co = Co.run Rc.default ~table ~total_width:32 in
  let pe = E.run E.pe Rc.default { E.table; total_width = 32 } in
  let arch = co.Co.architecture in
  Alcotest.(check bool) "complete" true
    (Soctam_core.Outcome.is_complete co.Co.outcome);
  Alcotest.(check (array int)) "widths" arch.Soctam_tam.Architecture.widths
    pe.E.r_widths;
  Alcotest.(check int) "time" co.Co.final_time pe.E.r_time;
  Alcotest.(check (array int)) "assignment"
    arch.Soctam_tam.Architecture.assignment pe.E.r_assignment

(* -- Bounds ----------------------------------------------------------------- *)

let bounds_admissible =
  QCheck.Test.make ~name:"Bounds: never above the exhaustive optimum"
    ~count:8
    QCheck.(int_range 1 60)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:9 in
      let bounds = Soctam_core.Bounds.compute table ~total_width:9 in
      let optimum =
        List.fold_left
          (fun acc tams ->
            min acc (Runners.ex_run ~table ~total_width:9 ~tams ()).Ex.time)
          max_int [ 1; 2; 3 ]
      in
      bounds.Soctam_core.Bounds.combined <= optimum
      && bounds.Soctam_core.Bounds.combined
         = max bounds.Soctam_core.Bounds.bottleneck
             bounds.Soctam_core.Bounds.wire_volume)

let bounds_bottleneck_core () =
  let soc = small_soc 21L ~cores:6 in
  let table = Tt.build soc ~max_width:10 in
  let b = Soctam_core.Bounds.compute table ~total_width:10 in
  Alcotest.(check int) "bottleneck agrees with the table"
    (Tt.bottleneck_bound table ~width:10)
    b.Soctam_core.Bounds.bottleneck;
  Alcotest.(check int) "core agrees"
    (Tt.bottleneck_core table ~width:10)
    b.Soctam_core.Bounds.bottleneck_core

let bounds_gap_and_saturation () =
  let soc = small_soc 22L ~cores:4 in
  let table = Tt.build soc ~max_width:8 in
  let b = Soctam_core.Bounds.compute table ~total_width:8 in
  Alcotest.(check (float 1e-9)) "zero gap at the bound" 0.
    (Soctam_core.Bounds.gap_pct b ~time:b.Soctam_core.Bounds.combined);
  Alcotest.(check bool) "gap positive above" true
    (Soctam_core.Bounds.gap_pct b ~time:(b.Soctam_core.Bounds.combined + 10)
    > 0.);
  Alcotest.(check bool) "saturated detection" true
    (Soctam_core.Bounds.saturated b ~time:b.Soctam_core.Bounds.bottleneck);
  Alcotest.(check bool) "not saturated above" false
    (Soctam_core.Bounds.saturated b
       ~time:(b.Soctam_core.Bounds.bottleneck + 1))

let bounds_validation () =
  let soc = small_soc 23L ~cores:3 in
  let table = Tt.build soc ~max_width:6 in
  match Soctam_core.Bounds.compute table ~total_width:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow table accepted"

let order_row =
  QCheck.Test.make ~name:"time table: per-width order" ~count:30
    QCheck.(triple (int_range 1 1000) (int_range 1 8) bool)
    (fun (seed, cores, ties) ->
      let soc =
        if ties then tie_heavy_soc (Int64.of_int seed) ~cores
        else small_soc (Int64.of_int seed) ~cores
      in
      let table = Tt.build soc ~max_width:16 in
      let all = List.init cores Fun.id in
      let ok = ref true in
      for width = 1 to 16 do
        let time core = Tt.time table ~core ~width in
        let order = (Tt.orders table).(width - 1) in
        if List.sort Int.compare (Array.to_list order) <> all then ok := false;
        for p = 1 to Array.length order - 1 do
          let c = order.(p - 1) and d = order.(p) in
          if time c < time d || (time c = time d && c > d) then ok := false
        done;
        let top = List.fold_left (fun acc c -> max acc (time c)) 0 all in
        let holders = List.filter (fun c -> time c = top) all in
        let first = List.hd holders in
        let others = List.filter (fun c -> c <> first) all in
        if Tt.peak table ~width <> top then ok := false;
        let expected_core = if List.length holders = 1 then first else -1 in
        if Tt.peak_core table ~width <> expected_core then ok := false;
        if
          Tt.runner_up table ~width
          <> List.fold_left (fun acc c -> max acc (time c)) 0 others
        then ok := false
      done;
      !ok)

(* Four combinational cores, hand-built so their rows are known. Cores
   0, 1 and 2 all take 20 cycles at width 8 but 50, 30 and 40 at width
   2; core 3 takes 40 at width 8 and 100 at width 2. *)
let tie_run_soc =
  Soctam_model.Soc.make ~name:"tie-run"
    ~cores:
      (List.mapi
         (fun i (inputs, patterns) ->
           Soctam_model.Core_data.make ~id:(i + 1)
             ~name:(Printf.sprintf "c%d" (i + 1))
             ~inputs ~outputs:0 ~patterns ())
         [ (8, 10); (4, 10); (6, 10); (8, 20) ])

let tie_run_in_order_walk () =
  let table = Tt.build tie_run_soc ~max_width:8 in
  let row width = List.init 4 (fun core -> Tt.time table ~core ~width) in
  Alcotest.(check (list int)) "rows at width 8" [ 20; 20; 20; 40 ] (row 8);
  Alcotest.(check (list int)) "rows at width 2" [ 50; 30; 40; 100 ] (row 2);
  let both widths =
    let ref_stats = Ca.stats () and direct_stats = Ca.stats () in
    let reference = Ca.run_table ~stats:ref_stats ~table ~widths () in
    let direct =
      Ca.run_table_direct ~stats:direct_stats ~scratch:(Ca.scratch ())
        ~best:max_int ~table ~widths ()
    in
    Alcotest.(check bool) "run_table_direct = run: outcome" true
      (direct = reference);
    Alcotest.(check bool) "run_table_direct = run: stats" true
      (direct_stats = ref_stats);
    direct
  in
  (* Widths 8 and 2: core 3 goes to the wide TAM, core 0 to the narrow
     one, and then the wide TAM meets cores 0, 1 and 2 tied at 20 with
     core 0 taken. The narrow TAM's times, 30 and 40, pick core 2. *)
  (match both [| 8; 2 |] with
  | Ca.Assigned { assignment; tam_times; time } ->
      Alcotest.(check (list int)) "two TAMs: assignment" [ 1; 1; 0; 0 ]
        (Array.to_list assignment);
      Alcotest.(check (list int)) "two TAMs: loads" [ 60; 80 ]
        (Array.to_list tam_times);
      Alcotest.(check int) "two TAMs: time" 80 time
  | Ca.Exceeded _ -> Alcotest.fail "no bound: must complete");
  (* One TAM: no narrower TAM, so the tie goes to the lowest index. *)
  match both [| 8 |] with
  | Ca.Assigned { assignment; time; _ } ->
      Alcotest.(check (list int)) "one TAM: assignment" [ 0; 0; 0; 0 ]
        (Array.to_list assignment);
      Alcotest.(check int) "one TAM: time" 100 time
  | Ca.Exceeded _ -> Alcotest.fail "no bound: must complete"

let suite =
  [
    qtest table_matches_wrapper;
    test "time table: accessors" table_accessors;
    test "time table: matrix" table_matrix;
    test "time table: bottleneck" bottleneck_identifies_max;
    test "Core_assign: Figure 2 reproduced" figure2_reproduced;
    test "Core_assign: early exit" core_assign_exceeded;
    test "Core_assign: threshold boundary" core_assign_threshold_boundary;
    test "Core_assign: bad inputs" core_assign_rejects_bad_inputs;
    qtest core_assign_complete_and_consistent;
    qtest core_assign_never_beats_exact;
    qtest core_assign_heuristic_quality;
    qtest direct_matches_table;
    qtest tie_break_matches_reference;
    qtest randomized_variant_is_sound;
    qtest randomized_restarts_help;
    qtest randomized_never_beats_exact;
    test "Core_assign: randomized validation" randomized_validation;
    qtest sweep_points_consistent;
    test "Sweep: knee selection" sweep_knee_selection;
    test "Sweep: validation" sweep_validation;
    qtest pruning_preserves_best;
    qtest stats_account_for_everything;
    qtest partition_result_is_consistent;
    qtest tau_reset_weakens_pruning_only;
    test "Partition_evaluate: fixed B" run_fixed_restricts_b;
    test "Partition_evaluate: validation" partition_evaluate_validation;
    test "Partition_evaluate: B capped by width" fewer_tams_than_requested_is_fine;
    test "Partition_evaluate: an import below every time falls back"
      tau_import_fallback;
    test "Partition_evaluate: pinned d695 W=40 run-skip instance"
      pinned_run_skip_instance;
    qtest exhaustive_is_optimal;
    test "Exhaustive: budget degradation" exhaustive_budget_degrades;
    test "Exhaustive: partition accounting" exhaustive_counts_partitions;
    test "Exhaustive: zero budget still well-formed"
      exhaustive_zero_budget_truncates;
    test "parallel evaluation matches sequential"
      exhaustive_parallel_matches_sequential;
    qtest exhaustive_beats_or_matches_heuristic;
    qtest pipeline_invariants;
    qtest pipeline_lower_bound;
    test "Co_optimize: fixed TAM count" pipeline_fixed_tams;
    test "Co_optimize: narrow table rejected" pipeline_rejects_narrow_table;
    qtest final_step_matches_exact;
    qtest bounds_admissible;
    test "Bounds: bottleneck core" bounds_bottleneck_core;
    test "Bounds: gap and saturation" bounds_gap_and_saturation;
    test "Bounds: validation" bounds_validation;
    qtest peak_row;
    test "Partition_evaluate: p31108 W=96 jobs=2 prunes ties like jobs=1"
      p31108_w96_ties_pruned_at_jobs2;
    qtest peak_core_and_runner_up;
    test "Partition_evaluate: pinned d695 W=88 block-skip instance"
      pinned_block_skip_instance;
    test "Exhaustive: jobs=1 pinned complete, node-limit and zero-budget runs"
      exhaustive_jobs1_pinned;
    test "Sweep: a truncated width runs no exact finish"
      sweep_truncated_width_skips_finish;
    test "Exhaustive: an imported bound is never reported as its own"
      exhaustive_tau_import;
    test "time table: bottleneck_core checks the width"
      bottleneck_checks_width;
    test "Co_optimize: a truncated search reports its raw incumbent"
      pipeline_truncation_rule;
    qtest order_row;
    test "Core_assign: tie runs in the order walk" tie_run_in_order_walk;
  ]
