(* The rectangle-packing engine, differentially tested against the
   exact solvers. Three layers:

   - qcheck geometry: the raw level packings (every heuristic order)
     certify cleanly as rectangle schedules and never undercut the
     strip-packing lower bound;
   - the differential suite: the engine's distilled time is never below
     the exhaustive test-bus optimum (d695 and random SOCs, P_NPAW and
     fixed-B), and every emitted schedule passes the packing certifier
     against the time table;
   - the run lifecycle: kill-and-resume at slice boundaries, byte-equal
     results across job counts, zero-budget truncation, and the
     byte-exact engine-comparison golden under test/data. *)

module Pk = Soctam_pack.Pack_engine
module Lp = Soctam_pack.Level_pack
module Rb = Soctam_pack.Rect_build
module Ps = Soctam_pack.Pack_schedule
module Sc = Soctam_check.Schedule_check
module Cp = Soctam_core.Checkpoint
module Rc = Soctam_core.Run_config
module Oc = Soctam_core.Outcome
module Ex = Soctam_core.Exhaustive
module Tt = Soctam_core.Time_table
module Pj = Soctam_report.Pack_json
module Obs = Soctam_obs.Obs
module Prng = Soctam_util.Prng

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop
let clean = function [] -> true | _ :: _ -> false

let small_soc seed ~cores =
  let rng = Prng.create seed in
  Soctam_soc_data.Random_soc.generate rng
    {
      Soctam_soc_data.Random_soc.default_params with
      Soctam_soc_data.Random_soc.cores;
      max_ios = 40;
      max_patterns = 100;
      max_chains = 4;
      max_chain_length = 30;
    }

let d695 = Soctam_soc_data.D695.soc

(* -- qcheck geometry: raw level packings ----------------------------------- *)

let random_rects rng ~width =
  let n = Prng.int rng 26 in
  List.init n (fun i ->
      {
        Lp.r_id = i;
        r_w = 1 + Prng.int rng width;
        r_h = Prng.int rng 51;
      })

let packing_geometry_sound =
  QCheck.Test.make
    ~name:"level packing: every order certifies and respects the lower bound"
    ~count:150
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let width = 1 + Prng.int rng 12 in
      let rects = random_rects rng ~width in
      let lb = Lp.lower_bound ~width rects in
      List.for_all
        (fun order ->
          let packing = Lp.pack order ~width rects in
          let sched = Ps.of_packing packing in
          (* The certifier recomputes the makespan from slot finishes;
             pinning expected_makespan to pk_height asserts the two
             agree, on top of containment and non-overlap. *)
          clean
            (Sc.certify_packing ~expected_makespan:packing.Lp.pk_height
               ~total_width:width sched)
          && packing.Lp.pk_height >= lb
          && List.length (Lp.slots packing) = List.length rects)
        Lp.orders)

(* -- rectangles from the Pareto-step table --------------------------------- *)

(* The definition the step table replaced: scan each row for the first
   width whose time equals [T_i(cap)]. *)
let scanned_rects table ~cap =
  let rows = Tt.rows table in
  List.init (Tt.core_count table) (fun i ->
      let row = rows.(i) in
      let h = row.(cap - 1) in
      let w = ref 1 in
      while row.(!w - 1) <> h do
        incr w
      done;
      { Lp.r_id = i; r_w = !w; r_h = h })

(* Every cap from 1 to W, on random SOCs and on SOCs of memory cores
   with one terminal each, whose rows are constant: there every cap
   repeats cap 1. [base_cap] must name the smallest cap with equal
   rectangles. *)
let rects_match_scan =
  QCheck.Test.make ~name:"rect build: step table matches the row scan"
    ~count:200
    QCheck.(triple (int_range 1 100_000) (int_range 1 40) bool)
    (fun (seed, width, constant) ->
      let params =
        if constant then
          {
            Soctam_soc_data.Random_soc.default_params with
            Soctam_soc_data.Random_soc.cores = 4;
            memory_fraction = 1.0;
            max_ios = 1;
          }
        else
          {
            Soctam_soc_data.Random_soc.default_params with
            Soctam_soc_data.Random_soc.cores = 6;
            max_ios = 40;
            max_chains = 4;
            max_chain_length = 30;
          }
      in
      let soc =
        Soctam_soc_data.Random_soc.generate
          (Prng.create (Int64.of_int seed))
          params
      in
      let table = Tt.build soc ~max_width:width in
      let rb = Rb.make table in
      List.for_all
        (fun cap ->
          let rects = Rb.rects rb ~cap in
          let base = Rb.base_cap rb ~cap in
          rects = scanned_rects table ~cap
          && rects = scanned_rects table ~cap:base
          && (base = 1 || scanned_rects table ~cap:(base - 1) <> rects)
          && ((not constant) || base = 1))
        (Soctam_util.Intutil.range 1 width))

(* -- differential suite ---------------------------------------------------- *)

let exhaustive_optimum ~table ~total_width tams_choices =
  List.fold_left
    (fun acc tams ->
      min acc (Runners.ex_run ~table ~total_width ~tams ()).Ex.time)
    max_int tams_choices

let certified_result ~table ~total_width (pack : Pk.result) =
  Soctam_util.Intutil.sum pack.Pk.widths = total_width
  && Array.for_all (fun w -> w >= 1) pack.Pk.widths
  && clean
       (Sc.certify_packing ~table ~expected_makespan:pack.Pk.time ~total_width
          (Pk.schedule ~table pack))

let differential_random =
  QCheck.Test.make
    ~name:"pack: never beats the exhaustive optimum, schedule certified"
    ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let total_width = 8 in
      let table = Tt.build soc ~max_width:total_width in
      let optimum = exhaustive_optimum ~table ~total_width [ 1; 2; 3 ] in
      let pack = Runners.pack_run ~max_tams:3 ~table ~total_width () in
      pack.Pk.time >= optimum
      && Oc.is_complete pack.Pk.outcome
      && pack.Pk.candidates = pack.Pk.completed + pack.Pk.pruned
      && certified_result ~table ~total_width pack)

let differential_fixed_b =
  QCheck.Test.make
    ~name:"pack P_PAW: exactly B TAMs, never beats exhaustive at that B"
    ~count:40
    QCheck.(pair (int_range 1 10_000) (int_range 1 3))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let total_width = 8 in
      let table = Tt.build soc ~max_width:total_width in
      let optimum =
        (Runners.ex_run ~table ~total_width ~tams ()).Ex.time
      in
      let pack = Runners.pack_run ~tams ~table ~total_width () in
      Array.length pack.Pk.widths = tams
      && pack.Pk.time >= optimum
      && certified_result ~table ~total_width pack)

let d695_never_beats_exhaustive () =
  let total_width = 16 in
  let table = Tt.build d695 ~max_width:total_width in
  let optimum = exhaustive_optimum ~table ~total_width [ 1; 2; 3 ] in
  let pack = Runners.pack_run ~max_tams:3 ~table ~total_width () in
  Alcotest.(check bool)
    "pack time >= exhaustive optimum" true
    (pack.Pk.time >= optimum);
  let violations =
    Sc.certify_packing ~table ~expected_makespan:pack.Pk.time ~total_width
      (Pk.schedule ~table pack)
  in
  Alcotest.(check int) "certifier clean" 0 (List.length violations)

(* -- determinism and the run lifecycle ------------------------------------- *)

let check_same_result ~msg (a : Pk.result) (b : Pk.result) =
  Alcotest.(check (array int)) (msg ^ ": widths") a.Pk.widths b.Pk.widths;
  Alcotest.(check int) (msg ^ ": time") a.Pk.time b.Pk.time;
  Alcotest.(check (array int))
    (msg ^ ": assignment") a.Pk.assignment b.Pk.assignment

let jobs_independent () =
  let check_soc msg ~table ~total_width =
    let a = Runners.pack_run ~jobs:1 ~table ~total_width () in
    let b = Runners.pack_run ~jobs:4 ~table ~total_width () in
    check_same_result ~msg a b;
    Alcotest.(check int) (msg ^ ": ranks") a.Pk.ranks b.Pk.ranks;
    Alcotest.(check int) (msg ^ ": candidates") a.Pk.candidates b.Pk.candidates
  in
  let soc = small_soc 23L ~cores:6 in
  check_soc "random soc W=10" ~table:(Tt.build soc ~max_width:10)
    ~total_width:10;
  check_soc "d695 W=16" ~table:(Tt.build d695 ~max_width:16) ~total_width:16

let solver_counters =
  [
    "pack/packings";
    "pack/candidates";
    "pack/evaluated";
    "pack/pruned";
    "core_assign/assignments_tried";
    "core_assign/early_terminations";
    "core_assign/levels_cut";
    "pool/tau_publications";
  ]

let counters_of stats =
  let snap = Obs.snapshot stats in
  List.map
    (fun name ->
      ( name,
        match List.assoc_opt name snap.Obs.counters with
        | Some n -> n
        | None -> 0 ))
    solver_counters

(* Interrupt a run after [k] slice boundaries, resume it to completion,
   and require agreement with the uninterrupted run — the same protocol
   test_checkpoint pins for the partition engines. Returns false when
   the run finished before the k-th boundary. *)
let interrupt_resume_agrees ~jobs ~exact_counters ~table ~total_width k =
  let base cfg =
    cfg |> Rc.with_jobs jobs |> Rc.with_max_tams 4
    |> Rc.with_checkpoint_every 3
    |> Rc.with_time_budget 3600.
  in
  let straight_stats = Obs.create () in
  let straight =
    Pk.run_with
      (base Rc.default |> Rc.with_stats straight_stats)
      ~table ~total_width
  in
  let calls = ref 0 in
  let cancel () =
    incr calls;
    !calls > k
  in
  let interrupted =
    Pk.run_with
      (base Rc.default
      |> Rc.with_stats (Obs.create ())
      |> Rc.with_cancel cancel)
      ~table ~total_width
  in
  match interrupted.Pk.outcome with
  | Oc.Complete -> false
  | Oc.Budget_exhausted _ -> Alcotest.fail "budget fired under a 1h budget"
  | Oc.Interrupted token ->
      let token =
        match Cp.of_string (Cp.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "resume token did not round-trip: %s" msg
      in
      let resumed_stats = Obs.create () in
      let resumed =
        Pk.run_with
          (base Rc.default
          |> Rc.with_stats resumed_stats
          |> Rc.with_resume token)
          ~table ~total_width
      in
      Alcotest.(check bool)
        "resumed run completes" true
        (Oc.is_complete resumed.Pk.outcome);
      check_same_result ~msg:(Printf.sprintf "resume at boundary %d" k)
        straight resumed;
      Alcotest.(check int)
        "resumed candidate total" straight.Pk.candidates resumed.Pk.candidates;
      let s = counters_of straight_stats and r = counters_of resumed_stats in
      if exact_counters then
        List.iter2
          (fun (name, a) (_, b) ->
            Alcotest.(check int) ("counter " ^ name) a b)
          s r
      else begin
        (* jobs > 1: the pruning split is racy, but the candidate count
           and the candidates = evaluated + pruned invariant are exact. *)
        let get l n = List.assoc n l in
        Alcotest.(check int)
          "candidate total" (get s "pack/candidates")
          (get r "pack/candidates");
        Alcotest.(check int)
          "pruned + evaluated = candidates"
          (get r "pack/candidates")
          (get r "pack/pruned" + get r "pack/evaluated")
      end;
      true

let resume_every_boundary_seq () =
  let soc = small_soc 7L ~cores:5 in
  let total_width = 8 in
  let table = Tt.build soc ~max_width:total_width in
  let k = ref 1 in
  while
    interrupt_resume_agrees ~jobs:1 ~exact_counters:true ~table ~total_width
      !k
  do
    incr k
  done;
  Alcotest.(check bool)
    "interrupted at least 3 distinct boundaries" true (!k > 3)

let resume_boundary_parallel () =
  let soc = small_soc 19L ~cores:4 in
  let total_width = 8 in
  let table = Tt.build soc ~max_width:total_width in
  List.iter
    (fun k ->
      ignore
        (interrupt_resume_agrees ~jobs:4 ~exact_counters:false ~table
           ~total_width k))
    [ 1; 3; 5 ]

let zero_budget_resume () =
  let soc = small_soc 3L ~cores:4 in
  let total_width = 9 in
  let table = Tt.build soc ~max_width:total_width in
  let truncated =
    Runners.pack_run ~max_tams:3 ~time_budget:0. ~table ~total_width ()
  in
  (match truncated.Pk.outcome with
  | Oc.Budget_exhausted _ -> ()
  | Oc.Complete | Oc.Interrupted _ ->
      Alcotest.fail "zero budget did not report Budget_exhausted");
  Alcotest.(check int)
    "fallback widths sum to W" total_width
    (Array.fold_left ( + ) 0 truncated.Pk.widths);
  match Oc.resume_token truncated.Pk.outcome with
  | None -> Alcotest.fail "zero-budget run carried no resume token"
  | Some token ->
      let token =
        match Cp.of_string (Cp.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "resume token did not round-trip: %s" msg
      in
      let resumed =
        Pk.run_with
          (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume token)
          ~table ~total_width
      in
      let straight = Runners.pack_run ~max_tams:3 ~table ~total_width () in
      check_same_result ~msg:"zero-budget resume" straight resumed

let foreign_resume_rejected () =
  (* A checkpoint written by another solver must not restore here. *)
  let soc = small_soc 3L ~cores:4 in
  let total_width = 8 in
  let table = Tt.build soc ~max_width:total_width in
  let interrupted =
    Soctam_core.Partition_evaluate.run_with
      (Rc.default |> Rc.with_max_tams 3 |> Rc.with_time_budget 3600.
      |> Rc.with_cancel (fun () -> true))
      ~table ~total_width
  in
  let token =
    match Oc.resume_token interrupted.Soctam_core.Partition_evaluate.outcome with
    | Some t -> t
    | None -> Alcotest.fail "no token from the interrupted PE run"
  in
  match
    Pk.run_with
      (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume token)
      ~table ~total_width
  with
  | exception Invalid_argument _ -> ()
  | (_ : Pk.result) -> Alcotest.fail "pack engine accepted a PE checkpoint"

let validation () =
  let soc = small_soc 5L ~cores:4 in
  let table = Tt.build soc ~max_width:6 in
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Pk.result) -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Runners.pack_run ~table ~total_width:0 ());
  invalid (fun () -> Runners.pack_run ~table ~total_width:8 ());
  invalid (fun () -> Runners.pack_run ~tams:7 ~table ~total_width:6 ())

(* The engine skips work it has already done: a candidate its worker
   met at a lower rank of the slice, and a whole packing rank whose cap
   repeats a lower cap's rectangles, are counted as pruned without
   [Core_assign]. At -j 1 the old code pruned exactly those too, so the
   pack counters and the answer must not depend on how the rank space
   is sliced. The literals were recorded before the memo existed. The
   core_assign/* counters are not pinned: the memo lives for one slice,
   so they fall by different amounts under different slicings. *)
let counters_independent_of_slicing () =
  let case label soc ~total_width ~expect:(packings, candidates, evaluated,
                                           pruned, widths, time) =
    let table = Tt.build soc ~max_width:total_width in
    List.iter
      (fun every ->
        let stats = Obs.create () in
        let cfg = Rc.default |> Rc.with_stats stats in
        let cfg =
          match every with
          | None -> cfg
          | Some k ->
              cfg |> Rc.with_checkpoint_every k |> Rc.with_time_budget 3600.
        in
        let r = Pk.run_with cfg ~table ~total_width in
        let msg =
          Printf.sprintf "%s W=%d every=%s" label total_width
            (match every with None -> "unset" | Some k -> string_of_int k)
        in
        let got = counters_of stats in
        List.iter
          (fun (name, want) ->
            Alcotest.(check int) (msg ^ ": " ^ name) want
              (List.assoc name got))
          [
            ("pack/packings", packings);
            ("pack/candidates", candidates);
            ("pack/evaluated", evaluated);
            ("pack/pruned", pruned);
          ];
        Alcotest.(check (array int)) (msg ^ ": widths") widths r.Pk.widths;
        Alcotest.(check int) (msg ^ ": time") time r.Pk.time)
      [ Some 1; Some 3; None ]
  in
  case "d695" d695 ~total_width:16
    ~expect:(48, 310, 3, 307, [| 6; 5; 5 |], 43681);
  case "d695" d695 ~total_width:32
    ~expect:(96, 823, 6, 817, [| 9; 9; 6; 5; 3 |], 22561);
  case "random 11" (small_soc 11L ~cores:8) ~total_width:24
    ~expect:(72, 384, 3, 381, [| 8; 8; 8 |], 2491);
  case "random 29" (small_soc 29L ~cores:12) ~total_width:40
    ~expect:(120, 880, 6, 874, [| 7; 7; 7; 7; 6; 6 |], 3130)

(* -- the committed golden -------------------------------------------------- *)

let golden_table () =
  let committed =
    In_channel.with_open_bin
      (Filename.concat "data" "pack_table.json")
      In_channel.input_all
  in
  let rows = Golden_rows.all () in
  Alcotest.(check string) "byte-exact rendering" committed (Pj.render rows);
  (match Pj.parse committed with
  | Error msg -> Alcotest.failf "committed golden does not parse: %s" msg
  | Ok parsed ->
      Alcotest.(check string)
        "parse round-trips" committed (Pj.render parsed));
  Alcotest.(check int)
    "every paper (SOC, W) point present"
    (List.length Golden_rows.widths * 3)
    (List.length rows);
  List.iter
    (fun (r : Pj.row) ->
      if not r.Pj.certified then
        Alcotest.failf "%s W=%d: schedule not certified" r.Pj.soc r.Pj.width;
      if r.Pj.gap_hundredths < 0 || r.Pj.gap_hundredths > 1500 then
        Alcotest.failf "%s W=%d: gap %d outside [0, 1500]" r.Pj.soc r.Pj.width
          r.Pj.gap_hundredths)
    rows

let suite =
  [
    qtest packing_geometry_sound;
    qtest differential_random;
    qtest differential_fixed_b;
    test "pack: d695 never beats the exhaustive optimum"
      d695_never_beats_exhaustive;
    test "pack: byte-identical across job counts" jobs_independent;
    test "pack: kill-and-resume at every boundary (jobs=1)"
      resume_every_boundary_seq;
    test "pack: kill-and-resume at boundaries (jobs=4)"
      resume_boundary_parallel;
    test "pack: zero budget truncates with a valid resume token"
      zero_budget_resume;
    test "pack: foreign checkpoint rejected" foreign_resume_rejected;
    test "pack: validation" validation;
    test "pack: engine-comparison golden is byte-exact" golden_table;
    qtest rects_match_scan;
    test "pack: counters independent of slicing (jobs=1)"
      counters_independent_of_slicing;
  ]
