(* Determinism harness for the multicore rank-space searches.

   The contract under test: for every [jobs] value, [Partition_evaluate],
   [Exhaustive], [Co_optimize] and [Sweep] return results byte-identical
   to the sequential run — same best time, same partition, same
   core-to-TAM assignment. They all run on one scheduler, the
   work-stealing [Pool.map_chunks] on a persistent [Pool.Team], whose
   own properties (chunks tile the range, reductions match, steals,
   exception propagation, the shared incumbent) come first. The qcheck
   properties drive seeded random SOCs ([Random_soc]) so the suite
   covers fresh instances on every run while staying reproducible from
   the printed seed.

   This file is its own executable, wired to the [runtest-slow] alias
   (gated on SOCTAM_SLOW_TESTS=1, see test/dune and `make test-par`):
   the properties spawn domains thousands of times, which is too slow
   for the tier-1 suite. *)

module Pool = Soctam_util.Pool
module Obs = Soctam_obs.Obs
module Pe = Soctam_core.Partition_evaluate
module Rc = Soctam_core.Run_config
module Ex = Soctam_core.Exhaustive
module Co = Soctam_core.Co_optimize
module Sweep = Soctam_core.Sweep
module Tt = Soctam_core.Time_table
module Pk = Soctam_pack.Pack_engine

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

(* SOCTAM_PAR_SMOKE=1 is the `make ci` entry point: the same
   properties at a twentieth of the iteration count, so every scheduler
   path runs on every CI pass in a couple of seconds while the full
   randomized sweep stays behind `make test-par`. *)
let smoke = Sys.getenv_opt "SOCTAM_PAR_SMOKE" = Some "1"
let scaled n = if smoke then max 2 (n / 20) else n

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

(* Workers improve one shared incumbent concurrently, each through its
   own mirror, with candidate [i] keyed (times.(i), i): the cell must end
   holding the lexicographic minimum key below the seed, with that key's
   payload, however the chunks interleave. *)
let shared_min_keeps_minimum =
  QCheck.Test.make
    ~name:"Shared_min: holds the (time, rank) minimum and its payload"
    ~count:(scaled 200)
    QCheck.(
      triple (int_range 1 4) (int_range 0 60)
        (list_of_size Gen.(0 -- 300) (int_range 0 60)))
    (fun (jobs, initial, updates) ->
      let times = Array.of_list updates in
      let t = Pool.Shared_min.create initial in
      Pool.Team.with_team ~oversubscribe:true ~jobs (fun team ->
          let mirrors = Array.init jobs (fun _ -> Pool.Shared_min.mirror t) in
          ignore
            (Pool.map_chunks ~min_chunk:1 team ~length:(Array.length times)
               ~f:(fun ~worker ~lo ~hi ->
                 for i = lo to hi - 1 do
                   Pool.Shared_min.mirror_improve mirrors.(worker)
                     ~time:times.(i) ~rank:i i
                 done)
               ()));
      let expected = ref None and best = ref initial in
      Array.iteri
        (fun i time ->
          if time < !best then begin
            best := time;
            expected := Some i
          end)
        times;
      Pool.Shared_min.get t = !best && Pool.Shared_min.winner t = !expected)

(* -- Team + map_chunks: the work-stealing scheduler ------------------------ *)

(* Teams here are created with [oversubscribe:true] throughout: the
   production core-count cap would otherwise reduce every multi-worker
   case to one worker on a small CI host, and the whole point of these
   properties is real steal interleavings. *)

let chunks_tile_range =
  QCheck.Test.make
    ~name:"map_chunks: chunks tile the range exactly, sorted by c_lo"
    ~count:(scaled 100)
    QCheck.(triple (int_range 1 6) (int_range 1 64) (int_range 0 2000))
    (fun (jobs, min_chunk, length) ->
      Pool.Team.with_team ~oversubscribe:true ~jobs (fun team ->
          let chunks =
            Pool.map_chunks ~min_chunk team ~length
              ~f:(fun ~worker:_ ~lo ~hi -> (lo, hi))
              ()
          in
          let pos = ref 0 in
          Array.iter
            (fun (c : _ Pool.chunk) ->
              if c.Pool.c_lo <> !pos then
                QCheck.Test.fail_report "gap or overlap between chunks";
              if c.Pool.c_hi <= c.Pool.c_lo then
                QCheck.Test.fail_report "empty chunk";
              if c.Pool.c_value <> (c.Pool.c_lo, c.Pool.c_hi) then
                QCheck.Test.fail_report "f saw a different range";
              pos := c.Pool.c_hi)
            chunks;
          !pos = max 0 length))

(* A pseudorandom but index-deterministic workload: the reduction
   min-by-(value, index) must come out byte-identical no matter how the
   chunks were carved or stolen. *)
let value_at ~seed i = (i + seed) * 0x9E3779B1 land 0x3FFFFFFF

let min_by_chunk ~seed ~worker:_ ~lo ~hi =
  let best = ref (value_at ~seed lo) and best_i = ref lo in
  for i = lo + 1 to hi - 1 do
    let v = value_at ~seed i in
    if v < !best then begin
      best := v;
      best_i := i
    end
  done;
  (!best, !best_i)

let reduce chunks =
  Array.fold_left
    (fun acc (c : _ Pool.chunk) ->
      let v, i = c.Pool.c_value in
      match acc with
      | Some (bv, bi) when bv < v || (bv = v && bi < i) -> Some (bv, bi)
      | _ -> Some (v, i))
    None chunks

let map_chunks_reduction_matches_sequential =
  QCheck.Test.make
    ~name:"map_chunks: min-by-(value, index) identical to sequential"
    ~count:(scaled 100)
    QCheck.(
      quad (int_range 2 6) (int_range 1 64) (int_range 1 3000) small_int)
    (fun (jobs, min_chunk, length, seed) ->
      let direct =
        let best = ref (value_at ~seed 0) and best_i = ref 0 in
        for i = 1 to length - 1 do
          let v = value_at ~seed i in
          if v < !best then begin
            best := v;
            best_i := i
          end
        done;
        Some (!best, !best_i)
      in
      let run jobs =
        Pool.Team.with_team ~oversubscribe:true ~jobs (fun team ->
            reduce
              (Pool.map_chunks ~min_chunk team ~length ~f:(min_by_chunk ~seed)
                 ()))
      in
      run 1 = direct && run jobs = direct)

let map_chunks_exception_propagates () =
  Pool.Team.with_team ~oversubscribe:true ~jobs:4 (fun team ->
      Alcotest.check_raises "a chunk exception reaches the caller"
        (Failure "chunk boom") (fun () ->
          ignore
            (Pool.map_chunks team ~min_chunk:8 ~length:4096
               ~f:(fun ~worker:_ ~lo ~hi:_ ->
                 if lo >= 1024 then failwith "chunk boom")
               ())))

let steals_observed_under_skew () =
  (* Worker 0's initial share carries all the expensive indices; the
     other workers drain their cheap shares and must steal from worker
     0's descriptor to finish the round. A handful of rounds guards
     against an unlucky 1-core schedule that runs worker 0 to
     completion before any thief wakes. *)
  let stats = Obs.create () in
  let length = 8192 and min_chunk = 16 in
  let f ~worker:_ ~lo ~hi =
    let acc = ref 0 in
    for i = lo to hi - 1 do
      let cost = if i < length / 4 then 500 else 1 in
      for k = 1 to cost do
        acc := !acc + (k land 7)
      done
    done;
    !acc
  in
  Pool.Team.with_team ~oversubscribe:true ~jobs:4 (fun team ->
      let rec attempt n =
        ignore (Pool.map_chunks ~stats ~min_chunk team ~length ~f ());
        let steals =
          Obs.counter_value (Obs.snapshot stats) "pool/steals"
        in
        if steals = 0 && n < 20 then attempt (n + 1)
        else
          Alcotest.(check bool)
            "pool/steals > 0 under a skewed workload" true (steals > 0)
      in
      attempt 1)

let jobs1_reports_real_chunk_counts () =
  (* The jobs=1 path is the same scheduler with one worker: the chunk
     counter must report the adaptive halving sequence, not zero. *)
  let stats = Obs.create () in
  Pool.Team.with_team ~jobs:1 (fun team ->
      ignore
        (Pool.map_chunks ~stats team ~length:296_320
           ~f:(fun ~worker:_ ~lo:_ ~hi:_ -> ())
           ()));
  let snap = Obs.snapshot stats in
  let chunks = Obs.counter_value snap "pool/chunks" in
  Alcotest.(check bool)
    (Printf.sprintf "pool/chunks = %d, expected > 1" chunks)
    true
    (chunks > 1);
  Alcotest.(check int)
    "no steals with a single worker" 0
    (Obs.counter_value snap "pool/steals")

(* -- Perf regression gate -------------------------------------------------- *)

let perf_gate_d695 () =
  (* Production scheduler policy (core-count cap on): requesting jobs=4
     must never cost more than 15% over jobs=1 wall time, whatever the
     host. On a 1-core host the cap makes both runs literally the same
     configuration, so this gate catches regressions in the capping
     policy itself as well as scheduler overhead on multicore hosts. *)
  let soc = Soctam_soc_data.D695.soc in
  let table = Tt.build soc ~max_width:64 in
  let run jobs =
    let cfg = Rc.default |> Rc.with_jobs jobs in
    ignore (Pe.run_with cfg ~table ~total_width:64)
  in
  run 1;
  (* warm the code paths and the wrapper front cache *)
  let best jobs =
    let b = ref infinity in
    for _ = 1 to 3 do
      let (), dt = Soctam_util.Timer.time (fun () -> run jobs) in
      if dt < !b then b := dt
    done;
    !b
  in
  let t1 = best 1 in
  let t4 = best 4 in
  Alcotest.(check bool)
    (Printf.sprintf "jobs=4 best-of-3 (%.1fms) <= 1.15x jobs=1 (%.1fms) + 2ms"
       (t4 *. 1000.) (t1 *. 1000.))
    true
    (t4 <= (1.15 *. t1) +. 0.002)

(* -- Partition_evaluate determinism --------------------------------------- *)

let signature (r : Pe.result) =
  (r.Pe.time, Array.to_list r.Pe.widths, Array.to_list r.Pe.assignment)

let evaluate_matches_sequential =
  QCheck.Test.make
    ~name:"Partition_evaluate: jobs=4 identical to jobs=1" ~count:(scaled 100)
    QCheck.(pair (int_range 1 1000) (int_range 6 14))
    (fun (seed, total_width) ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:total_width in
      let seq = Runners.pe_run ~jobs:1 ~table ~total_width ~max_tams:4 () in
      let par = Runners.pe_run ~jobs:4 ~table ~total_width ~max_tams:4 () in
      signature seq = signature par)

let evaluate_fixed_matches_sequential =
  QCheck.Test.make ~name:"P_PAW run_fixed: jobs=4 identical to jobs=1"
    ~count:(scaled 100)
    QCheck.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:12 in
      let seq = Runners.pe_run_fixed ~jobs:1 ~table ~total_width:12 ~tams () in
      let par = Runners.pe_run_fixed ~jobs:4 ~table ~total_width:12 ~tams () in
      signature seq = signature par)

let evaluate_carry_tau_variants_agree =
  QCheck.Test.make
    ~name:"carry_tau:false parallel winner matches sequential" ~count:(scaled 50)
    QCheck.(int_range 1 1000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let seq =
        Runners.pe_run ~carry_tau:false ~jobs:1 ~table ~total_width:10 ~max_tams:4 ()
      in
      let par =
        Runners.pe_run ~carry_tau:false ~jobs:4 ~table ~total_width:10 ~max_tams:4 ()
      in
      signature seq = signature par)

let evaluate_exact_counters_stable =
  QCheck.Test.make
    ~name:"per-B enumerated/unique counters independent of jobs" ~count:(scaled 50)
    QCheck.(int_range 1 1000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let seq = Runners.pe_run ~jobs:1 ~table ~total_width:10 ~max_tams:4 () in
      let par = Runners.pe_run ~jobs:4 ~table ~total_width:10 ~max_tams:4 () in
      Array.for_all2
        (fun (a : Pe.b_stats) (b : Pe.b_stats) ->
          a.Pe.tams = b.Pe.tams
          && a.Pe.unique_partitions = b.Pe.unique_partitions
          && a.Pe.enumerated = b.Pe.enumerated)
        seq.Pe.per_b par.Pe.per_b)

(* The pinned d695 W = 40 P_NPAW instance (test_core.ml), where the
   partition search cuts whole odometer blocks at a time: with two and
   four workers sharing tau, a block is cut under whatever bound a
   worker's mirror holds, and the result must still be byte-identical
   to one worker's. *)
let run_skip_instance_matches_sequential () =
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:40 in
  let run jobs =
    Runners.pe_run ~jobs ~table ~total_width:40 ~max_tams:10 ()
  in
  let seq = run 1 in
  Alcotest.(check (array int)) "jobs=1 widths" [| 4; 4; 8; 12; 12 |]
    seq.Pe.widths;
  List.iter
    (fun jobs ->
      let par = run jobs in
      let msg = Printf.sprintf "jobs=%d identical to jobs=1" jobs in
      Alcotest.(check bool) msg true (signature seq = signature par);
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d enumerated per B" jobs)
        (Array.map (fun (b : Pe.b_stats) -> b.Pe.enumerated) seq.Pe.per_b)
        (Array.map (fun (b : Pe.b_stats) -> b.Pe.enumerated) par.Pe.per_b))
    [ 2; 4 ]

(* -- Agreement with the exhaustive baseline ------------------------------- *)

let exhaustive_matches_sequential =
  QCheck.Test.make ~name:"Exhaustive: jobs=4 identical to jobs=1" ~count:(scaled 100)
    QCheck.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let seq = Runners.ex_run ~jobs:1 ~table ~total_width:10 ~tams () in
      let par = Runners.ex_run ~jobs:4 ~table ~total_width:10 ~tams () in
      seq.Ex.time = par.Ex.time
      && seq.Ex.widths = par.Ex.widths
      && seq.Ex.assignment = par.Ex.assignment
      && seq.Ex.partitions_solved = par.Ex.partitions_solved
      && Soctam_core.Outcome.is_complete seq.Ex.outcome
      && Soctam_core.Outcome.is_complete par.Ex.outcome)

(* A per-partition node budget of one stops the slice at the first
   unproven solve, wherever a worker meets it: the incumbent is only
   what was solved so far, and the token rewinds to the slice start, so
   resuming it without the budget reaches the jobs=1 answer. *)
let exhaustive_starved_resumes =
  QCheck.Test.make
    ~name:"Exhaustive: node-starved jobs=4 run resumes to the jobs=1 answer"
    ~count:(scaled 50)
    QCheck.(pair (int_range 1 1000) (int_range 2 4))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:10 in
      let seq = Runners.ex_run ~jobs:1 ~table ~total_width:10 ~tams () in
      let starved =
        Runners.ex_run ~jobs:4 ~node_limit_per_partition:1 ~table
          ~total_width:10 ~tams ()
      in
      let same (r : Ex.result) =
        r.Ex.time = seq.Ex.time
        && r.Ex.widths = seq.Ex.widths
        && r.Ex.assignment = seq.Ex.assignment
      in
      starved.Ex.time >= seq.Ex.time
      &&
      match starved.Ex.outcome with
      | Soctam_core.Outcome.Complete -> same starved
      | Soctam_core.Outcome.Budget_exhausted token
      | Soctam_core.Outcome.Interrupted token ->
          let resumed =
            Ex.run_with
              (Runners.cfg ~jobs:1 () |> Rc.with_resume token)
              ~table ~total_width:10 ~tams
          in
          same resumed && Soctam_core.Outcome.is_complete resumed.Ex.outcome)

let heuristic_bounded_by_exhaustive =
  QCheck.Test.make
    ~name:"parallel heuristic time within [optimal, +] of Exhaustive"
    ~count:(scaled 50)
    QCheck.(pair (int_range 1 1000) (int_range 2 3))
    (fun (seed, tams) ->
      let soc = small_soc (Int64.of_int seed) ~cores:4 in
      let table = Tt.build soc ~max_width:8 in
      let exact = Runners.ex_run ~jobs:4 ~table ~total_width:8 ~tams () in
      let heur = Runners.pe_run_fixed ~jobs:4 ~table ~total_width:8 ~tams () in
      heur.Pe.time >= exact.Ex.time)

(* -- Pipeline-level determinism ------------------------------------------- *)

let co_optimize_matches_sequential =
  QCheck.Test.make ~name:"Co_optimize: jobs=4 identical to jobs=1" ~count:(scaled 50)
    QCheck.(int_range 1 1000)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let seq = Runners.co_run ~jobs:1 ~max_tams:4 soc ~total_width:12 in
      let par = Runners.co_run ~jobs:4 ~max_tams:4 soc ~total_width:12 in
      seq.Co.final_time = par.Co.final_time
      && seq.Co.architecture.Soctam_tam.Architecture.widths
         = par.Co.architecture.Soctam_tam.Architecture.widths
      && seq.Co.architecture.Soctam_tam.Architecture.assignment
         = par.Co.architecture.Soctam_tam.Architecture.assignment)

(* The pack engine skips candidates its worker met at a lower rank and
   replays caps whose rectangles repeat a lower cap's; under work
   stealing a worker meets ranks out of order, and neither skip may
   change the answer or the candidate count. A [flat] SOC (few
   terminals, at most two short chains per core) saturates every core
   at a narrow width, so most caps repeat. *)
let pack_matches_sequential =
  QCheck.Test.make ~name:"Pack_engine: jobs=4 identical to jobs=1"
    ~count:(scaled 100)
    QCheck.(triple (int_range 1 1000) (int_range 6 24) bool)
    (fun (seed, total_width, flat) ->
      let soc =
        if flat then
          Soctam_soc_data.Random_soc.generate
            (Soctam_util.Prng.create (Int64.of_int seed))
            {
              Soctam_soc_data.Random_soc.default_params with
              Soctam_soc_data.Random_soc.cores = 6;
              max_ios = 4;
              max_patterns = 200;
              max_chains = 2;
              max_chain_length = 8;
            }
        else small_soc (Int64.of_int seed) ~cores:6
      in
      let table = Tt.build soc ~max_width:total_width in
      let signature (r : Pk.result) =
        ( r.Pk.time,
          Array.to_list r.Pk.widths,
          Array.to_list r.Pk.assignment,
          r.Pk.candidates )
      in
      let run jobs =
        Runners.pack_run ~jobs ~max_tams:4 ~table ~total_width ()
      in
      signature (run 1) = signature (run 4))

let sweep_matches_sequential () =
  let soc = small_soc 42L ~cores:6 in
  let widths = [ 6; 10; 14 ] in
  let seq = Runners.sweep_run ~max_tams:4 ~jobs:1 soc ~widths in
  let par = Runners.sweep_run ~max_tams:4 ~jobs:8 soc ~widths in
  List.iter2
    (fun (a : Sweep.point) (b : Sweep.point) ->
      Alcotest.(check int) "time" a.Sweep.time b.Sweep.time;
      Alcotest.(check (array int)) "partition" a.Sweep.widths b.Sweep.widths;
      Alcotest.(check int) "tams" a.Sweep.tams b.Sweep.tams)
    seq par

let d695_reference_architecture () =
  (* The d695 W=24 architecture the sequential pipeline has always
     produced, now pinned for jobs=8 as well. *)
  let soc = Soctam_soc_data.D695.soc in
  let r = Runners.co_run ~jobs:8 ~max_tams:6 soc ~total_width:24 in
  Alcotest.(check (array int))
    "widths" [| 4; 6; 7; 7 |]
    r.Co.architecture.Soctam_tam.Architecture.widths

let suite =
  [
    qtest shared_min_keeps_minimum;
    qtest chunks_tile_range;
    qtest map_chunks_reduction_matches_sequential;
    test "map_chunks: exception propagation" map_chunks_exception_propagates;
    test "map_chunks: steals under skew" steals_observed_under_skew;
    test "map_chunks: jobs=1 chunk accounting" jobs1_reports_real_chunk_counts;
    test "perf gate: jobs=4 within 15% of jobs=1 on d695" perf_gate_d695;
    qtest evaluate_matches_sequential;
    qtest evaluate_fixed_matches_sequential;
    qtest evaluate_carry_tau_variants_agree;
    qtest evaluate_exact_counters_stable;
    test "pinned d695 W=40 run-skip instance: jobs=1 = 2 = 4"
      run_skip_instance_matches_sequential;
    qtest exhaustive_matches_sequential;
    qtest exhaustive_starved_resumes;
    qtest heuristic_bounded_by_exhaustive;
    qtest co_optimize_matches_sequential;
    qtest pack_matches_sequential;
    test "sweep: jobs=8 identical to jobs=1" sweep_matches_sequential;
    test "d695 W=24 reference architecture at jobs=8"
      d695_reference_architecture;
  ]

let () = Alcotest.run "soctam-parallel" [ ("parallel", suite) ]
