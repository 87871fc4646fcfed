(* Benchmark harness.

   Four sections:
   1. regenerate every table of the paper's evaluation section
      (paper-vs-measured, exhaustive baseline vs new heuristic);
   2. ablation studies for the design choices called out in DESIGN.md
      (tau carrying / reset / off, Increment vs naive enumeration,
      tie-breaking rules, value of the final exact step, time vs
      permitted TAM count);
   3. extension studies (replaying the paper's published d695
      architectures, ITC'98 architecture comparison, simulated annealing
      and TR-style local search, power-constrained scheduling, scan
      restitching, simulated wire utilization, benchmark-family scaling);
   4. one Bechamel micro-benchmark per table, timing the heuristic kernel
      that the table exercises.

   SOCTAM_BENCH_BUDGET (seconds, default 15) bounds each exhaustive
   baseline cell; SOCTAM_BENCH_FAST=1 restricts the width sweep. *)

module Experiments = Soctam_report.Experiments
module Texttable = Soctam_report.Texttable
module Co = Soctam_core.Co_optimize
module Pe = Soctam_core.Partition_evaluate
module Rc = Soctam_core.Run_config

(* Run_config-based shims: the bench always runs the default policy
   plus an explicit table / TAM plan, folded into a config at the call
   site. *)
let co_run ?table ~max_tams soc ~total_width =
  let cfg = Rc.default |> Rc.with_max_tams max_tams in
  let cfg = match table with Some t -> Rc.with_table t cfg | None -> cfg in
  Co.run_with cfg soc ~total_width

let co_run_fixed ~table soc ~total_width ~tams =
  Co.run_with
    (Rc.default |> Rc.with_table table |> Rc.with_tams tams)
    soc ~total_width

let pe_run ?(carry_tau = true) ~table ~total_width ~max_tams () =
  Pe.run_with
    (Rc.default |> Rc.with_carry_tau carry_tau |> Rc.with_max_tams max_tams)
    ~table ~total_width

let budget =
  match Sys.getenv_opt "SOCTAM_BENCH_BUDGET" with
  | Some s -> ( try float_of_string s with Failure _ -> 15.)
  | None -> 15.

let fast = Sys.getenv_opt "SOCTAM_BENCH_FAST" = Some "1"
let widths = if fast then [ 16; 32; 64 ] else Soctam_report.Paper_ref.widths

(* ------------------------------------------------------------------ *)
(* Section 1: the paper's tables                                       *)
(* ------------------------------------------------------------------ *)

let ctx = Experiments.context ~exhaustive_budget:budget ~widths ()

let section title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n%s\n%s\n\n" bar title bar

let regenerate_tables () =
  section
    (Printf.sprintf "Paper tables (exhaustive budget %.0fs per cell, widths %s)"
       budget
       (String.concat "," (List.map string_of_int widths)));
  List.iter
    (fun id ->
      let table, secs =
        Soctam_util.Timer.time (fun () -> Experiments.run ctx id)
      in
      Texttable.print table;
      Printf.printf "  [%s regenerated in %.1fs]\n\n" id secs)
    Experiments.table_ids

(* ------------------------------------------------------------------ *)
(* Section 2: Bechamel micro-benchmarks, one per table                 *)
(* ------------------------------------------------------------------ *)

let table_of name = Experiments.time_table ctx name

let bechamel_tests () =
  let open Bechamel in
  let run_fixed soc w tams () =
    ignore
      (co_run_fixed ~table:(table_of soc) (Experiments.soc ctx soc)
         ~total_width:w ~tams)
  in
  let run_npaw soc w max_tams () =
    ignore (pe_run ~table:(table_of soc) ~total_width:w ~max_tams ())
  in
  let gen profile () = ignore (Soctam_soc_data.Philips.generate profile) in
  let stage = Staged.stage in
  [
    (* t1: the pruning statistics run (per-B tau reset, B <= 8). *)
    Test.make ~name:"t1_partition_evaluate_p21241_w44_b8"
      (stage (fun () ->
           ignore
             (pe_run ~carry_tau:false ~table:(table_of "p21241")
                ~total_width:44 ~max_tams:8 ())));
    (* t2/t3: d695 fixed-B pipeline and full P_NPAW. *)
    Test.make ~name:"t2_d695_w32_b3" (stage (run_fixed "d695" 32 3));
    Test.make ~name:"t3_d695_npaw_w64" (stage (run_npaw "d695" 64 10));
    (* t4/t8/t14: synthetic SOC generation incl. calibration. *)
    Test.make ~name:"t4_generate_p21241"
      (stage (gen Soctam_soc_data.Philips.p21241));
    Test.make ~name:"t8_generate_p31108"
      (stage (gen Soctam_soc_data.Philips.p31108));
    Test.make ~name:"t14_generate_p93791"
      (stage (gen Soctam_soc_data.Philips.p93791));
    (* fixed-B tables on the industrial SOCs. *)
    Test.make ~name:"t5_6_p21241_w32_b2" (stage (run_fixed "p21241" 32 2));
    Test.make ~name:"t9_10_p31108_w32_b2" (stage (run_fixed "p31108" 32 2));
    Test.make ~name:"t11_12_p31108_w32_b3" (stage (run_fixed "p31108" 32 3));
    Test.make ~name:"t15_16_p93791_w32_b2" (stage (run_fixed "p93791" 32 2));
    Test.make ~name:"t17_18_p93791_w32_b3" (stage (run_fixed "p93791" 32 3));
    (* P_NPAW heuristic sweeps (the partition-evaluation kernel). *)
    Test.make ~name:"t7_p21241_npaw_w32" (stage (run_npaw "p21241" 32 10));
    Test.make ~name:"t13_p31108_npaw_w64" (stage (run_npaw "p31108" 64 10));
    Test.make ~name:"t19_p93791_npaw_w64" (stage (run_npaw "p93791" 64 10));
  ]

let run_bechamel () =
  let open Bechamel in
  section "Bechamel micro-benchmarks (heuristic kernels, one per table)";
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false
      ~kde:None ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "%-40s %14s\n" "kernel" "time/run";
  Printf.printf "%s\n" (String.make 55 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all ols Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              let pretty =
                if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
                else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
                else Printf.sprintf "%8.2f us" (ns /. 1e3)
              in
              Printf.printf "%-40s %14s\n" name pretty
          | Some _ | None -> Printf.printf "%-40s %14s\n" name "n/a")
        analyzed)
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)
(* Section 3: ablations                                                *)
(* ------------------------------------------------------------------ *)

(* Partition evaluation with the tau early exit disabled: every partition
   is evaluated to completion. Isolates the value of the paper's
   Core_assign lines 18-20. *)
let evaluate_all_partitions ~table ~total_width ~max_tams =
  let best = ref max_int in
  let evaluated = ref 0 in
  for tams = 1 to max_tams do
    Soctam_partition.Enumerate.iter ~total:total_width ~parts:tams
      (fun widths ->
        incr evaluated;
        match Soctam_core.Core_assign.run_table ~table ~widths () with
        | Soctam_core.Core_assign.Assigned { time; _ } ->
            if time < !best then best := time
        | Soctam_core.Core_assign.Exceeded _ -> assert false)
  done;
  (!best, !evaluated)

let ablation_tau () =
  section "Ablation: tau pruning in Partition_evaluate (p21241, B <= 8)";
  let table = table_of "p21241" in
  let t =
    Texttable.create ~title:"tau pruning variants"
      ~columns:
        [
          ("W", Texttable.Right);
          ("variant", Texttable.Left);
          ("best T", Texttable.Right);
          ("completed", Texttable.Right);
          ("cpu", Texttable.Right);
        ]
  in
  List.iter
    (fun w ->
      let completed r =
        Array.fold_left (fun acc s -> acc + s.Pe.completed) 0 r.Pe.per_b
      in
      let carried, t1 =
        Soctam_util.Timer.time (fun () ->
            pe_run ~carry_tau:true ~table ~total_width:w ~max_tams:8 ())
      in
      let reset, t2 =
        Soctam_util.Timer.time (fun () ->
            pe_run ~carry_tau:false ~table ~total_width:w ~max_tams:8 ())
      in
      let (no_prune_best, no_prune_n), t3 =
        Soctam_util.Timer.time (fun () ->
            evaluate_all_partitions ~table ~total_width:w ~max_tams:8)
      in
      let row variant best n cpu =
        Texttable.add_row t
          [
            string_of_int w;
            variant;
            string_of_int best;
            string_of_int n;
            Printf.sprintf "%.2fs" cpu;
          ]
      in
      row "tau carried (pipeline)" carried.Pe.time (completed carried) t1;
      row "tau reset per B (Fig. 3)" reset.Pe.time (completed reset) t2;
      row "no pruning" no_prune_best no_prune_n t3)
    (if fast then [ 32 ] else [ 32; 48; 64 ]);
  Texttable.print t;
  print_newline ()

(* The paper, Section 3.1: enumerating compositions and discarding
   permuted duplicates "grows exponentially with B and severely limits
   scalability"; the bounded Increment enumeration avoids generating
   duplicates at all. Measure both. *)
let ablation_enumeration () =
  section
    "Ablation: Increment enumeration vs the naive enumeration-comparison \
     method";
  let t =
    Texttable.create ~title:"partition enumeration cost"
      ~columns:
        [
          ("W", Texttable.Right);
          ("B", Texttable.Right);
          ("unique p(W,B)", Texttable.Right);
          ("compositions generated", Texttable.Right);
          ("dedup memory", Texttable.Right);
          ("blow-up", Texttable.Right);
        ]
  in
  List.iter
    (fun (w, b) ->
      let stats = Soctam_partition.Enumerate.Compositions.count ~total:w ~parts:b in
      Texttable.add_row t
        [
          string_of_int w;
          string_of_int b;
          string_of_int stats.Soctam_partition.Enumerate.Compositions.unique;
          string_of_int
            stats.Soctam_partition.Enumerate.Compositions.compositions;
          string_of_int
            stats.Soctam_partition.Enumerate.Compositions.memory_entries;
          Printf.sprintf "%.0fx"
            (float_of_int
               stats.Soctam_partition.Enumerate.Compositions.compositions
            /. float_of_int
                 (max 1 stats.Soctam_partition.Enumerate.Compositions.unique));
        ])
    [ (16, 4); (24, 4); (24, 6); (32, 6); (32, 8); (40, 8) ];
  Texttable.print t;
  print_endline
    "  (the Increment odometer generates exactly the 'unique' column with\n\
    \   zero dedup memory; the naive method pays the 'compositions' column\n\
    \   and retains every canonical form)\n"

(* Are the paper's deterministic tie-breaking rules (Core_assign lines
   11-16) worth anything over naive random tie-breaking? *)
let ablation_tie_breaks () =
  section
    "Ablation: Core_assign tie-breaking (paper rules vs random restarts)";
  let t =
    Texttable.create ~title:"P_AW makespan at W = 48, B = 3 (16+16+16)"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("partition", Texttable.Left);
          ("paper rules", Texttable.Right);
          ("random x1", Texttable.Right);
          ("random x10", Texttable.Right);
          ("random x100", Texttable.Right);
          ("exact", Texttable.Right);
        ]
  in
  List.iter
    (fun (soc_name, widths) ->
      let table = table_of soc_name in
      let times = Soctam_core.Time_table.matrix table ~widths in
      let paper =
        match Soctam_core.Core_assign.run ~times ~widths () with
        | Soctam_core.Core_assign.Assigned { time; _ } -> time
        | Soctam_core.Core_assign.Exceeded _ -> assert false
      in
      let random restarts =
        snd
          (Soctam_core.Core_assign.run_randomized
             ~rng:(Soctam_util.Prng.create 7L)
             ~restarts ~times ~widths ())
      in
      let exact =
        (Soctam_ilp.Exact.solve_bb ~widths ~times ()).Soctam_ilp.Exact.time
      in
      Texttable.add_row t
        [
          soc_name;
          (Array.to_list widths |> List.map string_of_int
          |> String.concat "+");
          string_of_int paper;
          string_of_int (random 1);
          string_of_int (random 10);
          string_of_int (random 100);
          string_of_int exact;
        ])
    [ ("d695", [| 16; 16; 16 |]); ("d695", [| 8; 16; 24 |]);
      ("p21241", [| 8; 16; 24 |]); ("p31108", [| 8; 16; 24 |]);
      ("p93791", [| 8; 16; 24 |]) ];
  Texttable.print t;
  print_endline
    "  (ties are rare on industrial-size time tables, so the paper's\n\
    \   width-aware tie-breaks and random tie-breaks usually coincide;\n\
    \   the rules matter on small or hand-crafted instances like Fig. 2)\n"

(* Does the final exact step matter, and does the heuristic hand it the
   right partition? Reproduces the paper's Section 4.2 anomaly check. *)
let ablation_final_step () =
  section "Ablation: value of the final exact optimization step";
  let t =
    Texttable.create ~title:"heuristic vs final time (P_NPAW)"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("W", Texttable.Right);
          ("T_heuristic", Texttable.Right);
          ("T_final", Texttable.Right);
          ("gain%", Texttable.Right);
        ]
  in
  List.iter
    (fun soc ->
      List.iter
        (fun w ->
          let r =
            co_run ~max_tams:10 ~table:(table_of soc) (Experiments.soc ctx soc)
              ~total_width:w
          in
          let gain =
            100.
            *. float_of_int (r.Co.heuristic_time - r.Co.final_time)
            /. float_of_int r.Co.heuristic_time
          in
          Texttable.add_row t
            [
              soc;
              string_of_int w;
              string_of_int r.Co.heuristic_time;
              string_of_int r.Co.final_time;
              Printf.sprintf "%.2f" gain;
            ])
        (if fast then [ 32 ] else [ 16; 32; 64 ]))
    [ "d695"; "p31108"; "p93791" ];
  Texttable.print t;
  print_endline
    "  (the paper notes the heuristic partition is not always the one that\n\
    \   wins after exact optimization - compare adjacent rows above)\n"

(* How much does allowing more TAMs buy? (the paper's motivation for
   scaling beyond B = 3). *)
let ablation_max_tams () =
  section "Ablation: testing time vs permitted number of TAMs (W = 48)";
  let t =
    Texttable.create ~title:"P_NPAW time as max_tams grows"
      ~columns:
        (("soc", Texttable.Left)
        :: List.map
             (fun b -> (Printf.sprintf "B<=%d" b, Texttable.Right))
             [ 1; 2; 3; 4; 6; 8; 10 ])
  in
  List.iter
    (fun soc ->
      let table = table_of soc in
      let cells =
        List.map
          (fun max_tams ->
            let r = pe_run ~table ~total_width:48 ~max_tams () in
            string_of_int r.Pe.time)
          [ 1; 2; 3; 4; 6; 8; 10 ]
      in
      Texttable.add_row t (soc :: cells))
    [ "d695"; "p21241"; "p31108"; "p93791" ];
  Texttable.print t;
  print_endline
    "  (times are heuristic, before the final exact step; monotone\n\
    \   non-increasing left to right)\n"

(* ------------------------------------------------------------------ *)
(* Section 4: extensions beyond the paper                              *)
(* ------------------------------------------------------------------ *)

let extension_architectures () =
  section
    "Extension: classic architectures vs the paper's test bus (ITC'98 \
     baselines)";
  let t =
    Texttable.create ~title:"SOC testing time by architecture"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("W", Texttable.Right);
          ("architecture", Texttable.Left);
          ("cycles", Texttable.Right);
          ("vs best", Texttable.Right);
        ]
  in
  List.iter
    (fun soc_name ->
      List.iter
        (fun w ->
          let entries =
            Soctam_baselines.Compare.run (Experiments.soc ctx soc_name)
              ~width:w
          in
          let best =
            (List.hd entries).Soctam_baselines.Compare.time
          in
          List.iter
            (fun e ->
              Texttable.add_row t
                [
                  soc_name;
                  string_of_int w;
                  e.Soctam_baselines.Compare.architecture;
                  string_of_int e.Soctam_baselines.Compare.time;
                  Printf.sprintf "%.2fx"
                    (float_of_int e.Soctam_baselines.Compare.time
                    /. float_of_int best);
                ])
            entries)
        (if fast then [ 32 ] else [ 32; 64 ]))
    [ "d695"; "p93791" ];
  Texttable.print t;
  print_newline ()

let extension_annealing () =
  section
    "Extension: alternative P_NPAW optimizers (simulated annealing, \
     TR-style local search)";
  let t =
    Texttable.create ~title:"three optimizers, same search space"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("W", Texttable.Right);
          ("T_pipeline", Texttable.Right);
          ("cpu_pipe", Texttable.Right);
          ("T_anneal", Texttable.Right);
          ("cpu_sa", Texttable.Right);
          ("T_local", Texttable.Right);
          ("cpu_tr", Texttable.Right);
          ("dT% sa", Texttable.Right);
          ("dT% tr", Texttable.Right);
        ]
  in
  List.iter
    (fun soc_name ->
      List.iter
        (fun w ->
          let table = table_of soc_name in
          let pipe, pipe_secs =
            Soctam_util.Timer.time (fun () ->
                co_run ~max_tams:10 ~table (Experiments.soc ctx soc_name)
                  ~total_width:w)
          in
          let sa, sa_secs =
            Soctam_util.Timer.time (fun () ->
                Soctam_anneal.Annealer.run_with
                  Soctam_core.Run_config.(default |> with_max_tams 10)
                  ~table ~total_width:w)
          in
          let tr, tr_secs =
            Soctam_util.Timer.time (fun () ->
                Soctam_architect.Tr_architect.optimize ~max_tams:10 ~table
                  ~total_width:w ())
          in
          let delta v =
            Printf.sprintf "%+.2f"
              (100.
              *. float_of_int (v - pipe.Co.final_time)
              /. float_of_int pipe.Co.final_time)
          in
          Texttable.add_row t
            [
              soc_name;
              string_of_int w;
              string_of_int pipe.Co.final_time;
              Printf.sprintf "%.2fs" pipe_secs;
              string_of_int sa.Soctam_anneal.Annealer.time;
              Printf.sprintf "%.2fs" sa_secs;
              string_of_int tr.Soctam_architect.Tr_architect.time;
              Printf.sprintf "%.2fs" tr_secs;
              delta sa.Soctam_anneal.Annealer.time;
              delta tr.Soctam_architect.Tr_architect.time;
            ])
        (if fast then [ 32 ] else [ 24; 48 ]))
    [ "d695"; "p21241"; "p93791" ];
  Texttable.print t;
  print_endline
    "  (negative dT%: the alternative found a better architecture than\n\
    \   the paper's pipeline; positive: the pipeline won. The local search\n\
    \   needs ~500 Core_assign runs, the pipeline tens of thousands)\n"

let extension_power () =
  section "Extension: power-constrained test scheduling";
  let t =
    Texttable.create ~title:"makespan under a power cap (W = 32)"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("budget %peak", Texttable.Right);
          ("budget", Texttable.Right);
          ("makespan", Texttable.Right);
          ("stretch%", Texttable.Right);
          ("peak reached", Texttable.Right);
        ]
  in
  List.iter
    (fun soc_name ->
      let soc = Experiments.soc ctx soc_name in
      let r = co_run ~max_tams:10 ~table:(table_of soc_name) soc ~total_width:32 in
      let arch = r.Co.architecture in
      let power = Soctam_power.Power_model.estimate soc in
      let free = Soctam_power.Power_schedule.unconstrained arch power in
      List.iter
        (fun pct ->
          let budget =
            max
              (Soctam_power.Power_model.max_power power)
              (free.Soctam_power.Power_schedule.peak_power * pct / 100)
          in
          match
            Soctam_power.Power_schedule.constrained arch power ~budget
          with
          | Error msg ->
              Texttable.add_row t
                [ soc_name; string_of_int pct; string_of_int budget; msg; "-"; "-" ]
          | Ok sched ->
              Texttable.add_row t
                [
                  soc_name;
                  string_of_int pct;
                  string_of_int budget;
                  string_of_int sched.Soctam_power.Power_schedule.makespan;
                  Printf.sprintf "%+.1f"
                    (100.
                    *. float_of_int
                         (sched.Soctam_power.Power_schedule.makespan
                         - free.Soctam_power.Power_schedule.makespan)
                    /. float_of_int
                         free.Soctam_power.Power_schedule.makespan);
                  string_of_int sched.Soctam_power.Power_schedule.peak_power;
                ])
        [ 100; 70; 50 ])
    [ "d695"; "p93791" ];
  Texttable.print t;
  print_newline ()

(* d695's data is public, so the paper's complete architectures (width
   partition + assignment vector) can be rebuilt verbatim on our
   reconstruction and their testing times compared with the published
   numbers: a direct fidelity measurement of the d695 data AND the
   wrapper-design implementation, independent of any optimizer. *)
let extension_replay () =
  section "Extension: the paper's published d695 architectures, replayed";
  let t =
    Texttable.create
      ~title:"published partition + assignment, evaluated on our d695"
      ~columns:
        [
          ("table", Texttable.Left);
          ("W", Texttable.Right);
          ("partition", Texttable.Left);
          ("T here", Texttable.Right);
          ("T published", Texttable.Right);
          ("delta%", Texttable.Right);
        ]
  in
  let table = table_of "d695" in
  let deltas = ref [] in
  List.iter
    (fun (label, method_, tams) ->
      List.iter
        (fun (row : Soctam_report.Paper_ref.architecture_row) ->
          let arch =
            Soctam_tam.Architecture.of_times
              ~times:(fun ~core ~width ->
                Soctam_core.Time_table.time table ~core ~width)
              ~cores:10 ~widths:row.Soctam_report.Paper_ref.widths
              ~assignment:row.Soctam_report.Paper_ref.assignment
          in
          let here = arch.Soctam_tam.Architecture.time in
          let published = row.Soctam_report.Paper_ref.published_time in
          let delta =
            100. *. float_of_int (here - published) /. float_of_int published
          in
          deltas := Float.abs delta :: !deltas;
          Texttable.add_row t
            [
              label;
              string_of_int row.Soctam_report.Paper_ref.aw;
              Format.asprintf "%a" Soctam_tam.Architecture.pp_partition
                row.Soctam_report.Paper_ref.widths;
              string_of_int here;
              string_of_int published;
              Printf.sprintf "%+.2f" delta;
            ])
        (Soctam_report.Paper_ref.d695_architectures ~method_ ~tams))
    [
      ("2a exh B=2", `Exhaustive, Some 2);
      ("2b new B=2", `New, Some 2);
      ("2c exh B=3", `Exhaustive, Some 3);
      ("2d new B=3", `New, Some 3);
      ("3 P_NPAW", `Npaw, None);
    ];
  Texttable.print t;
  let mean =
    List.fold_left ( +. ) 0. !deltas /. float_of_int (List.length !deltas)
  in
  Printf.printf
    "  mean |delta| = %.2f%% over %d published architectures. Replayed\n\
    \  points sit above the published times: an assignment that is optimal\n\
    \  on the authors' exact core data is merely feasible on the\n\
    \  reconstruction, so its makespan degrades wherever per-core times\n\
    \  deviate (most visibly on narrow TAMs and the fine-grained P_NPAW\n\
    \  partitions). The meaningful fidelity check is that our optimizer\n\
    \  reaches the same *optima* (see t2/t3: within ~0-4%% of the published\n\
    \  times at most widths), not that their exact assignment transfers.\n\n"
    mean (List.length !deltas)

let extension_restitch () =
  section
    "Extension: internal scan chain restitching (Aerts & Marinissen [1])";
  let t =
    Texttable.create
      ~title:"co-optimized time, original vs restitched scan chains (W = 32)"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("T original", Texttable.Right);
          ("T restitched", Texttable.Right);
          ("gain%", Texttable.Right);
        ]
  in
  List.iter
    (fun soc_name ->
      let soc = Experiments.soc ctx soc_name in
      let before =
        (co_run ~max_tams:10 ~table:(table_of soc_name) soc ~total_width:32)
          .Co.final_time
      in
      let restitched =
        Soctam_scan.Scan_design.restitch_soc soc ~width:32
      in
      let after =
        (co_run ~max_tams:10 restitched ~total_width:32).Co.final_time
      in
      Texttable.add_row t
        [
          soc_name;
          string_of_int before;
          string_of_int after;
          Printf.sprintf "%.2f"
            (100. *. float_of_int (before - after) /. float_of_int before);
        ])
    [ "d695"; "p21241"; "p31108"; "p93791" ];
  Texttable.print t;
  print_endline
    "  (restitching redivides each logic core's scan flip-flops into the\n\
    \   chain count that minimizes its wrapper time at this TAM budget -\n\
    \   the DfT freedom the paper's problem statement fixes upfront)\n"

let extension_utilization () =
  section "Extension: simulated TAM wire utilization";
  let t =
    Texttable.create ~title:"input-side wire budget breakdown (W = 32)"
      ~columns:
        [
          ("soc", Texttable.Left);
          ("cycles", Texttable.Right);
          ("data%", Texttable.Right);
          ("tail idle%", Texttable.Right);
          ("unused%", Texttable.Right);
          ("intra-core%", Texttable.Right);
        ]
  in
  List.iter
    (fun soc_name ->
      let soc = Experiments.soc ctx soc_name in
      let r = co_run ~max_tams:10 ~table:(table_of soc_name) soc ~total_width:32 in
      let arch = r.Co.architecture in
      let sim = Soctam_sim.Soc_sim.run soc arch in
      assert (
        sim.Soctam_sim.Soc_sim.soc_cycles
        = arch.Soctam_tam.Architecture.time);
      let total = sim.Soctam_sim.Soc_sim.total_wire_cycles in
      let sum f =
        Array.fold_left (fun acc x -> acc + f x) 0 sim.Soctam_sim.Soc_sim.per_tam
      in
      let pct v = Printf.sprintf "%.1f" (100. *. float_of_int v /. float_of_int total) in
      Texttable.add_row t
        [
          soc_name;
          string_of_int sim.Soctam_sim.Soc_sim.soc_cycles;
          Printf.sprintf "%.1f" (100. *. sim.Soctam_sim.Soc_sim.utilization_in);
          pct (sum (fun x -> x.Soctam_sim.Soc_sim.tail_idle_wire_cycles));
          pct (sum (fun x -> x.Soctam_sim.Soc_sim.unused_width_wire_cycles));
          pct (sum (fun x -> x.Soctam_sim.Soc_sim.intra_core_idle_in));
        ])
    [ "d695"; "p21241"; "p31108"; "p93791" ];
  Texttable.print t;
  print_endline
    "  (the phase-accurate simulator independently confirms every SOC\n\
    \   testing time the optimizer computed - asserted during this run)\n"

let extension_family () =
  section "Extension: scaling across the synthetic benchmark family (W = 32)";
  let t =
    Texttable.create ~title:"pipeline behaviour across design classes"
      ~columns:
        [
          ("profile", Texttable.Left);
          ("cores", Texttable.Right);
          ("B", Texttable.Right);
          ("T_final", Texttable.Right);
          ("gap% vs bound", Texttable.Right);
          ("cpu", Texttable.Right);
          ("hw cost", Texttable.Right);
        ]
  in
  List.iter
    (fun profile ->
      let soc = Soctam_soc_data.Family.instance profile ~index:0 in
      let table = Soctam_core.Time_table.build soc ~max_width:32 in
      let r, secs =
        Soctam_util.Timer.time (fun () ->
            co_run ~max_tams:10 ~table soc ~total_width:32)
      in
      let bounds = Soctam_core.Bounds.compute table ~total_width:32 in
      let arch = r.Co.architecture in
      Texttable.add_row t
        [
          Soctam_soc_data.Family.name profile;
          string_of_int (Soctam_model.Soc.core_count soc);
          string_of_int (Array.length arch.Soctam_tam.Architecture.widths);
          string_of_int r.Co.final_time;
          Printf.sprintf "%.2f"
            (Soctam_core.Bounds.gap_pct bounds ~time:r.Co.final_time);
          Printf.sprintf "%.2fs" secs;
          string_of_int
            (Soctam_tam.Cost.estimate soc arch).Soctam_tam.Cost.total;
        ])
    Soctam_soc_data.Family.all;
  Texttable.print t;
  print_endline
    "  (deterministic family instances; the gap is certified against the\n\
    \   bottleneck/wire-volume lower bound)\n"

let () =
  regenerate_tables ();
  ablation_tau ();
  ablation_enumeration ();
  ablation_tie_breaks ();
  ablation_final_step ();
  ablation_max_tams ();
  extension_replay ();
  extension_architectures ();
  extension_annealing ();
  extension_power ();
  extension_restitch ();
  extension_utilization ();
  extension_family ();
  run_bechamel ();
  print_endline "bench: done"
