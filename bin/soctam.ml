(* soctam: command-line driver for wrapper/TAM co-optimization.

   Subcommands: info, wrapper; the solvers optimize, exhaustive, ilp,
   pack, anneal and race, each of which certifies its answer; compare,
   schedule, sweep, tables, gen; and verify, check, lint and analyze. An
   SOC is named either by a built-in benchmark (d695, p21241, p31108,
   p93791) or by a path to a .soc file. *)

let load_soc spec =
  match Soctam_soc_data.Philips.by_name spec with
  | Some soc -> Ok soc
  | None ->
      if Sys.file_exists spec then begin
        (* Accept both the one-line .soc dialect and the ITC'02-style
           hierarchical dialect. *)
        match Soctam_soc_data.Soc_format.load spec with
        | Ok soc -> Ok soc
        | Error flat_err -> (
            match Soctam_soc_data.Itc02_format.load spec with
            | Ok soc -> Ok soc
            | Error itc_err ->
                Error
                  (Printf.sprintf
                     "cannot parse %s (as .soc: %s; as ITC'02 style: %s)"
                     spec flat_err itc_err))
      end
      else
        Error
          (Printf.sprintf
             "%S is neither a built-in SOC (d695, p21241, p31108, p93791) \
              nor an existing file"
             spec)

let with_soc spec f =
  match load_soc spec with
  | Error msg ->
      prerr_endline ("soctam: " ^ msg);
      1
  | Ok soc -> f soc

(* Write [contents] to [path]. A path that cannot be written is a user
   error, not an internal one: report it and answer [false]. *)
let write_file path contents =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        flush oc)
  with
  | () -> true
  | exception Sys_error msg ->
      prerr_endline ("soctam: cannot write " ^ msg);
      false

(* -- observability --------------------------------------------------------- *)

(* Run [f] under an observability collector when the user asked for one
   (--stats[=FILE]). The JSON document goes to FILE, or to stdout for
   the "-" destination; the one-line human summary always goes to
   stderr, so a run with --stats=FILE keeps stdout byte-identical to a
   run without the flag. *)
let with_stats dest f =
  match dest with
  | None -> f Soctam_obs.Obs.null
  | Some dest -> (
      let stats = Soctam_obs.Obs.create () in
      let status = f stats in
      let snap = Soctam_obs.Obs.snapshot stats in
      let doc = Soctam_report.Stats_json.render_string snap in
      prerr_endline (Soctam_report.Stats_json.summary snap);
      match dest with
      | "-" ->
          print_endline doc;
          status
      | path ->
          if write_file path (doc ^ "\n") || status <> 0 then status else 1)

(* -- shared run options ---------------------------------------------------- *)

(* The options every long-running solver subcommand (the engine
   subcommands, sweep, race) shares: parallelism, observability, a
   wall-clock budget, and the checkpoint / resume lifecycle. One record,
   one cmdliner term, one Run_config builder — a new solver subcommand
   picks all of them up by composing [run_opts_term] instead of
   redeclaring flags. *)
type run_opts = {
  ro_jobs : int;
  ro_stats : string option;
  ro_budget : float option;
  ro_checkpoint : string option;
  ro_every : int;
  ro_resume : string option;
}

(* The embedded tokens are deliberately unused here: the solver already
   persisted them to --checkpoint's path (that is what the resume hint
   points at), and this function only maps the outcome to an exit
   status. *)
let[@soctam.allow "OUTCOME-DROP"] outcome_status ?checkpoint outcome =
  match (outcome : Soctam_core.Outcome.t) with
  | Complete -> 0
  | Budget_exhausted _ ->
      (match checkpoint with
      | Some path ->
          Printf.eprintf "soctam: budget exhausted; resume with --resume %s\n%!"
            path
      | None ->
          prerr_endline
            "soctam: budget exhausted; pass --checkpoint to make truncated \
             runs resumable");
      0
  | Interrupted _ ->
      (match checkpoint with
      | Some path ->
          Printf.eprintf "soctam: interrupted; resume with --resume %s\n%!"
            path
      | None -> prerr_endline "soctam: interrupted");
      130

(* Build the [Run_config.t] for [soc] from the shared options and hand it
   to [f]: loads --resume's checkpoint (a bad file is a clean error, not
   a crash), threads the --stats collector, and installs the cooperative
   SIGINT handler when the run writes checkpoints — the signal then stops
   the run at the next slice boundary with a final checkpoint on disk
   instead of killing the process mid-write. *)
let with_run_config opts soc f =
  let resume =
    match opts.ro_resume with
    | None -> Ok None
    | Some path -> Result.map Option.some (Soctam_core.Checkpoint.load path)
  in
  match resume with
  | Error msg ->
      prerr_endline ("soctam: cannot resume: " ^ msg);
      1
  | Ok resume ->
      Option.iter
        (fun cp ->
          prerr_endline
            ("soctam: resuming " ^ Soctam_core.Checkpoint.describe cp))
        resume;
      with_stats opts.ro_stats (fun stats ->
          let open Soctam_core.Run_config in
          let cfg =
            default |> with_jobs opts.ro_jobs |> with_stats stats
            |> with_soc_name soc.Soctam_model.Soc.name
            |> with_checkpoint_every opts.ro_every
          in
          let cfg =
            match opts.ro_budget with
            | Some seconds -> with_time_budget seconds cfg
            | None -> cfg
          in
          let cfg =
            match opts.ro_checkpoint with
            | Some path -> with_checkpoint path cfg
            | None -> cfg
          in
          let cfg =
            match resume with Some cp -> with_resume cp cfg | None -> cfg
          in
          let cfg =
            if checkpointing cfg then begin
              let token = Soctam_util.Cancel.create () in
              Soctam_util.Cancel.install_sigint token;
              with_cancel (fun () -> Soctam_util.Cancel.requested token) cfg
            end
            else cfg
          in
          try f cfg with
          | Invalid_argument msg | Failure msg ->
              prerr_endline ("soctam: " ^ msg);
              1)

(* -- diagnostics reporting ------------------------------------------------ *)

let print_report ?(json = false) report =
  if json then print_endline (Soctam_report.Check_json.render report)
  else Format.printf "%a@." Soctam_check.Report.pp report;
  if Soctam_check.Report.ok report then 0 else 1

(* -- info ---------------------------------------------------------------- *)

let info_cmd spec verbose =
  with_soc spec (fun soc ->
      if verbose then Format.printf "%a@." Soctam_model.Soc.pp soc
      else Format.printf "%a@." Soctam_model.Soc.pp_summary soc;
      0)

(* -- wrapper ------------------------------------------------------------- *)

let wrapper_cmd spec core_id width layout =
  with_soc spec (fun soc ->
      if core_id < 1 || core_id > Soctam_model.Soc.core_count soc then begin
        prerr_endline "soctam: core id out of range";
        1
      end
      else begin
        let core = Soctam_model.Soc.core soc (core_id - 1) in
        Format.printf "%a@." Soctam_model.Core_data.pp core;
        let design = Soctam_wrapper.Design.design core ~width in
        Format.printf "%a@." Soctam_wrapper.Design.pp design;
        if layout then
          Format.printf "%a@." Soctam_wrapper.Design.pp_layout design;
        Format.printf "pareto widths (width, time):@.";
        List.iter
          (fun (w, t) -> Format.printf "  %3d %8d@." w t)
          (Soctam_wrapper.Design.pareto_widths core ~max_width:width);
        Format.printf "max useful width: %d@."
          (Soctam_wrapper.Design.max_useful_width core);
        0
      end)

(* -- engine subcommands --------------------------------------------------- *)

(* optimize / pack / anneal / exhaustive are the same subcommand over
   different engines: resolve the engine in the registry, validate the
   shared flag set against its capability record, build one Run_config,
   run, and present the uniform report. The per-engine texture lives in
   the engine's own note lines, not in per-subcommand plumbing. *)

module Engine = Soctam_core.Engine

(* Reject flag/engine combinations the engine's caps rule out, with one
   wording for every subcommand. *)
let engine_flag_error engine ~tams ~jobs =
  let caps = Engine.caps engine in
  let name = Engine.name engine in
  if caps.Engine.needs_fixed_tams && tams = None then
    Some (Printf.sprintf "engine %s solves one TAM count at a time: pass -b B"
            name)
  else if caps.Engine.free_tams_only && tams <> None then
    Some (Printf.sprintf
            "engine %s searches the TAM count itself: drop -b (bound it with \
             --max-tams)"
            name)
  else if (not caps.Engine.parallel) && jobs > 1 then
    Some (Printf.sprintf "engine %s is sequential: drop -j" name)
  else None

(* Pure status word for the result banner; the token itself is handled
   (persisted and hinted at) by [outcome_status]. *)
let[@soctam.allow "OUTCOME-DROP"] outcome_word = function
  | Soctam_core.Outcome.Complete -> "complete"
  | Soctam_core.Outcome.Budget_exhausted _ -> "budget hit, incumbent"
  | Soctam_core.Outcome.Interrupted _ -> "interrupted, incumbent"

let print_bounds table ~width ~time =
  let bounds = Soctam_core.Bounds.compute table ~total_width:width in
  Format.printf
    "lower bounds: bottleneck %d (core %d), wire volume %d; gap %+.2f%%%s@."
    bounds.Soctam_core.Bounds.bottleneck
    (bounds.Soctam_core.Bounds.bottleneck_core + 1)
    bounds.Soctam_core.Bounds.wire_volume
    (Soctam_core.Bounds.gap_pct bounds ~time)
    (if Soctam_core.Bounds.saturated bounds ~time then
       " (saturated: more wires or TAMs cannot help)"
     else "")

let save_architecture soc architecture = function
  | None -> 0
  | Some path -> (
      match
        Soctam_tam.Arch_format.save path ~soc_name:soc.Soctam_model.Soc.name
          architecture
      with
      | Ok () ->
          Format.printf "architecture written to %s@." path;
          0
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1)

(* The tail of every solver run that found an architecture: print it,
   then [details] (the engine's own lines), the lower bounds, honour
   --save-arch, and certify the claim independently, re-deriving the
   exact optimum of the chosen partition. A failed save or certificate
   exits 1; an unfinished run keeps the higher status [outcome_status]
   gives it. *)
let finish_run ?(details = ignore) ~name ~table ~opts ~save_arch soc ~width
    ~widths ~assignment ~time outcome =
  let architecture = Soctam_tam.Architecture.make ~soc ~widths ~assignment in
  Format.printf "%a@." Soctam_tam.Architecture.pp architecture;
  details architecture;
  print_bounds table ~width ~time;
  let save_status = save_architecture soc architecture save_arch in
  let claim =
    {
      Soctam_check.Arch_check.total_width = Some width;
      widths;
      assignment;
      core_times = None;
      tam_times = None;
      time;
    }
  in
  let subject =
    Printf.sprintf "%s %s result (W = %d)" soc.Soctam_model.Soc.name name
      width
  in
  let certify_status =
    print_report
      (Soctam_check.Certify.claim ~table ~check_exact:true ~subject ~soc claim)
  in
  let oc_status = outcome_status ?checkpoint:opts.ro_checkpoint outcome in
  max oc_status (if save_status <> 0 then save_status else certify_status)

(* The driver shared by every engine subcommand. [engine] is a registry
   lookup result so subcommands that parameterize their engine (anneal's
   --iterations/--seed) slot in the same way. *)
let engine_cmd engine spec width tams max_tams opts save_arch =
  with_soc spec (fun soc ->
      match engine with
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1
      | Ok engine -> (
          match engine_flag_error engine ~tams ~jobs:opts.ro_jobs with
          | Some msg ->
              prerr_endline ("soctam: " ^ msg);
              1
          | None ->
              with_run_config opts soc (fun cfg ->
                  let stats = cfg.Soctam_core.Run_config.stats in
                  let table =
                    Soctam_core.Time_table.build ~stats soc ~max_width:width
                  in
                  let cfg =
                    match tams with
                    | Some tams -> Soctam_core.Run_config.with_tams tams cfg
                    | None -> Soctam_core.Run_config.with_max_tams max_tams cfg
                  in
                  let report, secs =
                    Soctam_util.Timer.time (fun () ->
                        Engine.run engine cfg
                          { Engine.table; total_width = width })
                  in
                  let name = Engine.name engine in
                  if Array.length report.Engine.r_widths = 0 then begin
                    (* Possible only under an imported bound or a budget
                       spent before the first incumbent. *)
                    Format.printf "%s: no architecture (%s), %.2fs@." name
                      (outcome_word report.Engine.r_outcome) secs;
                    List.iter
                      (fun note -> Format.printf "  %s@." note)
                      report.Engine.r_notes;
                    outcome_status ?checkpoint:opts.ro_checkpoint
                      report.Engine.r_outcome
                  end
                  else
                    finish_run ~name ~table ~opts ~save_arch soc ~width
                      ~widths:report.Engine.r_widths
                      ~assignment:report.Engine.r_assignment
                      ~time:report.Engine.r_time report.Engine.r_outcome
                      ~details:(fun architecture ->
                        Format.printf "%s: partition %a, time %d (%s), %.2fs@."
                          name Soctam_tam.Architecture.pp_partition
                          report.Engine.r_widths report.Engine.r_time
                          (outcome_word report.Engine.r_outcome)
                          secs;
                        List.iter
                          (fun note -> Format.printf "  %s@." note)
                          report.Engine.r_notes;
                        Format.printf "%a@." Soctam_tam.Cost.pp
                          (Soctam_tam.Cost.estimate soc architecture)))))

(* -- race ----------------------------------------------------------------- *)

(* The portfolio racer: every engine of --engines attacks the instance
   in round-robin slices under one shared pruning bound. Wall time goes
   to stderr so stdout is byte-identical for every -j (the engines and
   the racer are deterministic; only the clock is not). *)
let race_cmd spec width tams max_tams engines_spec opts save_arch =
  with_soc spec (fun soc ->
      (* The racer runs sequential engines at -j 1 itself, so only the
         TAM-count checks apply to its members. *)
      let checked engines =
        match
          List.find_map (fun e -> engine_flag_error e ~tams ~jobs:1) engines
        with
        | Some msg -> Error msg
        | None -> Ok engines
      in
      match Result.bind (Soctam_race.Registry.parse engines_spec) checked with
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1
      | Ok engines ->
          with_run_config opts soc (fun cfg ->
              let stats = cfg.Soctam_core.Run_config.stats in
              let table =
                Soctam_core.Time_table.build ~stats soc ~max_width:width
              in
              let cfg =
                match tams with
                | Some tams -> Soctam_core.Run_config.with_tams tams cfg
                | None -> Soctam_core.Run_config.with_max_tams max_tams cfg
              in
              let result, secs =
                Soctam_util.Timer.time (fun () ->
                    Soctam_race.Race.run cfg ~engines ~table
                      ~total_width:width)
              in
              Printf.eprintf "soctam: race wall time %.2fs\n%!" secs;
              Format.printf "race: time %d (%s) after %d rounds (%d slices)@."
                result.Soctam_race.Race.time
                (outcome_word result.Soctam_race.Race.outcome)
                result.Soctam_race.Race.rounds result.Soctam_race.Race.slices;
              Format.printf "  winner %s%s; tau imports %d, exports %d@."
                (match result.Soctam_race.Race.winner with
                | Some w -> w
                | None -> "none (even-split fallback)")
                (if result.Soctam_race.Race.proven_optimal then
                   ", proven optimal"
                 else "")
                result.Soctam_race.Race.tau_imports
                result.Soctam_race.Race.tau_exports;
              List.iter
                (fun er ->
                  Format.printf "  %-10s %d slices, %d improvements%s@."
                    er.Soctam_race.Race.er_name
                    er.Soctam_race.Race.er_slices
                    er.Soctam_race.Race.er_improvements
                    (if er.Soctam_race.Race.er_proved then ", proved"
                     else if er.Soctam_race.Race.er_done then ", done"
                     else ""))
                result.Soctam_race.Race.engines;
              (* Seed TR-Architect from the race winner: a free-TAM-count
                 instance whose optimum is not proven may still have an
                 improving hill-climb move. The climb never worsens its
                 seed, so the printed architecture stays never-worse than
                 the best solo engine. *)
              let widths, assignment, time =
                if
                  tams = None
                  && Soctam_core.Outcome.is_complete
                       result.Soctam_race.Race.outcome
                  && not result.Soctam_race.Race.proven_optimal
                then begin
                  let climb =
                    Soctam_architect.Tr_architect.climb ~max_tams ~table
                      ~widths:result.Soctam_race.Race.widths ()
                  in
                  if climb.Soctam_architect.Tr_architect.time
                     < result.Soctam_race.Race.time
                  then begin
                    Format.printf
                      "polish: TR-Architect climb improved %d -> %d@."
                      result.Soctam_race.Race.time
                      climb.Soctam_architect.Tr_architect.time;
                    ( climb.Soctam_architect.Tr_architect.widths,
                      climb.Soctam_architect.Tr_architect.assignment,
                      climb.Soctam_architect.Tr_architect.time )
                  end
                  else
                    ( result.Soctam_race.Race.widths,
                      result.Soctam_race.Race.assignment,
                      result.Soctam_race.Race.time )
                end
                else
                  ( result.Soctam_race.Race.widths,
                    result.Soctam_race.Race.assignment,
                    result.Soctam_race.Race.time )
              in
              finish_run ~name:"race" ~table ~opts ~save_arch soc ~width
                ~widths ~assignment ~time result.Soctam_race.Race.outcome))

(* -- compare ------------------------------------------------------------- *)

let compare_cmd spec width =
  with_soc spec (fun soc ->
      let entries = Soctam_baselines.Compare.run soc ~width in
      let best = (List.hd entries).Soctam_baselines.Compare.time in
      Format.printf "architecture comparison at W = %d:@." width;
      List.iter
        (fun e ->
          Format.printf "  %-22s %10d cycles  (%.2fx)  %s@."
            e.Soctam_baselines.Compare.architecture
            e.Soctam_baselines.Compare.time
            (float_of_int e.Soctam_baselines.Compare.time /. float_of_int best)
            e.Soctam_baselines.Compare.detail)
        entries;
      0)

(* -- schedule ------------------------------------------------------------ *)

let glyph core =
  (* One distinguishable glyph per core id for the Gantt chart. *)
  let alphabet = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  String.make 1 alphabet.[core mod String.length alphabet]

let schedule_cmd spec width budget_pct =
  with_soc spec (fun soc ->
      let result =
        Soctam_core.Co_optimize.run Soctam_core.Run_config.default
          ~table:(Soctam_core.Time_table.build soc ~max_width:width)
          ~total_width:width
      in
      let architecture = result.Soctam_core.Co_optimize.architecture in
      let power = Soctam_power.Power_model.estimate soc in
      let free = Soctam_power.Power_schedule.unconstrained architecture power in
      let budget =
        max
          (Soctam_power.Power_model.max_power power)
          (free.Soctam_power.Power_schedule.peak_power * budget_pct / 100)
      in
      Format.printf
        "unconstrained: makespan %d, peak power %d@.budget (%d%% of peak, \
         floored at the hungriest core): %d@.@."
        free.Soctam_power.Power_schedule.makespan
        free.Soctam_power.Power_schedule.peak_power budget_pct budget;
      match
        Soctam_power.Power_schedule.constrained architecture power ~budget
      with
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1
      | Ok sched ->
          Format.printf "power-capped: makespan %d (%+.2f%%), peak power %d@.@."
            sched.Soctam_power.Power_schedule.makespan
            (100.
            *. float_of_int
                 (sched.Soctam_power.Power_schedule.makespan
                 - free.Soctam_power.Power_schedule.makespan)
            /. float_of_int free.Soctam_power.Power_schedule.makespan)
            sched.Soctam_power.Power_schedule.peak_power;
          let items =
            List.map
              (fun (s : Soctam_power.Power_schedule.slot) ->
                {
                  Soctam_report.Gantt.label = glyph s.Soctam_power.Power_schedule.core;
                  lane = s.Soctam_power.Power_schedule.tam;
                  start = s.Soctam_power.Power_schedule.start;
                  finish = s.Soctam_power.Power_schedule.finish;
                })
              sched.Soctam_power.Power_schedule.slots
          in
          print_string
            (Soctam_report.Gantt.render
               ~lanes:(Array.length architecture.Soctam_tam.Architecture.widths)
               ~total:sched.Soctam_power.Power_schedule.makespan items);
          print_report
            (Soctam_check.Certify.schedule ~soc ~arch:architecture ~power
               sched))

(* -- sweep --------------------------------------------------------------- *)

let sweep_cmd spec from_w to_w step tolerance opts =
  with_soc spec (fun soc ->
      if from_w < 1 || to_w < from_w || step < 1 then begin
        prerr_endline "soctam: need 1 <= from <= to and step >= 1";
        1
      end
      else begin
        let widths =
          let rec loop w acc = if w > to_w then List.rev acc else loop (w + step) (w :: acc) in
          loop from_w []
        in
        with_run_config opts soc (fun cfg ->
        let result = Soctam_core.Sweep.run_with cfg soc ~widths in
        let points = result.Soctam_core.Sweep.points in
        Format.printf "%a@." Soctam_core.Sweep.pp points;
        (match Soctam_core.Sweep.knee ~tolerance_pct:tolerance points with
        | Some knee ->
            Format.printf
              "knee: W = %d reaches within %.0f%% of the best time in the \
               sweep (%d cycles)@."
              knee.Soctam_core.Sweep.width tolerance
              knee.Soctam_core.Sweep.time
        | None -> ());
        outcome_status ?checkpoint:opts.ro_checkpoint
          result.Soctam_core.Sweep.outcome)
      end)

(* -- tables -------------------------------------------------------------- *)

let tables_cmd ids budget markdown csv =
  let ids =
    match ids with [] -> Soctam_report.Experiments.table_ids | ids -> ids
  in
  let unknown =
    List.filter
      (fun id -> not (List.mem id Soctam_report.Experiments.table_ids))
      ids
  in
  if unknown <> [] then begin
    Printf.eprintf "soctam: unknown table id(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " Soctam_report.Experiments.table_ids);
    1
  end
  else begin
    let ctx = Soctam_report.Experiments.context ~exhaustive_budget:budget () in
    let render =
      if csv then Soctam_report.Texttable.render_csv
      else if markdown then Soctam_report.Texttable.render_markdown
      else Soctam_report.Texttable.render
    in
    List.iter
      (fun id ->
        print_string (render (Soctam_report.Experiments.run ctx id));
        print_newline ())
      ids;
    0
  end

(* -- verify -------------------------------------------------------------- *)

let verify_cmd spec arch_path =
  with_soc spec (fun soc ->
      match Soctam_tam.Arch_format.load arch_path with
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1
      | Ok parsed -> (
          (match parsed.Soctam_tam.Arch_format.soc_name with
          | Some name when name <> soc.Soctam_model.Soc.name ->
              Format.printf
                "warning: architecture was saved for SOC %s, verifying \
                 against %s@."
                name soc.Soctam_model.Soc.name
          | Some _ | None -> ());
          match
            Soctam_tam.Architecture.make ~soc
              ~widths:parsed.Soctam_tam.Arch_format.widths
              ~assignment:parsed.Soctam_tam.Arch_format.assignment
          with
          | exception Invalid_argument msg ->
              Format.printf "INVALID: %s@." msg;
              1
          | architecture ->
              let sim = Soctam_sim.Soc_sim.run soc architecture in
              let analytical = architecture.Soctam_tam.Architecture.time in
              let simulated = sim.Soctam_sim.Soc_sim.soc_cycles in
              Format.printf "%a@." Soctam_tam.Architecture.pp architecture;
              Format.printf
                "analytical SOC time %d, simulated %d: %s@.wire utilization \
                 %.1f%%, idle wire-cycles %d of %d@."
                analytical simulated
                (if analytical = simulated then "VERIFIED" else "MISMATCH")
                (100. *. sim.Soctam_sim.Soc_sim.utilization_in)
                sim.Soctam_sim.Soc_sim.total_idle_in
                sim.Soctam_sim.Soc_sim.total_wire_cycles;
              if analytical = simulated then 0 else 1))

(* -- check --------------------------------------------------------------- *)

let check_cmd spec arch_path width exact exhaustive sim json =
  with_soc spec (fun soc ->
      match Soctam_tam.Arch_format.load arch_path with
      | Error msg ->
          prerr_endline ("soctam: " ^ msg);
          1
      | Ok parsed ->
          let report, _ =
            Soctam_check.Certify.parsed_architecture ~check_exact:exact
              ~check_exhaustive:exhaustive ~check_simulation:sim
              ?total_width:width ~soc parsed
          in
          print_report ~json report)

(* -- lint ---------------------------------------------------------------- *)

let lint_cmd spec json =
  if Sys.file_exists spec then begin
    match Soctam_check.Certify.soc_file spec with
    | Error msg ->
        prerr_endline ("soctam: " ^ msg);
        1
    | Ok (report, _) -> print_report ~json report
  end
  else
    with_soc spec (fun soc ->
        print_report ~json (Soctam_check.Certify.soc soc))

(* -- analyze ------------------------------------------------------------- *)

(* Source-level determinism & domain-safety analysis (DESIGN.md §13):
   enforce the Soctam_analysis.Rule catalog over every .ml/.mli under
   lib/, bin/ and examples/, walking the Typedtree of the .cmt
   files of the last build. Exit 0 only when every finding is fixed,
   [@soctam.allow]ed or baselined. *)
let analyze_cmd root baseline_path json sarif call_graph prune =
  if not (Sys.file_exists (Filename.concat root "dune-project")) then begin
    Printf.eprintf
      "soctam: %s does not look like the repository root (no dune-project); \
       pass --root\n"
      root;
    1
  end
  else
    (* The committed baseline, when present, applies by default so
       `soctam analyze` and CI agree without extra flags. *)
    let baseline_file =
      match baseline_path with
      | Some path -> Some path
      | None ->
          let default = Filename.concat root "analysis.baseline" in
          if Sys.file_exists default then Some default else None
    in
    let baseline =
      match baseline_file with
      | Some path -> Soctam_analysis.Baseline.load path
      | None -> Ok Soctam_analysis.Baseline.empty
    in
    match baseline with
    | Error violations ->
        print_report ~json
          (Soctam_check.Report.make ~subject:"analyzer baseline" violations)
    | Ok baseline -> (
        let result = Soctam_analysis.Analyze.tree ~baseline ~root () in
        prerr_endline (Soctam_analysis.Analyze.summary result);
        let written =
          (match call_graph with
          | None -> true
          | Some path ->
              write_file path
                (Soctam_util.Json.to_string
                   (Soctam_analysis.Typed.graph_json
                      result.Soctam_analysis.Analyze.graph)
                ^ "\n"))
          &&
          match sarif with
          | None -> true
          | Some path ->
              write_file path (Soctam_analysis.Sarif.to_string result)
        in
        if not written then 1
        else
          match (prune, baseline_file) with
          | false, _ ->
              print_report ~json result.Soctam_analysis.Analyze.report
          | true, None ->
              prerr_endline
                "soctam: --prune-baseline: no baseline file to prune";
              1
          | true, Some path ->
              let stale = result.Soctam_analysis.Analyze.stale in
              let kept =
                List.filter
                  (fun (e : Soctam_analysis.Baseline.entry) ->
                    not
                      (List.exists
                         (fun (s : Soctam_analysis.Baseline.entry) ->
                           s.rule = e.rule && s.path = e.path)
                         stale))
                  (Soctam_analysis.Baseline.entries baseline)
              in
              if
                not
                  (write_file path
                     (Soctam_analysis.Baseline.to_string
                        (Soctam_analysis.Baseline.of_entries kept)))
              then 1
              else begin
                Printf.eprintf "soctam: pruned %d stale entr%s from %s\n"
                  (List.length stale)
                  (if List.length stale = 1 then "y" else "ies")
                  path;
                print_report ~json result.Soctam_analysis.Analyze.report
              end)

(* -- gen ----------------------------------------------------------------- *)

let gen_cmd profile_name output itc02 =
  let profile =
    match profile_name with
    | "p21241" -> Some Soctam_soc_data.Philips.p21241
    | "p31108" -> Some Soctam_soc_data.Philips.p31108
    | "p93791" -> Some Soctam_soc_data.Philips.p93791
    | _ -> None
  in
  match profile with
  | None ->
      prerr_endline "soctam: unknown profile (p21241, p31108, p93791)";
      1
  | Some profile -> (
      let soc = Soctam_soc_data.Philips.generate profile in
      let to_string =
        if itc02 then Soctam_soc_data.Itc02_format.to_string
        else Soctam_soc_data.Soc_format.to_string
      in
      let save =
        if itc02 then Soctam_soc_data.Itc02_format.save
        else Soctam_soc_data.Soc_format.save
      in
      match output with
      | None ->
          print_string (to_string soc);
          0
      | Some path -> (
          match save path soc with
          | Ok () ->
              Format.printf "wrote %s (%a)@." path Soctam_model.Soc.pp_summary
                soc;
              0
          | Error msg ->
              prerr_endline ("soctam: " ^ msg);
              1))

(* -- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let soc_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOC" ~doc:"Benchmark name or path to a .soc file.")

(* A count that must be >= [least]: >= 1 for [-w], [-b], [--max-tams],
   [-j] and [--checkpoint-every], >= 0 for [--iterations]. A value below
   it is a usage error at parse time, like a bad [--budget], rather than
   an [Invalid_argument] out of the solver or the run configuration. *)
let count_conv least =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | Some _ | None ->
        Error
          (`Msg
            (Printf.sprintf "invalid count %S: expected an integer >= %d" s
               least))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_conv = count_conv 1

let width_arg =
  Arg.(
    value & opt positive_conv 32
    & info [ "w"; "width" ] ~docv:"W" ~doc:"Total TAM width.")

let info_term =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every core.")
  in
  Term.(const info_cmd $ soc_arg $ verbose)

let wrapper_term =
  let core_id =
    Arg.(
      required
      & opt (some int) None
      & info [ "c"; "core" ] ~docv:"N" ~doc:"1-based core number.")
  in
  let layout =
    Arg.(
      value & flag
      & info [ "layout" ] ~doc:"Print every wrapper chain's composition.")
  in
  Term.(const wrapper_cmd $ soc_arg $ core_id $ width_arg $ layout)

let jobs_arg =
  Arg.(
    value & opt positive_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate partitions on $(docv) parallel domains. The reported \
           architecture is identical for every value; only the wall time \
           changes. Default 1 (sequential).")

let stats_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Collect optimizer statistics (pruning counters, phase timings, \
           the tau update trajectory) and write them as JSON to $(docv), or \
           to standard output when $(docv) is omitted or '-'. A one-line \
           summary goes to standard error. With a FILE destination the \
           command's standard output is byte-identical to a run without \
           this option.")

let checkpoint_arg =
  Arg.(
    value
    & opt ~vopt:(Some "soctam.ckpt") (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a resumable checkpoint to $(docv) (default soctam.ckpt) at \
           every slice boundary, atomically. SIGINT then stops the run at \
           the next boundary with a final checkpoint on disk and exit \
           status 130; a completed run removes the file. Continue a stopped \
           run with $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value & opt positive_conv 50_000
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Partition ranks per checkpoint slice: the granularity at which \
           checkpoints are written and budgets and SIGINT are honored. \
           Default 50000.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Continue the run checkpointed in $(docv). The checkpoint must \
           match this command's solver, SOC and search parameters. The \
           resumed run returns the same architecture and counter totals as \
           an uninterrupted one.")

(* Seconds of wall-clock budget, shared by the solver subcommands and
   [tables]: a finite value >= 0, so a negative, NaN or infinite
   [--budget] is a usage error at parse time rather than an exception
   (or a silently ignored limit) inside a run. *)
let seconds_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0. -> Ok v
    | Some _ | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid budget %S: expected a finite number of seconds >= 0"
               s))
  in
  Arg.conv ~docv:"S" (parse, Format.pp_print_float)

let budget_arg =
  Arg.(
    value
    & opt (some seconds_conv) None
    & info [ "budget" ] ~docv:"S"
        ~doc:
          "Wall-clock budget in seconds. The run stops at the next slice \
           boundary with the incumbent; with $(b,--checkpoint) the \
           truncated run is resumable. Default: no budget.")

(* One shared spec for the solver subcommands: every flag above, parsed
   into a [run_opts]. *)
let run_opts_term =
  let make ro_jobs ro_stats ro_budget ro_checkpoint ro_every ro_resume =
    { ro_jobs; ro_stats; ro_budget; ro_checkpoint; ro_every; ro_resume }
  in
  Term.(
    const make $ jobs_arg $ stats_arg $ budget_arg $ checkpoint_arg
    $ checkpoint_every_arg $ resume_arg)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the diagnostic report as JSON.")

(* The engine subcommands share one flag surface: the number-of-TAMs
   plan, the run options and --save-arch. An engine's caps
   decide at runtime which combinations are valid. *)
let tams_arg =
  Arg.(
    value
    & opt (some positive_conv) None
    & info [ "b"; "tams" ] ~docv:"B"
        ~doc:
          "Fix the number of TAMs (P_PAW). Required by engines that solve \
           one TAM count at a time (exhaustive, ilp); rejected by engines \
           that search the TAM count themselves (anneal).")

let max_tams_arg =
  Arg.(
    value & opt positive_conv 10
    & info [ "max-tams" ] ~docv:"B" ~doc:"TAM count ceiling for P_NPAW.")

let save_arch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-arch" ] ~docv:"FILE"
        ~doc:"Write the resulting architecture to FILE.")

let engine_term engine =
  Term.(
    const (engine_cmd engine)
    $ soc_arg $ width_arg $ tams_arg $ max_tams_arg $ run_opts_term
    $ save_arch_arg)

let optimize_term = engine_term (Soctam_race.Registry.find "pe")
let pack_term = engine_term (Soctam_race.Registry.find "pack")
let exhaustive_term = engine_term (Soctam_race.Registry.find "exhaustive")
let ilp_term = engine_term (Soctam_race.Registry.find "ilp")

let anneal_term =
  let iterations =
    Arg.(
      value & opt (count_conv 0) 100_000
      & info [ "iterations" ] ~docv:"N" ~doc:"Annealing moves.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let anneal_engine iterations seed =
    Ok
      (Soctam_anneal.Annealer.engine
         ~params:
           {
             Soctam_anneal.Annealer.default_params with
             Soctam_anneal.Annealer.iterations;
             seed = Int64.of_int seed;
           }
         ())
  in
  Term.(
    const (fun iterations seed -> engine_cmd (anneal_engine iterations seed))
    $ iterations $ seed $ soc_arg $ width_arg $ tams_arg $ max_tams_arg
    $ run_opts_term $ save_arch_arg)

let race_term =
  let engines =
    Arg.(
      value & opt string "pe,pack"
      & info [ "engines" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated portfolio, in grant order, from the engine \
             registry (pe, pack, anneal, exhaustive, ilp). Default \
             'pe,pack'.")
  in
  Term.(
    const race_cmd $ soc_arg $ width_arg $ tams_arg $ max_tams_arg $ engines
    $ run_opts_term $ save_arch_arg)

let compare_term = Term.(const compare_cmd $ soc_arg $ width_arg)

let schedule_term =
  let budget_pct =
    Arg.(
      value & opt int 60
      & info [ "budget-pct" ] ~docv:"PCT"
          ~doc:"Power budget as a percentage of the unconstrained peak.")
  in
  Term.(const schedule_cmd $ soc_arg $ width_arg $ budget_pct)

let sweep_term =
  let from_w =
    Arg.(value & opt int 16 & info [ "from" ] ~docv:"W" ~doc:"First width.")
  in
  let to_w =
    Arg.(value & opt int 64 & info [ "to" ] ~docv:"W" ~doc:"Last width.")
  in
  let step =
    Arg.(value & opt int 8 & info [ "step" ] ~docv:"N" ~doc:"Width step.")
  in
  let tolerance =
    Arg.(
      value & opt float 5.
      & info [ "tolerance" ] ~docv:"PCT" ~doc:"Knee tolerance in percent.")
  in
  Term.(
    const sweep_cmd $ soc_arg $ from_w $ to_w $ step $ tolerance
    $ run_opts_term)

let tables_term =
  let ids =
    Arg.(
      value & opt_all string []
      & info [ "id" ] ~docv:"ID" ~doc:"Table id (repeatable); default all.")
  in
  let budget =
    Arg.(
      value & opt seconds_conv 20.
      & info [ "budget" ] ~docv:"S"
          ~doc:"Exhaustive-baseline budget per cell in seconds.")
  in
  let markdown =
    Arg.(
      value & flag
      & info [ "markdown" ] ~doc:"Emit GitHub-flavoured markdown tables.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV tables.")
  in
  Term.(const tables_cmd $ ids $ budget $ markdown $ csv)

let gen_term =
  let profile =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROFILE" ~doc:"p21241, p31108 or p93791.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE.")
  in
  let itc02 =
    Arg.(
      value & flag
      & info [ "itc02" ] ~doc:"Emit the ITC'02-style hierarchical dialect.")
  in
  Term.(const gen_cmd $ profile $ output $ itc02)

let verify_term =
  let arch_path =
    Arg.(
      required
      & opt (some string) None
      & info [ "arch" ] ~docv:"FILE" ~doc:"Architecture file to verify.")
  in
  Term.(const verify_cmd $ soc_arg $ arch_path)

let check_term =
  let arch_path =
    Arg.(
      required
      & opt (some string) None
      & info [ "arch" ] ~docv:"FILE" ~doc:"Architecture file to certify.")
  in
  let width =
    Arg.(
      value
      & opt (some positive_conv) None
      & info [ "w"; "width" ] ~docv:"W"
          ~doc:"Total TAM width the architecture must partition exactly.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Also solve the claimed partition exactly and reject a time that \
             beats the proven optimum.")
  in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Also run the exhaustive baseline over every partition with the \
             same TAM count (small SOCs only).")
  in
  let sim =
    Arg.(
      value & flag
      & info [ "sim" ] ~doc:"Also cross-check with the cycle-level simulator.")
  in
  Term.(
    const check_cmd $ soc_arg $ arch_path $ width $ exact $ exhaustive $ sim
    $ json_flag)

let analyze_term =
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Repository root to analyze (must contain dune-project).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline file of acknowledged findings \
             (RULE-ID<TAB>path<TAB>justification per line). Default: \
             DIR/analysis.baseline when it exists.")
  in
  let sarif =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:
            "Additionally write the run as SARIF 2.1.0 to $(docv) (one \
             result per surviving finding and analyzer problem), for CI \
             diff annotation.")
  in
  let call_graph =
    Arg.(
      value
      & opt (some string) None
      & info [ "call-graph" ] ~docv:"FILE"
          ~doc:
            "Dump the module-qualified call graph and the \
             domain-reachability set as strict JSON to $(docv).")
  in
  let prune =
    Arg.(
      value & flag
      & info [ "prune-baseline" ]
          ~doc:
            "Rewrite the baseline file in place, dropping entries that \
             match no current finding.")
  in
  Term.(
    const analyze_cmd $ root $ baseline $ json_flag $ sarif $ call_graph
    $ prune)

let lint_term =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOC" ~doc:"Benchmark name or path to an SOC file.")
  in
  Term.(const lint_cmd $ target $ json_flag)

let cmd name term doc = Cmd.v (Cmd.info name ~doc) term

let () =
  let doc = "wrapper/TAM co-optimization for SOC testing (DATE 2002)" in
  let main =
    Cmd.group
      (Cmd.info "soctam" ~version:"1.1.0" ~doc)
      [
        cmd "info" info_term "Describe an SOC.";
        cmd "wrapper" wrapper_term "Design a test wrapper for one core (P_W).";
        cmd "optimize" optimize_term
          "Co-optimize the wrapper/TAM architecture (P_PAW / P_NPAW).";
        cmd "exhaustive" exhaustive_term
          "Run the exhaustive baseline of [8] (exact solve per partition).";
        cmd "ilp" ilp_term
          "Run the exhaustive baseline with the paper's ILP model per \
           partition (cross-check engine).";
        cmd "pack" pack_term
          "Co-optimize through the rectangle-packing engine (strip packing \
           over the per-core Pareto fronts, distilled into certified \
           test-bus schedules).";
        cmd "race" race_term
          "Race an engine portfolio on one instance under a shared pruning \
           bound, with per-engine resume tokens and first-proof \
           termination.";
        cmd "compare" compare_term
          "Compare multiplexing, daisychain, distribution and test-bus \
           architectures.";
        cmd "schedule" schedule_term
          "Build a power-constrained test schedule and draw its Gantt chart.";
        cmd "sweep" sweep_term
          "Sweep the total TAM width and report the time/pin trade-off.";
        cmd "anneal" anneal_term
          "Optimize with simulated annealing and compare to the pipeline.";
        cmd "tables" tables_term "Regenerate the paper's tables.";
        cmd "gen" gen_term "Generate a synthetic Philips-profile SOC.";
        cmd "verify" verify_term
          "Check a saved architecture against an SOC by simulation.";
        cmd "check" check_term
          "Certify a saved architecture: structural invariants, exact time \
           recomputation, lower bounds, optional exact/exhaustive/simulation \
           cross-checks.";
        cmd "lint" lint_term
          "Lint an SOC description: report every syntactic and semantic \
           problem instead of stopping at the first.";
        cmd "analyze" analyze_term
          "Statically analyze the repository's own sources: determinism \
           (DET-POLY, DET-ENTROPY), domain safety (DOM-SHARED, DOM-ESCAPE, \
           EFFECT-WORKER), lock and allocation discipline (LOCK-RAISE, \
           ALLOC-HOT), engine contracts (OUTCOME-DROP, ENGINE-CAPS, \
           TAU-DISCIPLINE) and interface coverage (IFACE).";
      ]
  in
  exit (Cmd.eval' main)
