module Engine = Soctam_core.Engine
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Slice_search = Soctam_core.Slice_search
module Tt = Soctam_core.Time_table
module Obs = Soctam_obs.Obs

type engine_report = {
  er_name : string;
  er_done : bool;
  er_proved : bool;
  er_improvements : int;
  er_slices : int;
}

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  winner : string option;
  proven_optimal : bool;
  rounds : int;
  slices : int;
  tau_imports : int;
  tau_exports : int;
  engines : engine_report list;
  outcome : Outcome.t;
}

(* One portfolio member. [s_replay] is true only while the slot still
   holds a token loaded from a race checkpoint: the first slice after a
   process restart replays the token's counters into the collector,
   every later slice resumes a token minted in this process whose
   counters were already recorded live. *)
type slot = {
  s_engine : Engine.t;
  s_name : string;
  mutable s_token : Checkpoint.t option;
  mutable s_replay : bool;
  mutable s_done : bool;
  mutable s_proved : bool;
  mutable s_improvements : int;
  mutable s_slices : int;
}

let never () = false

let run (cfg : Rc.t) ~engines ~table ~total_width =
  if engines = [] then invalid_arg "Race: empty portfolio";
  let rec check_dup = function
    | [] -> ()
    | n :: rest ->
        if List.exists (String.equal n) rest then
          invalid_arg ("Race: engine " ^ n ^ " listed twice")
        else check_dup rest
  in
  check_dup (List.map Engine.name engines);
  List.iter
    (fun e ->
      let caps = Engine.caps e in
      match cfg.Rc.tams with
      | None when caps.Engine.needs_fixed_tams ->
          invalid_arg
            (Printf.sprintf
               "Race: engine %s requires a fixed TAM count \
                (Run_config.with_tams)"
               (Engine.name e))
      | Some _ when caps.Engine.free_tams_only ->
          invalid_arg
            (Printf.sprintf
               "Race: engine %s cannot hold a TAM count fixed; unset \
                Run_config.tams"
               (Engine.name e))
      | _ -> ())
    engines;
  if Tt.max_width table < total_width then
    invalid_arg "Race: table narrower than total width";
  let stats = cfg.Rc.stats in
  let inst = { Engine.table; total_width } in
  (* Restoring replays the race's own counters (each slot token's
     counters replay on that engine's first resumed slice) and checks
     every embedded slot token against its engine here, before the
     first grant: the race rewrites its checkpoint at every grant
     boundary, so a bad slot must never get that far. *)
  let restored = Rc.resumed_race cfg in
  Option.iter
    (fun (s : Checkpoint.race_state) ->
      Checkpoint.require
        (s.Checkpoint.ra_total_width = total_width)
        "Race: resume checkpoint is for a different total width";
      Checkpoint.require
        (s.Checkpoint.ra_tams = cfg.Rc.tams
        && s.Checkpoint.ra_max_tams = cfg.Rc.max_tams)
        "Race: resume checkpoint was taken under a different TAM \
         configuration";
      Checkpoint.require
        (s.Checkpoint.ra_initial = cfg.Rc.initial_best)
        "Race: resume checkpoint was taken under a different pruning \
         configuration";
      Checkpoint.require
        (List.length s.Checkpoint.ra_slots = List.length engines)
        "Race: resume checkpoint is for a different portfolio";
      List.iter2
        (fun e (rs : Checkpoint.race_slot) ->
          Checkpoint.require
            (String.equal (Engine.name e) rs.Checkpoint.rs_engine)
            "Race: resume checkpoint is for a different portfolio";
          Option.iter (Engine.check_token e cfg inst) rs.Checkpoint.rs_token)
        engines s.Checkpoint.ra_slots)
    restored;
  let slots =
    match restored with
    | Some s ->
        List.map2
          (fun e (rs : Checkpoint.race_slot) ->
            {
              s_engine = e;
              s_name = rs.Checkpoint.rs_engine;
              s_token = rs.Checkpoint.rs_token;
              s_replay = rs.Checkpoint.rs_token <> None;
              s_done = rs.Checkpoint.rs_done;
              s_proved = rs.Checkpoint.rs_proved;
              s_improvements = rs.Checkpoint.rs_improvements;
              s_slices = rs.Checkpoint.rs_slices;
            })
          engines s.Checkpoint.ra_slots
    | None ->
        List.map
          (fun e ->
            {
              s_engine = e;
              s_name = Engine.name e;
              s_token = None;
              s_replay = false;
              s_done = false;
              s_proved = false;
              s_improvements = 0;
              s_slices = 0;
            })
          engines
  in
  let initial = Rc.initial_tau cfg in
  let tau =
    ref (match restored with Some s -> s.Checkpoint.ra_tau | None -> initial)
  in
  let best =
    Slice_search.best ~table ~total_width ~max_tams:(Rc.tam_ceiling cfg)
      ?tau:(Option.map (fun s -> s.Checkpoint.ra_tau) restored)
      ~initial
      (Option.bind restored (fun s -> s.Checkpoint.ra_best))
  in
  (* The engine that set [best]; none while [best] is empty. *)
  let winner =
    ref
      (match restored with
      | Some { Checkpoint.ra_best = Some _; ra_winner; _ } -> ra_winner
      | Some { Checkpoint.ra_best = None; _ } | None -> None)
  in
  let rounds =
    ref (match restored with Some s -> s.Checkpoint.ra_rounds | None -> 0)
  in
  let slices =
    ref (match restored with Some s -> s.Checkpoint.ra_slices | None -> 0)
  in
  let imports =
    ref (match restored with Some s -> s.Checkpoint.ra_imports | None -> 0)
  in
  let exports =
    ref (match restored with Some s -> s.Checkpoint.ra_exports | None -> 0)
  in
  let proof =
    ref
      (match List.find_opt (fun s -> s.s_proved) slots with
      | Some s -> Some s.s_name
      | None -> None)
  in
  let snapshot () =
    ( List.filter
        (fun (_, n) -> n > 0)
        ([
           ("race/slices", !slices);
           ("race/tau_imports", !imports);
           ("race/tau_exports", !exports);
         ]
        @ List.map
            (fun s -> ("race/improvements/" ^ s.s_name, s.s_improvements))
            slots),
      Checkpoint.Race
        {
          Checkpoint.ra_total_width = total_width;
          ra_tams = cfg.Rc.tams;
          ra_max_tams = cfg.Rc.max_tams;
          ra_initial = cfg.Rc.initial_best;
          ra_tau = !tau;
          ra_best = Slice_search.best_arch best;
          ra_winner = !winner;
          ra_rounds = !rounds;
          ra_slices = !slices;
          ra_imports = !imports;
          ra_exports = !exports;
          ra_slots =
            List.map
              (fun s ->
                {
                  Checkpoint.rs_engine = s.s_name;
                  rs_done = s.s_done;
                  rs_proved = s.s_proved;
                  rs_improvements = s.s_improvements;
                  rs_slices = s.s_slices;
                  rs_token = s.s_token;
                })
              slots;
        } )
  in
  (* The next grant in the fixed round-robin schedule, derived from the
     slot slice counts alone: within a round every live slot earlier in
     portfolio order has one more slice than the ones still waiting, so
     a race resumed from any boundary continues exactly where the
     killed one stopped. Returns the slot and whether it opens a fresh
     round. *)
  let next_slot () =
    let live = List.filter (fun s -> not s.s_done) slots in
    match live with
    | [] -> None
    | _ ->
        let mx = List.fold_left (fun a s -> max a s.s_slices) 0 live in
        let mn =
          List.fold_left (fun a s -> min a s.s_slices) max_int live
        in
        if mx = mn then
          Some (List.find (fun s -> not s.s_done) slots, true)
        else
          Some
            ( List.find (fun s -> (not s.s_done) && s.s_slices < mx) slots,
              false )
  in
  let run_slice s =
    let caps = Engine.caps s.s_engine in
    let import =
      if caps.Engine.imports_tau && !tau < max_int then Some !tau else None
    in
    let cfg_e =
      {
        cfg with
        Rc.jobs = (if caps.Engine.parallel then cfg.Rc.jobs else 1);
        checkpoint_path = None;
        time_budget = None;
        cancel = never;
        slice_limit = Some 1;
        resume = s.s_token;
        resume_replay = s.s_replay;
        tau_import = import;
      }
    in
    s.s_replay <- false;
    if Obs.enabled stats then begin
      Obs.add stats "race/slices";
      match import with
      | Some _ -> Obs.add stats "race/tau_imports"
      | None -> ()
    end;
    (match import with Some _ -> incr imports | None -> ());
    let report = Engine.run s.s_engine cfg_e inst in
    s.s_slices <- s.s_slices + 1;
    incr slices;
    if
      Array.length report.Engine.r_widths > 0
      && report.Engine.r_time < !tau
    then begin
      best.Slice_search.b_widths <- report.Engine.r_widths;
      best.Slice_search.b_time <- report.Engine.r_time;
      best.Slice_search.b_assignment <- report.Engine.r_assignment;
      winner := Some s.s_name;
      tau := report.Engine.r_time;
      s.s_improvements <- s.s_improvements + 1;
      incr exports;
      if Obs.enabled stats then begin
        Obs.add stats "race/tau_exports";
        Obs.add stats ("race/improvements/" ^ s.s_name);
        Obs.event_v stats report.Engine.r_time "race/tau"
      end
    end;
    match report.Engine.r_outcome with
    | Outcome.Complete ->
        s.s_done <- true;
        s.s_token <- None;
        if caps.Engine.proves then begin
          s.s_proved <- true;
          proof := Some s.s_name;
          if Obs.enabled stats then Obs.event stats ("race/proof " ^ s.s_name)
        end
    | Outcome.Budget_exhausted cp | Outcome.Interrupted cp ->
        s.s_token <- Some cp
  in
  let outcome =
    Rc.slices cfg ~snapshot (fun c ->
        let rec loop () =
          if !proof = None then
            match next_slot () with
            | None -> ()
            | Some (s, fresh_round) ->
                c.Rc.before_slice ();
                if fresh_round then incr rounds;
                run_slice s;
                loop ()
        in
        loop ())
  in
  (match (outcome, !proof, Obs.enabled stats, !winner) with
  | Outcome.Complete, _, true, Some w -> Obs.event stats ("race/winner " ^ w)
  | _ -> ());
  let engines_out =
    List.map
      (fun s ->
        {
          er_name = s.s_name;
          er_done = s.s_done;
          er_proved = s.s_proved;
          er_improvements = s.s_improvements;
          er_slices = s.s_slices;
        })
      slots
  in
  let widths, time, assignment =
    Slice_search.answer ~table ~total_width
      ~tams:(Option.value cfg.Rc.tams ~default:1)
      best
  in
  {
    widths;
    time;
    assignment;
    winner = !winner;
    (* A proof under the seed bound certifies no found architecture,
       so the even-split fallback is never proven. *)
    proven_optimal =
      Option.is_some !proof && Array.length best.Slice_search.b_widths > 0;
    rounds = !rounds;
    slices = !slices;
    tau_imports = !imports;
    tau_exports = !exports;
    engines = engines_out;
    outcome;
  }
