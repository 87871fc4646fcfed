module Engine = Soctam_core.Engine
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Slice_search = Soctam_core.Slice_search
module Tt = Soctam_core.Time_table
module Obs = Soctam_obs.Obs

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
  engines : Checkpoint.race_slot list;
  outcome : Outcome.t;
}

let never () = false

let proved (st : Checkpoint.race_state) =
  List.exists (fun sl -> sl.Checkpoint.rs_proved) st.Checkpoint.ra_slots

(* The next grant in the fixed round-robin schedule, derived from the
   slot slice counts alone: within a round every live slot earlier in
   portfolio order has one more slice than the ones still waiting, so a
   race resumed from any boundary continues exactly where the killed
   one stopped. Returns the slot's index and whether it opens a fresh
   round. *)
let next_slot (st : Checkpoint.race_state) =
  let live sl = not sl.Checkpoint.rs_done in
  match List.filter live st.Checkpoint.ra_slots with
  | [] -> None
  | live_slots ->
      let counts = List.map (fun sl -> sl.Checkpoint.rs_slices) live_slots in
      let mx = List.fold_left Int.max 0 counts in
      let fresh = mx = List.fold_left Int.min max_int counts in
      List.find_index
        (fun sl -> live sl && (fresh || sl.Checkpoint.rs_slices < mx))
        st.Checkpoint.ra_slots
      |> Option.map (fun i -> (i, fresh))

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
        (List.length s.Checkpoint.ra_slots = List.length engines)
        "Race: resume checkpoint is for a different portfolio";
      List.iter2
        (fun e (rs : Checkpoint.race_slot) ->
          Checkpoint.require
            (String.equal (Engine.name e) rs.Checkpoint.rs_engine)
            "Race: resume checkpoint is for a different portfolio";
          Option.iter (Engine.check_token e cfg inst) rs.Checkpoint.rs_token)
        engines s.Checkpoint.ra_slots;
      Option.iter
        (Checkpoint.check_best ~table ~total_width
           ~max_tams:(Rc.tam_ceiling cfg) ~tau:s.Checkpoint.ra_tau)
        s.Checkpoint.ra_best)
    restored;
  let engines = Array.of_list engines in
  let state =
    ref
      (match restored with
      | Some s -> s
      | None ->
          {
            Checkpoint.ra_total_width = total_width;
            ra_tams = cfg.Rc.tams;
            ra_max_tams = cfg.Rc.max_tams;
            ra_tau = max_int;
            ra_best = None;
            ra_winner = None;
            ra_rounds = 0;
            ra_slices = 0;
            ra_imports = 0;
            ra_exports = 0;
            ra_slots =
              Array.to_list engines
              |> List.map (fun e ->
                     {
                       Checkpoint.rs_engine = Engine.name e;
                       rs_done = false;
                       rs_proved = false;
                       rs_improvements = 0;
                       rs_slices = 0;
                       rs_token = None;
                     });
          })
  in
  (* Which slots still hold a token loaded from a race checkpoint: the
     first slice after a process restart replays the token's counters
     into the collector, every later slice resumes a token minted in
     this process whose counters were already recorded live. *)
  let replay =
    Array.of_list
      (List.map
         (fun sl -> Option.is_some sl.Checkpoint.rs_token)
         !state.Checkpoint.ra_slots)
  in
  let snapshot () =
    let st = !state in
    ( List.filter
        (fun (_, n) -> n > 0)
        ([
           ("race/slices", st.Checkpoint.ra_slices);
           ("race/tau_imports", st.Checkpoint.ra_imports);
           ("race/tau_exports", st.Checkpoint.ra_exports);
         ]
        @ List.map
            (fun sl ->
              ( "race/improvements/" ^ sl.Checkpoint.rs_engine,
                sl.Checkpoint.rs_improvements ))
            st.Checkpoint.ra_slots),
      Checkpoint.Race st )
  in
  (* One grant to slot [i]: the engine's next slice under the shared
     bound, and the race state after it. *)
  let grant (st : Checkpoint.race_state) i =
    let e = engines.(i) and sl = List.nth st.Checkpoint.ra_slots i in
    let caps = Engine.caps e in
    let import =
      if caps.Engine.imports_tau && st.Checkpoint.ra_tau < max_int then
        Some st.Checkpoint.ra_tau
      else None
    in
    let cfg_e =
      {
        cfg with
        Rc.jobs = (if caps.Engine.parallel then cfg.Rc.jobs else 1);
        checkpoint_path = None;
        time_budget = None;
        cancel = never;
        slice_limit = Some 1;
        resume = sl.Checkpoint.rs_token;
        resume_replay = replay.(i);
        tau_import = import;
      }
    in
    replay.(i) <- false;
    if Obs.enabled stats then begin
      Obs.add stats "race/slices";
      if Option.is_some import then Obs.add stats "race/tau_imports"
    end;
    let report = Engine.run e cfg_e inst in
    let time = report.Engine.r_time in
    let improved =
      Array.length report.Engine.r_widths > 0 && time < st.Checkpoint.ra_tau
    in
    if improved && Obs.enabled stats then begin
      Obs.add stats "race/tau_exports";
      Obs.add stats ("race/improvements/" ^ sl.Checkpoint.rs_engine);
      Obs.event_v stats time "race/tau"
    end;
    let complete = Outcome.is_complete report.Engine.r_outcome in
    let proves = complete && caps.Engine.proves in
    if proves && Obs.enabled stats then
      Obs.event stats ("race/proof " ^ sl.Checkpoint.rs_engine);
    let sl =
      {
        sl with
        Checkpoint.rs_done = complete;
        rs_proved = proves;
        rs_improvements = sl.Checkpoint.rs_improvements + Bool.to_int improved;
        rs_slices = sl.Checkpoint.rs_slices + 1;
        rs_token = Outcome.resume_token report.Engine.r_outcome;
      }
    in
    let st =
      {
        st with
        Checkpoint.ra_slices = st.Checkpoint.ra_slices + 1;
        ra_imports = st.Checkpoint.ra_imports + Bool.to_int (Option.is_some import);
        ra_exports = st.Checkpoint.ra_exports + Bool.to_int improved;
        ra_slots =
          List.mapi (fun j s -> if j = i then sl else s) st.Checkpoint.ra_slots;
      }
    in
    if improved then
      {
        st with
        Checkpoint.ra_tau = time;
        ra_best =
          Some
            {
              Checkpoint.ba_widths = report.Engine.r_widths;
              ba_time = time;
              ba_assignment = report.Engine.r_assignment;
            };
        ra_winner = Some sl.Checkpoint.rs_engine;
      }
    else st
  in
  let outcome =
    Rc.slices cfg ~snapshot (fun c ->
        let rec loop () =
          if not (proved !state) then
            match next_slot !state with
            | None -> ()
            | Some (i, fresh_round) ->
                c.Rc.before_slice ();
                if fresh_round then
                  state :=
                    {
                      !state with
                      Checkpoint.ra_rounds = !state.Checkpoint.ra_rounds + 1;
                    };
                state := grant !state i;
                loop ()
        in
        loop ())
  in
  let st = !state in
  (match (outcome, Obs.enabled stats, st.Checkpoint.ra_winner) with
  | Outcome.Complete, true, Some w -> Obs.event stats ("race/winner " ^ w)
  | _ -> ());
  let widths, time, assignment =
    Slice_search.answer ~table ~total_width
      ~tams:(Option.value cfg.Rc.tams ~default:1)
      st.Checkpoint.ra_best
  in
  {
    widths;
    time;
    assignment;
    winner = st.Checkpoint.ra_winner;
    (* A proof with no incumbent certifies no architecture, so the
       even-split fallback is never proven. *)
    proven_optimal = proved st && Option.is_some st.Checkpoint.ra_best;
    rounds = st.Checkpoint.ra_rounds;
    slices = st.Checkpoint.ra_slices;
    tau_imports = st.Checkpoint.ra_imports;
    tau_exports = st.Checkpoint.ra_exports;
    engines = st.Checkpoint.ra_slots;
    outcome;
  }
