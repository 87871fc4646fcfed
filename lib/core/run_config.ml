type t = {
  jobs : int;
  oversubscribe : bool;
  stats : Soctam_obs.Obs.t;
  soc_name : string option;
  node_limit : int;
  max_tams : int;
  tams : int option;
  carry_tau : bool;
  time_budget : float option;
  checkpoint_path : string option;
  checkpoint_every : int;
  resume : Checkpoint.t option;
  resume_replay : bool;
  cancel : unit -> bool;
  slice_limit : int option;
  tau_import : int option;
}

let never_cancelled () = false

let default =
  {
    jobs = 1;
    oversubscribe = false;
    stats = Soctam_obs.Obs.null;
    soc_name = None;
    node_limit = 2_000_000;
    max_tams = 10;
    tams = None;
    carry_tau = true;
    time_budget = None;
    checkpoint_path = None;
    checkpoint_every = 50_000;
    resume = None;
    resume_replay = true;
    cancel = never_cancelled;
    slice_limit = None;
    tau_import = None;
  }

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Run_config.with_jobs: jobs must be >= 1";
  { t with jobs }

let with_oversubscribe oversubscribe t = { t with oversubscribe }
let with_stats stats t = { t with stats }
let with_soc_name name t = { t with soc_name = Some name }

let with_node_limit node_limit t =
  if node_limit < 1 then
    invalid_arg "Run_config.with_node_limit: node_limit must be >= 1";
  { t with node_limit }

let with_max_tams max_tams t =
  if max_tams < 1 then
    invalid_arg "Run_config.with_max_tams: max_tams must be >= 1";
  { t with max_tams }

let with_tams tams t =
  if tams < 1 then invalid_arg "Run_config.with_tams: tams must be >= 1";
  { t with tams = Some tams }

let with_carry_tau carry_tau t = { t with carry_tau }

let with_time_budget budget t =
  if budget < 0. then
    invalid_arg "Run_config.with_time_budget: budget must be >= 0";
  { t with time_budget = Some budget }

let with_checkpoint path t = { t with checkpoint_path = Some path }

let with_checkpoint_every every t =
  if every < 1 then
    invalid_arg "Run_config.with_checkpoint_every: interval must be >= 1";
  { t with checkpoint_every = every }

let with_resume resume t = { t with resume = Some resume }
let with_cancel cancel t = { t with cancel }

let with_slice_limit limit t =
  if limit < 1 then
    invalid_arg "Run_config.with_slice_limit: limit must be >= 1";
  { t with slice_limit = Some limit }

let without_slice_limit t = { t with slice_limit = None }

let with_tau_import bound t =
  if bound < 1 then
    invalid_arg "Run_config.with_tau_import: bound must be >= 1";
  { t with tau_import = Some bound }

let checkpointing t =
  t.checkpoint_path <> None || t.resume <> None || t.time_budget <> None
  || t.slice_limit <> None

(* Slice size of the checkpoint engines: [checkpoint_every] ranks when
   the run can stop early (so boundaries exist to stop at), otherwise
   the whole range in one slice — the non-checkpointed fast path is the
   checkpointed path with a single boundary, not separate code. *)
let slice_size t ~length =
  if length < 1 then 1
  else if checkpointing t then min t.checkpoint_every length
  else length

let tam_ceiling t = Option.value t.tams ~default:t.max_tams

let tam_plan t ~table ~total_width =
  let fail what = invalid_arg ("Run_config.tam_plan: " ^ what) in
  if total_width < 1 then fail "total_width must be >= 1";
  if t.max_tams < 1 then fail "max_tams must be >= 1";
  if Time_table.max_width table < total_width then
    fail "time table narrower than total width";
  match t.tams with
  | Some b ->
      if b < 1 then fail "tams must be >= 1";
      if b > total_width then fail "more TAMs than width";
      [ b ]
  | None -> Soctam_util.Intutil.range 1 (min t.max_tams total_width)

let import_cap t = Option.value t.tau_import ~default:max_int

(* -- checkpoint lifecycle -------------------------------------------------- *)

(* Check the token's SOC against the run's, then replay its counters so
   the resumed collector converges to an uninterrupted run's totals. The
   racer disables the replay after the first resume: its collector
   already saw those counters live. *)
let restore t ~engine get =
  Option.map
    (fun (cp : Checkpoint.t) ->
      let s = get cp in
      (match (cp.Checkpoint.soc, t.soc_name) with
      | Some a, Some b when not (String.equal a b) ->
          invalid_arg (engine ^ ": resume checkpoint is for a different SOC")
      | _ -> ());
      if Soctam_obs.Obs.enabled t.stats && t.resume_replay then
        List.iter
          (fun (name, n) -> if n > 0 then Soctam_obs.Obs.add t.stats ~n name)
          cp.Checkpoint.counters;
      s)
    t.resume

let resumed t ~engine decode =
  restore t ~engine (Checkpoint.decode ~engine decode)

let resumed_race t =
  restore t ~engine:"race" (fun cp ->
      match cp.Checkpoint.state with
      | Checkpoint.Race s -> s
      | Checkpoint.Token { engine; _ } ->
          Checkpoint.fail
            "race: resume checkpoint is for a different solver (%s)" engine)

let publish t cp =
  match t.checkpoint_path with
  | None -> ()
  | Some path -> (
      match Checkpoint.save path cp with
      | Ok () -> ()
      | Error msg -> failwith ("checkpoint write failed: " ^ msg))

type control = {
  before_slice : unit -> unit;
  checkpoint : unit -> Checkpoint.t;
  stop : 'a. Outcome.t -> 'a;
  deadline : float option;
}

(* The one slice loop of every engine. The exception is local to the
   call, so a racer's stop can never be caught by the engine slice it
   grants (or the reverse). *)
let slices t ?(grant_first = false) ~snapshot body =
  let exception Halt of Outcome.t in
  let deadline =
    Option.map
      (fun budget -> Soctam_util.Timer.now_s () +. budget)
      t.time_budget
  in
  let checkpoint () =
    let counters, state = snapshot () in
    { Checkpoint.soc = t.soc_name; counters; state }
  in
  let stop outcome =
    Option.iter (publish t) (Outcome.resume_token outcome);
    raise (Halt outcome)
  in
  let calls = ref 0 in
  let before_slice () =
    let slices = !calls in
    incr calls;
    if not (grant_first && slices = 0) then
      match t.slice_limit with
      | Some limit when slices >= limit ->
          stop (Outcome.Budget_exhausted (checkpoint ()))
      | Some _ | None -> (
          if t.cancel () then stop (Outcome.Interrupted (checkpoint ()))
          else
            match deadline with
            | Some d when Soctam_util.Timer.now_s () > d ->
                stop (Outcome.Budget_exhausted (checkpoint ()))
            | Some _ | None ->
                if t.checkpoint_path <> None then publish t (checkpoint ()))
  in
  match body { before_slice; checkpoint; stop; deadline } with
  | () ->
      (match t.checkpoint_path with
      | Some path when Sys.file_exists path -> (
          try Sys.remove path with Sys_error _ -> ())
      | Some _ | None -> ());
      Outcome.Complete
  | exception Halt outcome -> outcome
