module Json = Soctam_util.Json

type point = {
  width : int;
  tams : int;
  widths : int array;
  time : int;
  lower_bound : int;
  gap_pct : float;
  saturated : bool;
}

type result = { points : point list; outcome : Outcome.t }

(* -- resume token ---------------------------------------------------------- *)

let tag = "sweep"

type token = {
  k_max_tams : int;
  k_points : point list;  (* completed widths, in sweep order *)
  k_pending : int list;
  k_inner : Checkpoint.t option;
      (* the head pending width's own [pe] token, embedded as a complete
         document like race slot tokens; [None] at a width boundary *)
}

let point_json p =
  Json.Obj
    [
      ("width", Json.Int p.width);
      ("tams", Json.Int p.tams);
      ("widths", Checkpoint.json_ints p.widths);
      ("time", Json.Int p.time);
      ("lower_bound", Json.Int p.lower_bound);
      ("gap_pct", Json.Float p.gap_pct);
      ("saturated", Json.Bool p.saturated);
    ]

let point_of_json p =
  {
    width = Checkpoint.count_field "width" p;
    tams = Checkpoint.count_field "tams" p;
    widths = Checkpoint.ints_field "widths" p;
    time = Checkpoint.int_field "time" p;
    lower_bound = Checkpoint.int_field "lower_bound" p;
    gap_pct = Checkpoint.float_field "gap_pct" p;
    saturated = Checkpoint.bool_field "saturated" p;
  }

let decode json =
  let k =
    {
      k_max_tams = Checkpoint.count_field "max_tams" json;
      k_points = List.map point_of_json (Checkpoint.list_field "points" json);
      k_pending = Array.to_list (Checkpoint.ints_field "pending" json);
      k_inner =
        (match Checkpoint.field "inner" json with
        | Json.Null -> None
        | tj -> (
            match Checkpoint.of_json tj with
            | Ok inner -> Some inner
            | Error msg -> Checkpoint.fail "sweep inner token: %s" msg));
    }
  in
  Checkpoint.require
    (Option.is_none k.k_inner || k.k_pending <> [])
    "sweep inner token without a pending width";
  k

let run_with (cfg : Run_config.t) soc ~widths =
  if widths = [] then invalid_arg "Sweep.run: empty width list";
  List.iter
    (fun w -> if w < 1 then invalid_arg "Sweep.run: widths must be >= 1")
    widths;
  let stats = cfg.Run_config.stats in
  let table =
    Time_table.build ~stats soc ~max_width:(List.fold_left max 1 widths)
  in
  let restored = Run_config.resumed cfg ~engine:tag decode in
  Option.iter
    (fun k ->
      Checkpoint.require
        (k.k_max_tams = cfg.Run_config.max_tams)
        "Sweep: resume checkpoint was taken with a different max_tams";
      Checkpoint.require
        (List.map (fun p -> p.width) k.k_points @ k.k_pending = widths)
        "Sweep: resume checkpoint does not match this width list";
      (* The per-width search is always the [pe] pipeline, resumed at the
         head pending width. *)
      Option.iter
        (Checkpoint.decode ~engine:"pe"
           (Partition_evaluate.check_body cfg ~table
              ~total_width:(List.hd k.k_pending)))
        k.k_inner)
    restored;
  let done_rev =
    ref (match restored with Some k -> List.rev k.k_points | None -> [])
  in
  let pending =
    ref (match restored with Some k -> k.k_pending | None -> widths)
  in
  (* The truncated width's own token, embedded when the sweep stops
     inside that width. *)
  let stopped_inner = ref None in
  let snapshot () =
    let body =
      Json.Obj
        [
          ("max_tams", Json.Int cfg.Run_config.max_tams);
          ("points", Json.List (List.rev_map point_json !done_rev));
          ("pending", Json.List (List.map (fun w -> Json.Int w) !pending));
          ( "inner",
            match !stopped_inner with
            | None -> Json.Null
            | Some t -> Checkpoint.to_json t );
        ]
    in
    (* A sweep checkpoint carries no counters of its own: the completed
       widths' observability totals live in the interrupted process, and
       the interrupted width's partial counters travel inside its
       embedded token. *)
    ([], Checkpoint.Token { engine = tag; body })
  in
  (* The per-width run inherits the sweep's policy but never writes its
     own checkpoints: the sweep is the checkpointed unit. A width
     truncated mid-search leaves its resume token embedded in the sweep
     checkpoint ([k_inner]), so the head pending width resumes where
     it stopped instead of re-running whole. The sweep's remaining
     budget is handed down so an expiry inside a width stops that
     width's search promptly. *)
  let inner_cfg ~resume remaining =
    {
      cfg with
      Run_config.checkpoint_path = None;
      resume;
      time_budget = remaining;
    }
  in
  let inner_resume =
    ref (match restored with Some k -> k.k_inner | None -> None)
  in
  (* The sweep checks cancellation and its budget before every width
     (the first one too) and writes a checkpoint after every completed
     width but the last, so it drives its loop with [stop] rather than
     [before_slice]. *)
  let outcome =
    Run_config.slices cfg ~snapshot (fun c ->
        let halt ?inner outcome =
          stopped_inner := inner;
          c.Run_config.stop (outcome (c.Run_config.checkpoint ()))
        in
        while !pending <> [] do
          let width = List.hd !pending in
          let remaining =
            Option.map
              (fun d -> Float.max 0. (d -. Soctam_util.Timer.now_s ()))
              c.Run_config.deadline
          in
          (* A stop before the head width starts keeps that width's
             restored token, so its progress survives another resume. *)
          if cfg.Run_config.cancel () then
            halt ?inner:!inner_resume (fun cp -> Outcome.Interrupted cp)
          else if match remaining with Some r -> r <= 0. | None -> false
          then
            halt ?inner:!inner_resume (fun cp -> Outcome.Budget_exhausted cp)
          else begin
            let resume = !inner_resume in
            inner_resume := None;
            (* The [pe] engine runs the exact finish only on a completed
               search, so a width truncated mid-search pays for none. *)
            let report =
              Soctam_obs.Obs.span stats
                (Printf.sprintf "sweep/width%d" width)
                (fun () ->
                  Engine.run Engine.pe (inner_cfg ~resume remaining)
                    { Engine.table; total_width = width })
            in
            (* On truncation the width's own token (partial incumbent,
               cursor, counters) is embedded in the sweep checkpoint, so
               a resume picks the width up mid-search. *)
            match report.Engine.r_outcome with
            | Outcome.Interrupted inner ->
                halt ~inner (fun cp -> Outcome.Interrupted cp)
            | Outcome.Budget_exhausted inner ->
                halt ~inner (fun cp -> Outcome.Budget_exhausted cp)
            | Outcome.Complete ->
                let bounds = Bounds.compute table ~total_width:width in
                let partition = report.Engine.r_widths in
                let time = report.Engine.r_time in
                done_rev :=
                  {
                    width;
                    tams = Array.length partition;
                    widths = partition;
                    time;
                    lower_bound = bounds.Bounds.combined;
                    gap_pct = Bounds.gap_pct bounds ~time;
                    saturated = Bounds.saturated bounds ~time;
                  }
                  :: !done_rev;
                pending := List.tl !pending;
                if !pending <> [] then
                  Run_config.publish cfg (c.Run_config.checkpoint ())
          end
        done)
  in
  { points = List.rev !done_rev; outcome }

let knee ?(tolerance_pct = 5.) points =
  match points with
  | [] -> None
  | _ ->
      let best =
        List.fold_left (fun acc p -> min acc p.time) max_int points
      in
      let admissible p =
        float_of_int p.time
        <= float_of_int best *. (1. +. (tolerance_pct /. 100.))
      in
      List.filter admissible points
      |> List.fold_left
           (fun acc p ->
             match acc with
             | Some q when q.width <= p.width -> acc
             | Some _ | None -> Some p)
           None

let pp ppf points =
  Format.fprintf ppf "@[<v>%6s %4s %-18s %10s %10s %7s %s@,"
    "W" "B" "partition" "time" "bound" "gap%" "";
  List.iter
    (fun p ->
      Format.fprintf ppf "%6d %4d %-18s %10d %10d %7.2f %s@," p.width p.tams
        (Format.asprintf "%a" Soctam_tam.Architecture.pp_partition p.widths)
        p.time p.lower_bound p.gap_pct
        (if p.saturated then "saturated" else ""))
    points;
  Format.fprintf ppf "@]"
