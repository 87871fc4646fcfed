module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json

(* The exact method used per partition. [Bb] is the scalable dedicated
   branch & bound; [Milp] cross-checks through the paper's §3.2 ILP
   model. Both enumerate the same partition rank space, so the engine
   machinery (slices, checkpoints, reduction) is shared; the token's tag
   is the method's registry name, so neither resumes the other's run. *)
type solver = Bb | Milp

let tag = function Bb -> "exhaustive" | Milp -> "ilp"

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  partitions_total : int;
  partitions_solved : int;
  nodes : int;
  outcome : Outcome.t;
}

(* One contiguous rank chunk of the partition sequence, solved exactly.
   The first partition of a chunk is always evaluated before the
   deadline is consulted, so even a zero budget returns a well-formed
   (truncated) incumbent instead of failing. The deadline itself is a
   monotonic reading ([Timer.now_s]): a wall-clock step under NTP can
   neither cut the budget short nor extend it. *)
type chunk = {
  mutable k_time : int;
  mutable k_rank : int;
  mutable k_widths : int array;
  mutable k_assignment : int array;
  mutable k_solved : int;
  mutable k_nodes : int;
}

(* [cap] is a foreign bound ([Run_config.tau_import]; [max_int] = none).
   It warm-starts the B&B incumbent — a zero assignment at the imported
   time, pruning everything that cannot strictly beat it — and gates
   the chunk best: a solve that only reproduced the warm start must not
   surface its placeholder assignment. *)
let solve_chunk ?(stats = Obs.null) ~solver ~cap ~node_limit_per_partition
    ~out_of_time ~table ~total_width ~tams ~lo ~hi () =
  let c =
    {
      k_time = max_int;
      k_rank = max_int;
      k_widths = [||];
      k_assignment = [||];
      k_solved = 0;
      k_nodes = 0;
    }
  in
  (match
     Soctam_partition.Enumerate.Odometer.create_at ~total:total_width
       ~parts:tams ~rank:lo
   with
  | None -> ()
  | Some odometer ->
      let rank = ref lo in
      let continue = ref true in
      while !continue do
        let widths =
          Soctam_partition.Enumerate.Odometer.current odometer
        in
        let times = Time_table.matrix table ~widths in
        let exact =
          match solver with
          | Milp ->
              Soctam_ilp.Exact.solve_milp
                ~node_limit:node_limit_per_partition ~times ()
          | Bb when cap = max_int ->
              Soctam_ilp.Exact.solve_bb ~node_limit:node_limit_per_partition
                ~widths ~times ()
          | Bb ->
              Soctam_ilp.Exact.solve_bb ~node_limit:node_limit_per_partition
                ~initial:(Array.make (Array.length times) 0, cap)
                ~widths ~times ()
        in
        c.k_nodes <- c.k_nodes + exact.Soctam_ilp.Exact.nodes;
        (* A solve that exhausted its node budget signals the instance
           is too hard for the budgets: keep its incumbent but stop this
           chunk, as the sequential baseline always did. *)
        if exact.Soctam_ilp.Exact.optimal then c.k_solved <- c.k_solved + 1
        else continue := false;
        if exact.Soctam_ilp.Exact.time < c.k_time
           && exact.Soctam_ilp.Exact.time < cap then begin
          c.k_time <- exact.Soctam_ilp.Exact.time;
          c.k_rank <- !rank;
          c.k_widths <- Array.copy widths;
          c.k_assignment <- exact.Soctam_ilp.Exact.assignment
        end;
        incr rank;
        if !rank >= hi then continue := false
        else if !continue then begin
          if out_of_time () then continue := false
          else ignore (Soctam_partition.Enumerate.Odometer.advance odometer)
        end
      done);
  if Obs.enabled stats then begin
    Obs.add stats ~n:c.k_solved "exhaustive/partitions_solved";
    Obs.add stats ~n:c.k_nodes "exhaustive/nodes"
  end;
  c

(* -- resume token ---------------------------------------------------------- *)

(* The incumbent with the rank that breaks (time) ties deterministically. *)
type best = {
  eb_time : int;
  eb_rank : int;
  eb_widths : int array;
  eb_assignment : int array;
}

type token = {
  t_total_width : int;
  t_tams : int;
  t_next_rank : int;
  t_best : best option;
  t_solved : int;
  t_nodes : int;
}

let decode json =
  {
    t_total_width = Checkpoint.count_field "total_width" json;
    t_tams = Checkpoint.count_field "tams" json;
    t_next_rank = Checkpoint.count_field "next_rank" json;
    t_best =
      (match Checkpoint.field "best" json with
      | Json.Null -> None
      | b ->
          Some
            {
              eb_time = Checkpoint.int_field "time" b;
              eb_rank = Checkpoint.count_field "rank" b;
              eb_widths = Checkpoint.ints_field "widths" b;
              eb_assignment = Checkpoint.ints_field "assignment" b;
            });
    t_solved = Checkpoint.count_field "solved" json;
    t_nodes = Checkpoint.count_field "nodes" json;
  }

let check_body json = ignore (decode json)

let run_with ?(solver = Bb) (cfg : Run_config.t) ~table ~total_width ~tams =
  if total_width < tams then
    invalid_arg "Exhaustive.run: total_width must be >= tams";
  let stats = cfg.Run_config.stats in
  let total =
    Soctam_partition.Count.exact ~total:total_width ~parts:tams
  in
  let cap =
    match cfg.Run_config.tau_import with Some b -> b | None -> max_int
  in
  (* A fresh run records the instance size once; a resumed run replays
     the interrupted run's counters instead (they already include it),
     so the resumed collector converges to an uninterrupted run's
     totals — unless the caller (the racer) disables the replay because
     its collector observed the interrupted run live. *)
  let restored = Run_config.resumed cfg ~engine:(tag solver) decode in
  (match restored with
  | None -> Obs.add stats ~n:total "exhaustive/partitions_total"
  | Some k ->
      Checkpoint.require
        (k.t_total_width = total_width && k.t_tams = tams)
        "Exhaustive: resume checkpoint is for a different instance");
  let next = ref (match restored with Some k -> k.t_next_rank | None -> 0) in
  let solved = ref (match restored with Some k -> k.t_solved | None -> 0) in
  let nodes = ref (match restored with Some k -> k.t_nodes | None -> 0) in
  let best = ref (match restored with Some k -> k.t_best | None -> None) in
  let deadline = Run_config.deadline cfg in
  let out_of_time () =
    match deadline with
    | None -> false
    | Some d -> Soctam_util.Timer.now_s () > d
  in
  let checkpoint_now () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("tams", Json.Int tams);
          ("next_rank", Json.Int !next);
          ( "best",
            match !best with
            | None -> Json.Null
            | Some b ->
                Json.Obj
                  [
                    ("time", Json.Int b.eb_time);
                    ("rank", Json.Int b.eb_rank);
                    ("widths", Checkpoint.json_ints b.eb_widths);
                    ("assignment", Checkpoint.json_ints b.eb_assignment);
                  ] );
          ("solved", Json.Int !solved);
          ("nodes", Json.Int !nodes);
        ]
    in
    {
      Checkpoint.soc = cfg.Run_config.soc_name;
      counters =
        List.filter
          (fun (_, n) -> n > 0)
          [
            ("exhaustive/partitions_total", total);
            ("exhaustive/partitions_solved", !solved);
            ("exhaustive/nodes", !nodes);
          ];
      state = Checkpoint.Token { engine = tag solver; body };
    }
  in
  let slice_len = Run_config.slice_size cfg ~length:total in
  let stop = ref None in
  let slices_done = ref 0 in
  while !next < total && !stop = None do
    (* The safe state to resume a truncated slice from: which partitions
       inside the slice got solved before a budget stop is
       timing-dependent, so the checkpoint rewinds to the slice start
       and the resumed run re-solves the whole slice. *)
    let cp_pre = checkpoint_now () in
    let lo = !next in
    let hi = min (lo + slice_len) total in
    let chunks =
      Obs.span stats "exhaustive/solve" (fun () ->
          Soctam_util.Pool.map_ranges ~stats ~jobs:cfg.Run_config.jobs
            ~length:(hi - lo)
            ~f:(fun ~lo:clo ~hi:chi ->
              solve_chunk ~stats ~solver ~cap
                ~node_limit_per_partition:cfg.Run_config.node_limit
                ~out_of_time ~table ~total_width ~tams ~lo:(lo + clo)
                ~hi:(lo + chi) ())
            ())
    in
    (* Deterministic reduction, as in [Partition_evaluate]: the winner is
       the minimum by (time, rank), independent of completion order. *)
    Array.iter
      (fun c ->
        if Array.length c.k_widths <> 0 then
          match !best with
          | Some b
            when b.eb_time < c.k_time
                 || (b.eb_time = c.k_time && b.eb_rank < c.k_rank) ->
              ()
          | Some _ | None ->
              best :=
                Some
                  {
                    eb_time = c.k_time;
                    eb_rank = c.k_rank;
                    eb_widths = c.k_widths;
                    eb_assignment = c.k_assignment;
                  })
      chunks;
    let slice_solved =
      Array.fold_left (fun acc c -> acc + c.k_solved) 0 chunks
    in
    solved := !solved + slice_solved;
    nodes :=
      !nodes + Array.fold_left (fun acc c -> acc + c.k_nodes) 0 chunks;
    next := hi;
    incr slices_done;
    if slice_solved < hi - lo then begin
      (* A deadline or per-partition node budget stopped the slice
         mid-way: the incumbent keeps the partial work, the resume
         token rewinds to the slice start. *)
      Run_config.publish cfg cp_pre;
      stop := Some (Outcome.Budget_exhausted cp_pre)
    end
    else if !next < total then
      stop :=
        Run_config.boundary cfg ~deadline ~slices:!slices_done checkpoint_now
  done;
  let outcome =
    match !stop with
    | Some o -> o
    | None ->
        Run_config.retire cfg;
        Outcome.Complete
  in
  match !best with
  | None when cap < max_int ->
      (* Every partition solved so far only reproduced the imported
         bound: there is nothing of this engine's own to report. A
         completed run in this state is a proof that no architecture
         beats the import. The racer (the only caller that imports)
         reads this as "no improvement"; the empty arrays never reach a
         human-facing surface. *)
      {
        widths = [||];
        time = cap;
        assignment = [||];
        partitions_total = total;
        partitions_solved = !solved;
        nodes = !nodes;
        outcome;
      }
  | None ->
      invalid_arg "Exhaustive.run: no partition evaluated (budget too small)"
  | Some b ->
      {
        widths = b.eb_widths;
        time = b.eb_time;
        assignment = b.eb_assignment;
        partitions_total = total;
        partitions_solved = !solved;
        nodes = !nodes;
        outcome;
      }
