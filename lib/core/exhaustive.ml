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

module Odometer = Soctam_partition.Enumerate.Odometer
module Shared_min = Soctam_util.Pool.Shared_min

(* One contiguous rank chunk of the partition sequence, solved exactly.
   [stop] ends the whole slice: a solve that exhausted its node budget
   signals the instance is too hard for the budgets, and past the
   deadline nothing more is started. The deadline is consulted only
   after a partition has been solved, so even a zero budget returns a
   well-formed (truncated) incumbent instead of failing. The deadline
   itself is a monotonic reading ([Timer.now_s]): a wall-clock step
   under NTP can neither cut the budget short nor extend it.

   [cap] is a foreign bound ([Run_config.tau_import]; [max_int] = none).
   It warm-starts the B&B incumbent — a zero assignment at the imported
   time, pruning everything that cannot strictly beat it; the slice's
   incumbent is seeded at or below it, so a solve that only reproduced
   the warm start never surfaces its placeholder assignment. *)
let solve_chunk ~stats ~solver ~cap ~node_limit ~out_of_time ~stop ~table
    ~total_width ~tams (w : unit Slice_search.worker) ~lo ~hi =
  let solved = ref 0 and nodes = ref 0 in
  (match Odometer.create_at ~total:total_width ~parts:tams ~rank:lo with
  | None -> ()
  | Some odometer ->
      let rank = ref lo in
      while !rank < hi && not (Atomic.get stop) do
        let widths = Odometer.current odometer in
        let times = Time_table.matrix table ~widths in
        let exact =
          match solver with
          | Milp -> Soctam_ilp.Exact.solve_milp ~node_limit ~times ()
          | Bb when cap = max_int ->
              Soctam_ilp.Exact.solve_bb ~node_limit ~widths ~times ()
          | Bb ->
              Soctam_ilp.Exact.solve_bb ~node_limit
                ~initial:(Array.make (Array.length times) 0, cap)
                ~widths ~times ()
        in
        nodes := !nodes + exact.Soctam_ilp.Exact.nodes;
        if exact.Soctam_ilp.Exact.optimal then incr solved
        else Atomic.set stop true;
        Shared_min.mirror_improve w.Slice_search.mirror
          ~time:exact.Soctam_ilp.Exact.time ~rank:!rank
          (Array.copy widths, exact.Soctam_ilp.Exact.assignment);
        if out_of_time () then Atomic.set stop true;
        ignore (Odometer.advance odometer);
        incr rank
      done);
  if Obs.enabled stats then begin
    Obs.add stats ~n:!solved "exhaustive/partitions_solved";
    Obs.add stats ~n:!nodes "exhaustive/nodes"
  end;
  (!solved, !nodes)

(* -- resume token ---------------------------------------------------------- *)

type token = {
  t_total_width : int;
  t_tams : int;
  t_next_rank : int;
  t_best : (Checkpoint.best_arch * int) option;  (* with its rank *)
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
            ( {
                Checkpoint.ba_time = Checkpoint.int_field "time" b;
                ba_widths = Checkpoint.ints_field "widths" b;
                ba_assignment = Checkpoint.ints_field "assignment" b;
              },
              Checkpoint.count_field "rank" b ));
    t_solved = Checkpoint.count_field "solved" json;
    t_nodes = Checkpoint.count_field "nodes" json;
  }

let check_body ~table ~total_width ~tams json =
  Option.iter
    (fun (b, _) -> Checkpoint.check_best ~table ~total_width ~max_tams:tams b)
    (decode json).t_best

let run_with ?(solver = Bb) (cfg : Run_config.t) ~table ~total_width ~tams =
  if total_width < tams then
    invalid_arg "Exhaustive.run: total_width must be >= tams";
  let stats = cfg.Run_config.stats in
  let total =
    Soctam_partition.Count.exact ~total:total_width ~parts:tams
  in
  let cap = Run_config.import_cap cfg in
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
  let best =
    let restored_best = Option.bind restored (fun k -> k.t_best) in
    Slice_search.best ~table ~total_width ~max_tams:tams
      ?rank:(Option.map snd restored_best)
      (Option.map fst restored_best)
  in
  let snapshot () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("tams", Json.Int tams);
          ("next_rank", Json.Int !next);
          ( "best",
            if Array.length best.Slice_search.b_widths = 0 then Json.Null
            else
              Json.Obj
                [
                  ("time", Json.Int best.Slice_search.b_time);
                  ("rank", Json.Int best.Slice_search.b_rank);
                  ("widths", Checkpoint.json_ints best.Slice_search.b_widths);
                  ( "assignment",
                    Checkpoint.json_ints best.Slice_search.b_assignment );
                ] );
          ("solved", Json.Int !solved);
          ("nodes", Json.Int !nodes);
        ]
    in
    ( List.filter
        (fun (_, n) -> n > 0)
        [
          ("exhaustive/partitions_total", total);
          ("exhaustive/partitions_solved", !solved);
          ("exhaustive/nodes", !nodes);
        ],
      Checkpoint.Token { engine = tag solver; body } )
  in
  let slice_len = Run_config.slice_size cfg ~length:total in
  let outcome =
    Soctam_util.Pool.Team.with_team ~oversubscribe:cfg.Run_config.oversubscribe
      ~jobs:(max 1 cfg.Run_config.jobs) (fun team ->
        (* The first slice always runs and a boundary follows each
           slice, so even a zero budget returns a solved incumbent. *)
        Run_config.slices cfg ~grant_first:true ~snapshot (fun c ->
            let out_of_time () =
              match c.Run_config.deadline with
              | None -> false
              | Some d -> Soctam_util.Timer.now_s () > d
            in
            while !next < total do
              c.Run_config.before_slice ();
              (* The safe state to resume a truncated slice from: which
                 partitions inside the slice got solved before a budget
                 stop is timing-dependent, so the checkpoint rewinds to
                 the slice start and the resumed run re-solves the whole
                 slice. *)
              let cp_pre = c.Run_config.checkpoint () in
              let lo = !next in
              let hi = min (lo + slice_len) total in
              (* Each partition is a whole exact solve, so chunks shrink
                 to single ranks. The B&B keeps its [cap] warm start;
                 the slice incumbent only collects the winner. *)
              let halt = Atomic.make false in
              let chunks =
                Slice_search.round ~stats ~span:"exhaustive/solve"
                  ~min_chunk:1 team ~local:ignore
                  ~tau:(ref (min best.Slice_search.b_time cap))
                  best ~lo ~hi
                  ~chunk:
                    (solve_chunk ~stats ~solver ~cap
                       ~node_limit:cfg.Run_config.node_limit ~out_of_time
                       ~stop:halt ~table ~total_width ~tams)
              in
              let slice_solved =
                Array.fold_left (fun acc (s, _) -> acc + s) 0 chunks
              in
              solved := !solved + slice_solved;
              nodes :=
                Array.fold_left (fun acc (_, n) -> acc + n) !nodes chunks;
              next := hi;
              (* A deadline or per-partition node budget stopped the
                 slice mid-way: the incumbent keeps the partial work,
                 the resume token rewinds to the slice start. *)
              if slice_solved < hi - lo then
                c.Run_config.stop (Outcome.Budget_exhausted cp_pre)
            done))
  in
  let result widths time assignment =
    {
      widths;
      time;
      assignment;
      partitions_total = total;
      partitions_solved = !solved;
      nodes = !nodes;
      outcome;
    }
  in
  if Array.length best.Slice_search.b_widths > 0 then
    result best.Slice_search.b_widths best.Slice_search.b_time
      best.Slice_search.b_assignment
  else if cap < max_int then
    (* Every partition solved so far only reproduced the imported
       bound: there is nothing of this engine's own to report. A
       completed run in this state is a proof that no architecture
       beats the import. The racer (the only caller that imports) reads
       this as "no improvement"; the empty arrays never reach a
       human-facing surface. *)
    result [||] cap [||]
  else invalid_arg "Exhaustive.run: no partition evaluated (budget too small)"
