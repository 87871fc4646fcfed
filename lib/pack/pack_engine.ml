module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json
module Pool = Soctam_util.Pool
module Shared_min = Soctam_util.Pool.Shared_min
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Core_assign = Soctam_core.Core_assign
module Slice_search = Soctam_core.Slice_search
module Tt = Soctam_core.Time_table

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  ranks : int;
  packings : int;
  candidates : int;
  completed : int;
  pruned : int;
  best_makespan : int option;
  outcome : Outcome.t;
}

(* -- rank space ------------------------------------------------------------ *)

(* The deterministic search sequence. Even-split ranks come first: they
   are O(cores) each, they seed the pruning bound before any packing
   runs, and they make the engine's floor the naive balanced design.
   Then one rank per (width cap, heuristic): rectangles at Pareto cap
   [1 + (r - n_even) / 3], packed by heuristic [(r - n_even) mod 3].
   Last the express ranks, one per express width [e = 1 .. W - 1]: the
   distillation of a degenerate two-column packing — a full-height
   column of width [e] beside an evenly split remainder — the
   one-bottleneck-core shape the level packers rarely reach. *)
type gen = Even of int | Pack of int * Level_pack.order | Express of int

type space = {
  sp_even : int array;
  sp_orders : Level_pack.order array;
  sp_width : int;
}

let space ~total_width ~b_values =
  {
    sp_even = Array.of_list b_values;
    sp_orders = Array.of_list Level_pack.orders;
    sp_width = total_width;
  }

let rank_count sp =
  Array.length sp.sp_even
  + (Array.length sp.sp_orders * sp.sp_width)
  + max 0 (sp.sp_width - 1)

let gen_of_rank sp r =
  let n_even = Array.length sp.sp_even in
  let n_pack = Array.length sp.sp_orders * sp.sp_width in
  if r < n_even then Even sp.sp_even.(r)
  else if r < n_even + n_pack then
    let k = r - n_even in
    let n_orders = Array.length sp.sp_orders in
    Pack ((k / n_orders) + 1, sp.sp_orders.(k mod n_orders))
  else Express (r - n_even - n_pack + 1)

(* -- level distillation ---------------------------------------------------- *)

let desc a b = Int.compare b a

(* How a level's unused wires are spread before the lane widths become
   a partition: round-robin over all lanes, everything to the widest
   lane, or everything to the narrowest. Each padding reaches a
   different basin — balanced lanes, one express lane for the
   bottleneck core, or a rescued narrow straggler. *)
type padding = Spread | To_widest | To_narrowest

let paddings = [ Spread; To_widest; To_narrowest ]

(* Turn one packing level's lane widths into a full-width partition:
   pad the strip's unused wires by [padding], then adjust the lane
   count — merge the two narrowest while over the TAM limit, split the
   widest in half while under a fixed B. Splitting is always possible:
   the lane sum stays [total_width >= B], so while fewer than B lanes
   exist some lane has width >= 2. *)
let distill_level ~total_width ~tams ~max_tams ~padding
    (slots : Level_pack.placed list) =
  let lanes =
    List.map (fun (p : Level_pack.placed) -> p.Level_pack.p_w) slots
  in
  let arr = Array.of_list lanes in
  Array.sort desc arr;
  let k = Array.length arr in
  let leftover = total_width - Array.fold_left ( + ) 0 arr in
  (match padding with
  | Spread ->
      for i = 0 to leftover - 1 do
        arr.(i mod k) <- arr.(i mod k) + 1
      done
  | To_widest -> arr.(0) <- arr.(0) + leftover
  | To_narrowest -> arr.(k - 1) <- arr.(k - 1) + leftover);
  let lanes = ref (Array.to_list arr) in
  let count = ref k in
  let resort () = lanes := List.sort desc !lanes in
  let merge_smallest () =
    match List.rev !lanes with
    | a :: b :: rest ->
        lanes := List.rev ((a + b) :: rest);
        decr count;
        resort ()
    | _ -> assert false
  in
  (match tams with
  | None ->
      while !count > max_tams do
        merge_smallest ()
      done
  | Some b ->
      while !count > b do
        merge_smallest ()
      done;
      while !count < b do
        (match !lanes with
        | widest :: rest ->
            lanes := ((widest + 1) / 2) :: (widest / 2) :: rest;
            incr count
        | [] -> assert false);
        resort ()
      done);
  resort ();
  Array.of_list !lanes

let arrays_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
  !ok

(* The candidate partitions of one rank, in deterministic order with
   within-rank duplicates removed (consecutive levels of a packing
   often distill to the same partition; first occurrence wins). *)
let candidates_of_rank ~table ~total_width ~tams ~max_tams sp r =
  match gen_of_rank sp r with
  | Even b -> ([ Slice_search.even_widths ~total_width b ], 0, None)
  | Express e ->
      (* One full-height lane of width [e], the remaining [W - e] wires
         split evenly over k further lanes; every permitted k (P_NPAW)
         or exactly B - 1 (P_PAW). Lanes stay >= 1 by the k cap. *)
      let rest = total_width - e in
      let ks =
        match tams with
        | Some b -> if b >= 2 && rest >= b - 1 then [ b - 1 ] else []
        | None -> Soctam_util.Intutil.range 1 (min (max_tams - 1) rest)
      in
      let cands =
        List.map
          (fun k ->
            let arr =
              Array.append [| e |]
                (Slice_search.even_widths ~total_width:rest k)
            in
            Array.sort desc arr;
            arr)
          ks
      in
      (cands, 0, None)
  | Pack (cap, order) ->
      let rects = Rect_build.rects table ~cap in
      let packing = Level_pack.pack order ~width:total_width rects in
      let seen = ref [] in
      List.iter
        (fun (l : Level_pack.level) ->
          List.iter
            (fun padding ->
              let cand =
                distill_level ~total_width ~tams ~max_tams ~padding
                  l.Level_pack.l_slots
              in
              if not (List.exists (fun c -> arrays_equal c cand) !seen) then
                seen := cand :: !seen)
            paddings)
        packing.Level_pack.pk_levels;
      (List.rev !seen, 1, Some packing.Level_pack.pk_height)

(* -- slice evaluation ------------------------------------------------------ *)

let flush_counters stats ~packings ~cands ~pruned ~evaluated =
  if Obs.enabled stats then begin
    Obs.add stats ~n:packings "pack/packings";
    Obs.add stats ~n:cands "pack/candidates";
    Obs.add stats ~n:pruned "pack/pruned";
    Obs.add stats ~n:evaluated "pack/evaluated"
  end

type chunk_result = {
  ch_packings : int;
  ch_candidates : int;
  ch_completed : int;
  ch_pruned : int;
  ch_best_makespan : int option;
}

(* The incumbent is keyed by generator rank: ranks are disjoint across
   chunks and one worker evaluates a rank's candidates in their fixed
   order, where a later tie at the same rank gets threshold [tau] and
   is pruned. The minimum key is therefore the sequential
   first-strict-improvement winner at any job count — the same argument
   as [Partition_evaluate]'s. *)
let evaluate_chunk ~stats ~cap ~table ~total_width ~tams ~max_tams ~sp
    (w : unit Slice_search.worker) ~lo ~hi =
  let packings = ref 0 in
  let cands = ref 0 in
  let completed = ref 0 in
  let pruned = ref 0 in
  let makespan = ref None in
  let mir = w.Slice_search.mirror in
  for rank = lo to hi - 1 do
    let rank_cands, rank_packings, rank_makespan =
      candidates_of_rank ~table ~total_width ~tams ~max_tams sp rank
    in
    packings := !packings + rank_packings;
    makespan := Slice_search.merge_min !makespan rank_makespan;
    List.iter
      (fun widths ->
        incr cands;
        (* An imported bound caps the threshold at every job count, so
           foreign times never enter the incumbent. *)
        let threshold =
          let t = Shared_min.mirror_threshold mir ~rank in
          if cap < t then cap else t
        in
        match
          Core_assign.run_table_direct ?stats:w.Slice_search.ca
            ~scratch:w.Slice_search.scratch
            ~best:threshold ~table ~widths ()
        with
        | Core_assign.Exceeded _ -> incr pruned
        | Core_assign.Assigned { assignment; time; _ } ->
            incr completed;
            if time < Shared_min.mirror_get mir then
              Obs.event_v stats time "tau";
            (* [widths] is freshly built per rank, but [assignment]
               aliases the worker scratch and must be copied. *)
            Shared_min.mirror_improve mir ~time ~rank
              (widths, Array.copy assignment))
      rank_cands
  done;
  flush_counters stats ~packings:!packings ~cands:!cands ~pruned:!pruned
    ~evaluated:!completed;
  {
    ch_packings = !packings;
    ch_candidates = !cands;
    ch_completed = !completed;
    ch_pruned = !pruned;
    ch_best_makespan = !makespan;
  }

(* -- resume token ---------------------------------------------------------- *)

let tag = "pack"

type token = {
  k_total_width : int;
  k_tams : int option;  (* fixed TAM count (P_PAW); [None] = P_NPAW *)
  k_max_tams : int;
  k_initial : int option;
  k_tau : int;
  k_best : Checkpoint.best_arch option;
  k_next_rank : int;
  k_ranks : int;  (* rank-space size; a resume recomputes and compares *)
  k_packings : int;
  k_candidates : int;
  k_completed : int;
  k_pruned : int;
  k_best_makespan : int option;
}

let decode json =
  let k =
    {
      k_total_width = Checkpoint.count_field "total_width" json;
      k_tams = Checkpoint.int_opt_field "tams" json;
      k_max_tams = Checkpoint.count_field "max_tams" json;
      k_initial = Checkpoint.int_opt_field "initial" json;
      k_tau = Checkpoint.int_field "tau" json;
      k_best = Checkpoint.best_of_json (Checkpoint.field "best" json);
      k_next_rank = Checkpoint.count_field "next_rank" json;
      k_ranks = Checkpoint.count_field "ranks" json;
      k_packings = Checkpoint.count_field "packings" json;
      k_candidates = Checkpoint.count_field "candidates" json;
      k_completed = Checkpoint.count_field "completed" json;
      k_pruned = Checkpoint.count_field "pruned" json;
      k_best_makespan = Checkpoint.int_opt_field "best_makespan" json;
    }
  in
  Checkpoint.require
    (k.k_completed + k.k_pruned = k.k_candidates)
    "pack state breaks candidates = pruned + evaluated";
  Checkpoint.require (k.k_next_rank <= k.k_ranks)
    "pack cursor is past the end of the rank space";
  k

exception Stopped of Outcome.t

let run_with (cfg : Rc.t) ~table ~total_width =
  if total_width < 1 then invalid_arg "Pack_engine: total_width must be >= 1";
  if cfg.Rc.max_tams < 1 then invalid_arg "Pack_engine: max_tams must be >= 1";
  if Tt.max_width table < total_width then
    invalid_arg "Pack_engine: time table narrower than total width";
  let tams = cfg.Rc.tams in
  let b_values =
    match tams with
    | Some b ->
        if b > total_width then invalid_arg "Pack_engine: more TAMs than width";
        if b < 1 then invalid_arg "Pack_engine: tams must be >= 1";
        [ b ]
    | None -> Soctam_util.Intutil.range 1 (min cfg.Rc.max_tams total_width)
  in
  let max_tams = cfg.Rc.max_tams in
  let sp = space ~total_width ~b_values in
  let ranks = rank_count sp in
  let stats = cfg.Rc.stats in
  let initial =
    match cfg.Rc.initial_best with Some t -> t | None -> max_int
  in
  let cap = match cfg.Rc.tau_import with Some b -> b | None -> max_int in
  let restored = Rc.resumed cfg ~engine:tag decode in
  Option.iter
    (fun k ->
      Checkpoint.require
        (k.k_total_width = total_width)
        "Pack_engine: resume checkpoint is for a different total width";
      Checkpoint.require
        (k.k_tams = cfg.Rc.tams && k.k_max_tams = cfg.Rc.max_tams)
        "Pack_engine: resume checkpoint was taken under a different TAM \
         configuration";
      Checkpoint.require
        (k.k_initial = cfg.Rc.initial_best)
        "Pack_engine: resume checkpoint was taken under a different pruning \
         configuration";
      Checkpoint.require (k.k_ranks = ranks)
        "Pack_engine: resume checkpoint does not match this rank space")
    restored;
  let work = Slice_search.work cfg in
  let best =
    Slice_search.best ~table ~total_width
      ~max_tams:(Option.value tams ~default:max_tams)
      ?tau:(Option.map (fun k -> k.k_tau) restored)
      ~initial
      (Option.bind restored (fun k -> k.k_best))
  in
  let tau = ref (match restored with Some k -> k.k_tau | None -> initial) in
  let next = ref (match restored with Some k -> k.k_next_rank | None -> 0) in
  let packings = ref (match restored with Some k -> k.k_packings | None -> 0) in
  let cands = ref (match restored with Some k -> k.k_candidates | None -> 0) in
  let completed =
    ref (match restored with Some k -> k.k_completed | None -> 0)
  in
  let pruned = ref (match restored with Some k -> k.k_pruned | None -> 0) in
  let makespan =
    ref (match restored with Some k -> k.k_best_makespan | None -> None)
  in
  let deadline = Rc.deadline cfg in
  let counters_now () =
    Slice_search.counters work
      [
        ("pack/packings", !packings);
        ("pack/candidates", !cands);
        ("pack/evaluated", !completed);
        ("pack/pruned", !pruned);
      ]
  in
  let checkpoint_now () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("tams", Checkpoint.json_int_opt tams);
          ("max_tams", Json.Int max_tams);
          ("initial", Checkpoint.json_int_opt cfg.Rc.initial_best);
          ("tau", Json.Int !tau);
          ("best", Checkpoint.best_to_json (Slice_search.best_arch best));
          ("next_rank", Json.Int !next);
          ("ranks", Json.Int ranks);
          ("packings", Json.Int !packings);
          ("candidates", Json.Int !cands);
          ("completed", Json.Int !completed);
          ("pruned", Json.Int !pruned);
          ("best_makespan", Checkpoint.json_int_opt !makespan);
        ]
    in
    {
      Checkpoint.soc = cfg.Rc.soc_name;
      counters = counters_now ();
      state = Checkpoint.Token { engine = tag; body };
    }
  in
  let slices_done = ref 0 in
  let slice_len = Rc.slice_size cfg ~length:ranks in
  let outcome =
    Pool.Team.with_team ~oversubscribe:cfg.Rc.oversubscribe
      ~jobs:(max 1 cfg.Rc.jobs) (fun team ->
        try
          while !next < ranks do
            (match
               Rc.boundary cfg ~deadline ~slices:!slices_done checkpoint_now
             with
            | Some o -> raise (Stopped o)
            | None -> ());
            let lo = !next in
            let hi = min (lo + slice_len) ranks in
            (* Ranks are coarse units (a whole packing plus its
               candidate evaluations), so chunks shrink to single ranks;
               the default granularity would serialize the space. *)
            Slice_search.round ~stats ~span:"pack/evaluate_slice" ~min_chunk:1
              team ~local:ignore ~tau best ~work ~lo ~hi
              ~chunk:
                (evaluate_chunk ~stats ~cap ~table ~total_width ~tams
                   ~max_tams ~sp)
            |> Array.iter (fun c ->
                   packings := !packings + c.ch_packings;
                   cands := !cands + c.ch_candidates;
                   completed := !completed + c.ch_completed;
                   pruned := !pruned + c.ch_pruned;
                   makespan :=
                     Slice_search.merge_min !makespan c.ch_best_makespan);
            next := hi;
            incr slices_done
          done;
          Rc.retire cfg;
          Outcome.Complete
        with Stopped o -> o)
  in
  (* Nothing beat the seed (or the budget expired before the first
     slice): the even split over the first permitted TAM count. *)
  let widths, time, assignment =
    Slice_search.answer ~table ~total_width ~tams:(List.hd b_values) best
  in
  {
    widths;
    time;
    assignment;
    ranks;
    packings = !packings;
    candidates = !cands;
    completed = !completed;
    pruned = !pruned;
    best_makespan = !makespan;
    outcome;
  }

let architecture ~table r =
  Soctam_tam.Architecture.of_times
    ~times:(fun ~core ~width -> Tt.time table ~core ~width)
    ~cores:(Tt.core_count table) ~widths:r.widths ~assignment:r.assignment

let schedule ~table r = Pack_schedule.of_architecture ~table (architecture ~table r)

module E : Soctam_core.Engine.S = struct
  let name = "pack"

  let caps =
    {
      Soctam_core.Engine.parallel = true;
      imports_tau = true;
      needs_fixed_tams = false;
      free_tams_only = false;
      proves = false;
    }

  let check_body json = ignore (decode json)

  let run (cfg : Rc.t) (inst : Soctam_core.Engine.instance) =
    let r =
      run_with cfg ~table:inst.Soctam_core.Engine.table
        ~total_width:inst.Soctam_core.Engine.total_width
    in
    {
      Soctam_core.Engine.r_widths = r.widths;
      r_time = r.time;
      r_assignment = r.assignment;
      r_outcome = r.outcome;
      r_notes =
        [
          Printf.sprintf "%d ranks, %d candidates (%d pruned)%s" r.ranks
            r.candidates r.pruned
            (match r.best_makespan with
            | None -> ""
            | Some h -> Printf.sprintf ", best raw packing height %d" h);
        ];
    }
end

let engine : Soctam_core.Engine.t = (module E)
