module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json
module Odometer = Soctam_partition.Enumerate.Odometer
module Pool = Soctam_util.Pool
module Shared_min = Soctam_util.Pool.Shared_min

type b_stats = {
  tams : int;
  unique_partitions : int;
  enumerated : int;
  completed : int;
  tau_terminated : int;
  best_time : int option;
}

let efficiency s =
  if s.unique_partitions = 0 then 0.
  else float_of_int s.completed /. float_of_int s.unique_partitions

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  per_b : b_stats array;
  outcome : Outcome.t;
}

(* Flush one chunk's partition counters into the collector. Called at
   chunk granularity, so the per-partition hot loop stays free of
   collector traffic (see the [Obs] design notes). *)
let flush_counters stats ~enumerated ~pruned ~evaluated =
  if Obs.enabled stats then begin
    Obs.add stats ~n:enumerated "partition/enumerated";
    Obs.add stats ~n:pruned "partition/pruned";
    Obs.add stats ~n:evaluated "partition/evaluated"
  end

(* -- slice evaluation ------------------------------------------------------ *)

(* Everything a chunk of one TAM count's rank sequence reports back to
   the engine: the pruning split and the per-B best. *)
type chunk_result = {
  ch_enumerated : int;
  ch_completed : int;
  ch_tau_terminated : int;
  ch_best_time : int option;
}

(* The odometer each worker slot keeps across the chunks it runs within
   one slice: allocated once per slice instead of once per chunk. *)
type odo = {
  mutable w_odo : Odometer.t option;
  mutable w_pos : int;  (* global rank [w_odo] points at; -1 = unknown *)
}

let odo () = { w_odo = None; w_pos = -1 }

(* Point the worker's odometer at [lo]: free when the chunk continues
   where the previous one ended (the owner's common case), an
   allocation-free [reposition] after a steal, a fresh [create_at] only
   on the worker's first chunk of the slice. *)
let aim_odometer st ~total_width ~tams ~lo =
  match st.w_odo with
  | Some o when st.w_pos = lo -> Some o
  | Some o ->
      if Odometer.reposition o ~rank:lo then begin
        st.w_pos <- lo;
        Some o
      end
      else None
  | None -> (
      match Odometer.create_at ~total:total_width ~parts:tams ~rank:lo with
      | Some o ->
          st.w_odo <- Some o;
          st.w_pos <- lo;
          Some o
      | None -> None)

(* One worker's chunk of a TAM count: evaluate the partitions of global
   rank [lo .. hi-1] against the shared (time, rank) incumbent, whose
   [Shared_min.mirror_threshold] is the one tie rule at every team size:
   a tie completes only when its rank is below the incumbent's. Alone,
   ranks ascend, so ties are always pruned — the paper's sequential
   Figure 3 behavior.

   [cap] is a foreign bound ([Run_config.tau_import]; [max_int] = none):
   the threshold is capped at [cap + 1], not [cap] — a candidate that
   merely ties an imported bound must still complete, at {e every} team
   size, because it is this engine's only way to establish an incumbent
   of its own at the imported quality (the bound itself is never
   reported). Without the tie the final exact polish would have nothing
   to improve whenever a rival engine reaches the heuristic optimum
   first, and a portfolio race could end worse than this engine run
   solo. Once an own tie has completed, the own bound equals [cap]
   and the incumbent's rule takes over. *)
let evaluate_chunk ~stats ~cap ~table ~total_width ~tams
    (w : odo Slice_search.worker) ~lo ~hi =
  let enumerated = ref 0 in
  let completed = ref 0 in
  let tau_terminated = ref 0 in
  (* [max_int] = "no completion yet": an int sentinel rather than an
     [int option] so the per-partition loop below never allocates. *)
  let best_time_b = ref max_int in
  let ca = w.Slice_search.ca in
  let mir = w.Slice_search.mirror in
  let state = w.Slice_search.local in
  let cores = Time_table.core_count table in
  let rank = ref lo in
  (match aim_odometer state ~total_width ~tams ~lo with
  | None -> ()
  | Some odometer ->
      (while !rank < hi do
         let widths = Odometer.current odometer in
         let threshold =
           let t = Shared_min.mirror_threshold mir ~rank:!rank in
           let c = if cap = max_int then max_int else cap + 1 in
           if c < t then c else t
         in
         (* The odometer keeps the widths sorted, so the last two are
            the widest and the second-widest. [Run_config.tam_plan] has
            already bounded every width by the table's, so unlike
            [run_table_direct] the cut needs no per-call width check. *)
         let step =
           Core_assign.cut ~table ~best:threshold ~widest:widths.(tams - 1)
             ~second:(if tams > 1 then widths.(tams - 2) else 0)
         in
         if step = 0 then begin
           incr enumerated;
           match
             Core_assign.run_table_direct ?stats:ca
               ~scratch:w.Slice_search.scratch ~best:threshold ~table ~widths
               ()
           with
           | Core_assign.Exceeded _ -> incr tau_terminated
           | Core_assign.Assigned { assignment; time; _ } ->
               incr completed;
               (* The mirror's view makes the improvement test racy
                  under contention, but a trace event is an observation,
                  not an input to the winner. *)
               if time < Shared_min.mirror_get mir then
                 Obs.event_v stats time "tau";
               if time < !best_time_b then best_time_b := time;
               (* A completion always beats the mirror's key (its
                  threshold came from that key), so this copy runs once
                  per improvement. *)
               (Shared_min.mirror_improve mir ~time ~rank:!rank
                  (Array.copy widths, Array.copy assignment)
               [@soctam.allow "ALLOC-HOT"] (* rare improvement path *))
         end
         else begin
           (* A step-1 cut settles the rest of the odometer's trailing
              block too, up to [hi]: no partition in it has a wider
              widest part, [Time_table.peak] is non-increasing in the
              width, and along a chunk the threshold never rises (ranks
              ascend and the incumbent key only falls). Each of those
              ranks would have been cut at step 1 on its own, so the
              counters record one cut per rank. *)
           let n =
             if step = 1 then
               1 + Odometer.skip_block odometer ~limit:(hi - 1 - !rank)
             else 1
           in
           Core_assign.record_cuts ?stats:ca ~cores ~step n;
           enumerated := !enumerated + n;
           tau_terminated := !tau_terminated + n;
           rank := !rank + (n - 1)
         end;
         (* Advance through the last rank too, so the odometer already
            points at [hi] when the next owner chunk begins there. The
            advance can only be refused at the very end of the whole
            enumeration, where no later chunk of this slice exists. *)
         ignore (Odometer.advance odometer);
         incr rank
       done)
      [@soctam.hot];
      state.w_pos <- hi);
  flush_counters stats ~enumerated:!enumerated ~pruned:!tau_terminated
    ~evaluated:!completed;
  {
    ch_enumerated = !enumerated;
    ch_completed = !completed;
    ch_tau_terminated = !tau_terminated;
    ch_best_time = (if !best_time_b = max_int then None else Some !best_time_b);
  }

(* -- checkpoint engine ----------------------------------------------------- *)

(* Mutable progress through one TAM count. *)
type eng_b = {
  g_tams : int;
  mutable g_next : int;
  mutable g_enumerated : int;
  mutable g_completed : int;
  mutable g_pruned : int;
  mutable g_best_time : int option;
}

let fresh_b tams =
  {
    g_tams = tams;
    g_next = 0;
    g_enumerated = 0;
    g_completed = 0;
    g_pruned = 0;
    g_best_time = None;
  }

let unique ~total_width g =
  Soctam_partition.Count.exact ~total:total_width ~parts:g.g_tams

let b_stats_of_eng ~total_width g =
  {
    tams = g.g_tams;
    unique_partitions = unique ~total_width g;
    enumerated = g.g_enumerated;
    completed = g.g_completed;
    tau_terminated = g.g_pruned;
    best_time = g.g_best_time;
  }

(* -- resume token ---------------------------------------------------------- *)

let tag = "pe"

(* The decoded body: the run's identity (width, pruning configuration)
   and its progress — finished cursors, the partial one, and the TAM
   counts not yet started. *)
type token = {
  k_total_width : int;
  k_carry_tau : bool;
  k_tau : int;
  k_best : Checkpoint.best_arch option;
  k_done : eng_b list;
  k_cursor : eng_b option;
  k_pending : int list;
}

let cursor_json g =
  Json.Obj
    [
      ("tams", Json.Int g.g_tams);
      ("next_rank", Json.Int g.g_next);
      ("enumerated", Json.Int g.g_enumerated);
      ("completed", Json.Int g.g_completed);
      ("pruned", Json.Int g.g_pruned);
      ("best_time", Checkpoint.json_int_opt g.g_best_time);
    ]

let cursor_of_json json =
  let g =
    {
      g_tams = Checkpoint.count_field "tams" json;
      g_next = Checkpoint.count_field "next_rank" json;
      g_enumerated = Checkpoint.count_field "enumerated" json;
      g_completed = Checkpoint.count_field "completed" json;
      g_pruned = Checkpoint.count_field "pruned" json;
      g_best_time = Checkpoint.int_opt_field "best_time" json;
    }
  in
  if g.g_completed + g.g_pruned <> g.g_enumerated then
    Checkpoint.fail "TAM count %d breaks enumerated = pruned + evaluated"
      g.g_tams;
  g

let decode json =
  {
    k_total_width = Checkpoint.count_field "total_width" json;
    k_carry_tau = Checkpoint.bool_field "carry_tau" json;
    k_tau = Checkpoint.int_field "tau" json;
    k_best = Checkpoint.best_of_json (Checkpoint.field "best" json);
    k_done = List.map cursor_of_json (Checkpoint.list_field "done" json);
    k_cursor =
      (match Checkpoint.field "cursor" json with
      | Json.Null -> None
      | c -> Some (cursor_of_json c));
    k_pending = Array.to_list (Checkpoint.ints_field "pending" json);
  }

let check_body cfg ~table ~total_width json =
  let k = decode json in
  Option.iter
    (Checkpoint.check_best ~table ~total_width
       ~max_tams:(Run_config.tam_ceiling cfg) ~tau:k.k_tau)
    k.k_best

let run_with (cfg : Run_config.t) ~table ~total_width =
  let b_values = Run_config.tam_plan cfg ~table ~total_width in
  let stats = cfg.Run_config.stats in
  let cap = Run_config.import_cap cfg in
  let restored = Run_config.resumed cfg ~engine:tag decode in
  Option.iter
    (fun k ->
      Checkpoint.require
        (k.k_total_width = total_width)
        "Partition_evaluate: resume checkpoint is for a different total width";
      Checkpoint.require
        (k.k_carry_tau = cfg.Run_config.carry_tau)
        "Partition_evaluate: resume checkpoint was taken under a different \
         pruning configuration";
      Checkpoint.require
        (List.map (fun g -> g.g_tams) (k.k_done @ Option.to_list k.k_cursor)
         @ k.k_pending
        = b_values)
        "Partition_evaluate: resume checkpoint does not match this run's TAM \
         plan")
    restored;
  let work = Slice_search.work cfg in
  let best =
    Slice_search.best ~table ~total_width
      ~max_tams:(Run_config.tam_ceiling cfg)
      ?tau:(Option.map (fun k -> k.k_tau) restored)
      (Option.bind restored (fun k -> k.k_best))
  in
  let tau = ref (match restored with Some k -> k.k_tau | None -> max_int) in
  let done_rev =
    ref (match restored with Some k -> List.rev k.k_done | None -> [])
  in
  (* The plan still to run, its head the TAM count in progress: the
     restored cursor (mid-B) first, then the pending TAM counts; on a
     fresh run, every B with a fresh cursor. *)
  let todo =
    ref
      (match restored with
      | None -> List.map fresh_b b_values
      | Some k -> Option.to_list k.k_cursor @ List.map fresh_b k.k_pending)
  in
  let snapshot () =
    let cursor, pending =
      match !todo with [] -> (None, []) | g :: rest -> (Some g, rest)
    in
    let live = List.rev_append !done_rev (Option.to_list cursor) in
    let sum f = List.fold_left (fun acc g -> acc + f g) 0 live in
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("carry_tau", Json.Bool cfg.Run_config.carry_tau);
          ("tau", Json.Int !tau);
          ("best", Checkpoint.best_to_json (Slice_search.best_arch best));
          ("done", Json.List (List.rev_map cursor_json !done_rev));
          ( "cursor",
            match cursor with None -> Json.Null | Some g -> cursor_json g );
          ( "pending",
            Json.List (List.map (fun g -> Json.Int g.g_tams) pending) );
        ]
    in
    ( Slice_search.counters work
        [
          ("partition/enumerated", sum (fun g -> g.g_enumerated));
          ("partition/evaluated", sum (fun g -> g.g_completed));
          ("partition/pruned", sum (fun g -> g.g_pruned));
        ],
      Checkpoint.Token { engine = tag; body } )
  in
  let accumulate g c =
    g.g_enumerated <- g.g_enumerated + c.ch_enumerated;
    g.g_completed <- g.g_completed + c.ch_completed;
    g.g_pruned <- g.g_pruned + c.ch_tau_terminated;
    g.g_best_time <- Slice_search.merge_min g.g_best_time c.ch_best_time
  in
  let outcome =
    (* One persistent team for the whole plan: domains are spawned here
       once and parked between slices, so per-slice scheduling is a
       condition-variable broadcast rather than a [Domain.spawn] — the
       dominant cost of the previous spawn-per-slice design. *)
    Pool.Team.with_team ~oversubscribe:cfg.Run_config.oversubscribe
      ~jobs:(max 1 cfg.Run_config.jobs) (fun team ->
        Run_config.slices cfg ~snapshot (fun c ->
            while !todo <> [] do
              let g = List.hd !todo in
              (* A fresh TAM count resets the bound when tau is not
                 carried; a restored mid-B cursor keeps the
                 checkpointed bound either way. *)
              if (not cfg.Run_config.carry_tau) && g.g_next = 0 then
                tau := max_int;
              let unique = unique ~total_width g in
              let slice_len = Run_config.slice_size cfg ~length:unique in
              while g.g_next < unique do
                c.Run_config.before_slice ();
                let lo = g.g_next in
                let hi = min (lo + slice_len) unique in
                Slice_search.round ~stats ~span:"partition/evaluate_b" team
                  ~local:odo ~tau best ~work ~lo ~hi
                  ~chunk:
                    (evaluate_chunk ~stats ~cap ~table ~total_width
                       ~tams:g.g_tams)
                |> Array.iter (accumulate g);
                g.g_next <- hi
              done;
              done_rev := g :: !done_rev;
              todo := List.tl !todo
            done))
  in
  let per_b =
    List.rev_map (b_stats_of_eng ~total_width) !done_rev |> Array.of_list
  in
  (* Nothing beat the imported bound: the even split over the first
     permitted TAM count (1 for P_NPAW, the fixed B for P_PAW). *)
  let widths, time, assignment =
    Slice_search.answer ~table ~total_width ~tams:(List.hd b_values)
      (Slice_search.best_arch best)
  in
  { widths; time; assignment; per_b; outcome }
