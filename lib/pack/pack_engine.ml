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
type gen = Even of int | Pack of int * int | Express of int

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

(* [Pack (cap, o)]: heuristic [sp.sp_orders.(o)] at width cap [cap]. *)
let gen_of_rank sp r =
  let n_even = Array.length sp.sp_even in
  let n_pack = Array.length sp.sp_orders * sp.sp_width in
  if r < n_even then Even sp.sp_even.(r)
  else if r < n_even + n_pack then
    let k = r - n_even in
    let n_orders = Array.length sp.sp_orders in
    Pack ((k / n_orders) + 1, k mod n_orders)
  else Express (r - n_even - n_pack + 1)

(* -- level distillation ---------------------------------------------------- *)

(* How a level's unused wires are spread before the lane widths become
   a partition: round-robin over all lanes, everything to the widest
   lane, or everything to the narrowest. Each padding reaches a
   different basin — balanced lanes, one express lane for the
   bottleneck core, or a rescued narrow straggler. *)
type padding = Spread | To_widest | To_narrowest

let paddings = [| Spread; To_widest; To_narrowest |]

(* Insertion sort of [buf.(0 .. n - 1)], widest first. Every caller
   changes at most two entries of a sorted prefix, so this is O(n). *)
let sort_desc (buf : int array) n =
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) < x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done

(* Turn one packing level's lane widths into a full-width partition:
   pad the strip's unused wires by [padding], then adjust the lane
   count — merge the two last lanes while over the TAM limit, split the
   first in half while under a fixed B, re-sorting after each step.
   The first step acts on the padded order, where [To_narrowest] may
   have made the last lane the widest; after it the lanes are sorted,
   so the steps merge the two narrowest and split the widest.
   Splitting is always possible: the lane sum stays
   [total_width >= B], so while fewer than B lanes exist some lane has
   width >= 2. [buf] holds [total_width] entries, enough for every
   lane (each is >= 1 wide) and for B. Returns a fresh array. *)
let distill_level ~total_width ~tams ~max_tams ~padding (buf : int array)
    (slots : Level_pack.placed list) =
  let k = ref 0 and used = ref 0 in
  List.iter
    (fun (p : Level_pack.placed) ->
      buf.(!k) <- p.Level_pack.p_w;
      used := !used + p.Level_pack.p_w;
      incr k)
    slots;
  let k = !k in
  sort_desc buf k;
  let leftover = total_width - !used in
  (match padding with
  | Spread ->
      for i = 0 to leftover - 1 do
        buf.(i mod k) <- buf.(i mod k) + 1
      done
  | To_widest -> buf.(0) <- buf.(0) + leftover
  | To_narrowest -> buf.(k - 1) <- buf.(k - 1) + leftover);
  let n = ref k in
  let merge_last () =
    buf.(!n - 2) <- buf.(!n - 2) + buf.(!n - 1);
    decr n;
    sort_desc buf !n
  in
  (match tams with
  | None ->
      while !n > max_tams do
        merge_last ()
      done
  | Some b ->
      while !n > b do
        merge_last ()
      done;
      while !n < b do
        let first = buf.(0) in
        buf.(0) <- (first + 1) / 2;
        buf.(!n) <- first / 2;
        incr n;
        sort_desc buf !n
      done);
  sort_desc buf !n;
  Array.sub buf 0 !n

let arrays_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
  !ok

(* -- the per-slice candidate memo ------------------------------------------ *)

(* Width vectors are compared element-wise and hashed with integer
   arithmetic, never with the polymorphic primitives (DET-POLY). *)
module Memo = Hashtbl.Make (struct
  type t = int array

  let equal = arrays_equal

  let hash (a : int array) =
    Array.fold_left (fun h x -> (h * 31) + x) (Array.length a) a land max_int
end)

(* Where a worker has met one sorted width vector during this slice:
   the lowest rank, and the last rank, so that a second occurrence
   within one rank is recognised as such. *)
type seen = { mutable low : int; mutable last : int }

(* Worker-local state for one slice. [replay_*] hold, per heuristic,
   the base cap of this worker's last packing ([0] = none yet), its
   distinct candidate count and its height. *)
type local = {
  memo : seen Memo.t;
  buf : int array;
  replay_base : int array;
  replay_count : int array;
  replay_height : int array;
}

let local ~total_width ~orders () =
  {
    memo = Memo.create 64;
    buf = Array.make total_width 0;
    replay_base = Array.make orders 0;
    replay_count = Array.make orders 0;
    replay_height = Array.make orders 0;
  }

type verdict = Duplicate | Fresh | Repeat

(* One lookup per candidate serves both purposes: a vector already met
   at this rank is a within-rank duplicate (the first occurrence wins
   and the later one is not counted), one met at a lower rank is a
   repeat. [repeat] marks a candidate known to repeat a lower rank's
   without the memo's help. *)
let classify memo cand ~rank ~repeat =
  match Memo.find_opt memo cand with
  | Some s when s.last = rank -> Duplicate
  | Some s when s.low < rank ->
      s.last <- rank;
      Repeat
  | Some s ->
      s.low <- rank;
      s.last <- rank;
      if repeat then Repeat else Fresh
  | None ->
      Memo.add memo cand { low = rank; last = rank };
      if repeat then Repeat else Fresh

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
   as [Partition_evaluate]'s.

   A candidate already met at a lower rank r0 never reaches the greedy
   loop: its evaluation there either published (t, r0) or was pruned
   at a threshold at most t, so the incumbent key is already at most
   (t, r0), below its (t, r) here. It can never win at any job count,
   and at -j 1, where the threshold never rises, the greedy loop
   would have pruned it too; it is counted as pruned. The same holds
   for a whole packing rank whose cap repeats a lower cap's rectangles
   ([Rect_build.base_cap]): its candidates are exactly those of rank
   (base, heuristic). It replays the count and height of this
   worker's packing of those rectangles, or, when this worker has
   none in the slice, packs and distills but prunes every candidate
   the cut does not. *)
let evaluate_chunk ~stats ~cap ~table ~rb ~total_width ~tams ~max_tams ~sp
    (w : local Slice_search.worker) ~lo ~hi =
  let packings = ref 0 in
  let cands = ref 0 in
  let completed = ref 0 in
  let pruned = ref 0 in
  let makespan = ref None in
  let mir = w.Slice_search.mirror in
  let st = w.Slice_search.local in
  let cores = Tt.core_count table in
  (* [widths] is a fresh array, sorted widest first. *)
  let consider ~rank ~repeat widths =
    match classify st.memo widths ~rank ~repeat with
    | Duplicate -> ()
    | (Fresh | Repeat) as verdict -> (
        incr cands;
        (* An imported bound caps the threshold at every job count, so
           foreign times never enter the incumbent. *)
        let threshold =
          let t = Shared_min.mirror_threshold mir ~rank in
          if cap < t then cap else t
        in
        let second = if Array.length widths > 1 then widths.(1) else 0 in
        match
          ( Core_assign.cut ~table ~best:threshold ~widest:widths.(0) ~second,
            verdict )
        with
        | 0, Fresh -> (
            match
              Core_assign.run_table_direct ?stats:w.Slice_search.ca
                ~scratch:w.Slice_search.scratch ~best:threshold ~table
                ~widths ()
            with
            | Core_assign.Exceeded _ -> incr pruned
            | Core_assign.Assigned { assignment; time; _ } ->
                incr completed;
                if time < Shared_min.mirror_get mir then
                  Obs.event_v stats time "tau";
                (* [assignment] aliases the worker scratch and must be
                   copied. *)
                Shared_min.mirror_improve mir ~time ~rank
                  (widths, Array.copy assignment))
        | 0, (Repeat | Duplicate) -> incr pruned
        | step, _ ->
            Core_assign.record_cuts ?stats:w.Slice_search.ca ~cores ~step 1;
            incr pruned)
  in
  for rank = lo to hi - 1 do
    match gen_of_rank sp rank with
    | Even b ->
        consider ~rank ~repeat:false (Slice_search.even_widths ~total_width b)
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
        List.iter
          (fun k ->
            let arr =
              Array.append [| e |]
                (Slice_search.even_widths ~total_width:rest k)
            in
            sort_desc arr (Array.length arr);
            consider ~rank ~repeat:false arr)
          ks
    | Pack (pcap, o) ->
        let base = Rect_build.base_cap rb ~cap:pcap in
        incr packings;
        if base < pcap && st.replay_base.(o) = base then begin
          cands := !cands + st.replay_count.(o);
          pruned := !pruned + st.replay_count.(o);
          makespan :=
            Slice_search.merge_min !makespan (Some st.replay_height.(o))
        end
        else begin
          let packing =
            Level_pack.pack sp.sp_orders.(o) ~width:total_width
              (Rect_build.rects rb ~cap:pcap)
          in
          let before = !cands in
          List.iter
            (fun (l : Level_pack.level) ->
              Array.iter
                (fun padding ->
                  consider ~rank ~repeat:(base < pcap)
                    (distill_level ~total_width ~tams ~max_tams ~padding
                       st.buf l.Level_pack.l_slots))
                paddings)
            packing.Level_pack.pk_levels;
          let height = packing.Level_pack.pk_height in
          makespan := Slice_search.merge_min !makespan (Some height);
          st.replay_base.(o) <- base;
          st.replay_count.(o) <- !cands - before;
          st.replay_height.(o) <- height
        end
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

let run_with (cfg : Rc.t) ~table ~total_width =
  let b_values = Rc.tam_plan cfg ~table ~total_width in
  let tams = cfg.Rc.tams in
  let max_tams = cfg.Rc.max_tams in
  let sp = space ~total_width ~b_values in
  let ranks = rank_count sp in
  let stats = cfg.Rc.stats in
  let cap = Rc.import_cap cfg in
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
      Checkpoint.require (k.k_ranks = ranks)
        "Pack_engine: resume checkpoint does not match this rank space")
    restored;
  let work = Slice_search.work cfg in
  let best =
    Slice_search.best ~table ~total_width ~max_tams:(Rc.tam_ceiling cfg)
      ?tau:(Option.map (fun k -> k.k_tau) restored)
      (Option.bind restored (fun k -> k.k_best))
  in
  let tau = ref (match restored with Some k -> k.k_tau | None -> max_int) in
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
  let snapshot () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("tams", Checkpoint.json_int_opt tams);
          ("max_tams", Json.Int max_tams);
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
    ( Slice_search.counters work
        [
          ("pack/packings", !packings);
          ("pack/candidates", !cands);
          ("pack/evaluated", !completed);
          ("pack/pruned", !pruned);
        ],
      Checkpoint.Token { engine = tag; body } )
  in
  let slice_len = Rc.slice_size cfg ~length:ranks in
  let rb = Rect_build.make table in
  let local = local ~total_width ~orders:(Array.length sp.sp_orders) in
  let outcome =
    Pool.Team.with_team ~oversubscribe:cfg.Rc.oversubscribe
      ~jobs:(max 1 cfg.Rc.jobs) (fun team ->
        Rc.slices cfg ~snapshot (fun c ->
            while !next < ranks do
              c.Rc.before_slice ();
              let lo = !next in
              let hi = min (lo + slice_len) ranks in
              (* Ranks are coarse units (a whole packing plus its
                 candidate evaluations), so chunks shrink to single
                 ranks; the default granularity would serialize the
                 space. *)
              Slice_search.round ~stats ~span:"pack/evaluate_slice"
                ~min_chunk:1 team ~local ~tau best ~work ~lo ~hi
                ~chunk:
                  (evaluate_chunk ~stats ~cap ~table ~rb ~total_width ~tams
                     ~max_tams ~sp)
              |> Array.iter (fun c ->
                     packings := !packings + c.ch_packings;
                     cands := !cands + c.ch_candidates;
                     completed := !completed + c.ch_completed;
                     pruned := !pruned + c.ch_pruned;
                     makespan :=
                       Slice_search.merge_min !makespan c.ch_best_makespan);
              next := hi
            done))
  in
  (* Nothing beat the imported bound (or the budget expired before the
     first slice): the even split over the first permitted TAM count. *)
  let widths, time, assignment =
    Slice_search.answer ~table ~total_width ~tams:(List.hd b_values)
      (Slice_search.best_arch best)
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

  let check_body cfg (inst : Soctam_core.Engine.instance) json =
    let k = decode json in
    Option.iter
      (Checkpoint.check_best ~table:inst.Soctam_core.Engine.table
         ~total_width:inst.Soctam_core.Engine.total_width
         ~max_tams:(Rc.tam_ceiling cfg) ~tau:k.k_tau)
      k.k_best

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
