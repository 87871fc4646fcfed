module Obs = Soctam_obs.Obs
module Pool = Soctam_util.Pool
module Shared_min = Soctam_util.Pool.Shared_min

(* -- incumbent ------------------------------------------------------------- *)

type best = {
  mutable b_widths : int array;
  mutable b_time : int;
  mutable b_assignment : int array;
  mutable b_rank : int;
}

let best ~table ~total_width ~max_tams ?tau ?(rank = -1) = function
  | Some (b : Checkpoint.best_arch) ->
      Checkpoint.check_best ~table ~total_width ~max_tams ?tau b;
      {
        b_widths = b.Checkpoint.ba_widths;
        b_time = b.Checkpoint.ba_time;
        b_assignment = b.Checkpoint.ba_assignment;
        b_rank = rank;
      }
  | None ->
      { b_widths = [||]; b_time = max_int; b_assignment = [||]; b_rank = -1 }

let best_arch b =
  if Array.length b.b_widths = 0 then None
  else
    Some
      {
        Checkpoint.ba_widths = b.b_widths;
        ba_time = b.b_time;
        ba_assignment = b.b_assignment;
      }

(* -- work counters --------------------------------------------------------- *)

type work = {
  mutable tried : int;
  mutable early : int;
  mutable levels : int;
  mutable publications : int;
}

let work (cfg : Run_config.t) =
  let get name =
    match cfg.Run_config.resume with
    | None -> 0
    | Some cp ->
        Option.value ~default:0 (List.assoc_opt name cp.Checkpoint.counters)
  in
  {
    tried = get "core_assign/assignments_tried";
    early = get "core_assign/early_terminations";
    levels = get "core_assign/levels_cut";
    publications = get "pool/tau_publications";
  }

let counters work own =
  List.filter
    (fun (_, n) -> n > 0)
    (own
    @ [
        ("core_assign/assignments_tried", work.tried);
        ("core_assign/early_terminations", work.early);
        ("core_assign/levels_cut", work.levels);
        ("pool/tau_publications", work.publications);
      ])

let merge_min a b =
  match (a, b) with
  | None, t | t, None -> t
  | Some x, Some y -> Some (Int.min x y)

(* -- the slice round ------------------------------------------------------- *)

type 'l worker = {
  local : 'l;
  scratch : Core_assign.scratch;
  mirror : (int array * int array) Shared_min.mirror;
  mutable ca : Core_assign.stats option;
}

(* Flushed per chunk, from the worker that ran it, so the per-partition
   hot loop stays free of collector traffic (see the [Obs] design
   notes) while the counters keep their worker attribution. *)
let flush_ca stats = function
  | None -> ()
  | Some (c : Core_assign.stats) ->
      Obs.add stats ~n:c.Core_assign.tried "core_assign/assignments_tried";
      Obs.add stats ~n:c.Core_assign.early_terminations
        "core_assign/early_terminations";
      Obs.add stats ~n:c.Core_assign.levels_cut "core_assign/levels_cut"

let tally work = function
  | None -> ()
  | Some (c : Core_assign.stats) ->
      work.tried <- work.tried + c.Core_assign.tried;
      work.early <- work.early + c.Core_assign.early_terminations;
      work.levels <- work.levels + c.Core_assign.levels_cut

let round ~stats ~span ?min_chunk ?work team ~local ~tau best ~lo ~hi ~chunk =
  let shared = Shared_min.create !tau in
  let workers =
    Array.init (Pool.Team.size team) (fun _ ->
        {
          local = local ();
          scratch = Core_assign.scratch ();
          mirror = Shared_min.mirror shared;
          ca = None;
        })
  in
  let chunks =
    Obs.span stats span (fun () ->
        Pool.map_chunks ~stats ?min_chunk team ~length:(hi - lo)
          ~f:(fun ~worker ~lo:clo ~hi:chi ->
            (let w = workers.(worker) in
             w.ca <-
               (if Obs.enabled stats then Some (Core_assign.stats ())
                else None);
             let value = chunk w ~lo:(lo + clo) ~hi:(lo + chi) in
             flush_ca stats w.ca;
             (value, w.ca))
            [@soctam.allow "DOM-ESCAPE"]
            (* [workers] is indexed by the worker slot, and the
               scheduler runs at most one chunk per slot at a time:
               each element is effectively worker-local. *))
          ())
  in
  tau := Shared_min.get shared;
  Option.iter
    (fun work ->
      let publications = Shared_min.publications shared in
      Obs.add stats ~n:publications "pool/tau_publications";
      work.publications <- work.publications + publications;
      Array.iter (fun c -> tally work (snd c.Pool.c_value)) chunks)
    work;
  (match Shared_min.winner shared with
  | Some (widths, assignment) when !tau < best.b_time ->
      best.b_time <- !tau;
      best.b_widths <- widths;
      best.b_assignment <- assignment;
      best.b_rank <- Shared_min.rank shared
  | Some _ | None -> ());
  Array.map (fun c -> fst c.Pool.c_value) chunks

(* -- fallback -------------------------------------------------------------- *)

let even_widths ~total_width parts =
  let base = total_width / parts and extra = total_width mod parts in
  Array.init parts (fun i -> if i < extra then base + 1 else base)

let answer ~table ~total_width ~tams = function
  | Some (b : Checkpoint.best_arch) ->
      (b.Checkpoint.ba_widths, b.Checkpoint.ba_time, b.Checkpoint.ba_assignment)
  | None -> (
      let widths = even_widths ~total_width (min tams total_width) in
      match Core_assign.run_table ~table ~widths () with
      | Core_assign.Assigned { assignment; time; _ } ->
          (widths, time, assignment)
      | Core_assign.Exceeded _ -> assert false)
