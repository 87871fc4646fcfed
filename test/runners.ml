(* Run_config-based entry points with the labelled signatures the test
   suites grew up with. Every solver invocation in the tests goes
   through run_with and a single config value built here. *)

module Rc = Soctam_core.Run_config
module Co = Soctam_core.Co_optimize
module Pe = Soctam_core.Partition_evaluate
module Ex = Soctam_core.Exhaustive
module Sw = Soctam_core.Sweep
module Pk = Soctam_pack.Pack_engine
module An = Soctam_anneal.Annealer

let opt set v cfg = match v with None -> cfg | Some x -> set x cfg

(* Tests oversubscribe on purpose: the production policy caps the
   worker count at the host cores (Pool.Team.with_team), which on a small
   CI host would silently turn every jobs=4 determinism property into a
   sequential run. Forcing the requested size keeps real multi-worker
   interleavings under test everywhere. *)
let cfg ?stats ?jobs ?node_limit ?max_tams ?tams ?initial_best ?carry_tau
    ?time_budget () =
  Rc.default
  |> Rc.with_oversubscribe true
  |> opt Rc.with_stats stats
  |> opt Rc.with_jobs jobs
  |> opt Rc.with_node_limit node_limit
  |> opt Rc.with_max_tams max_tams
  |> opt Rc.with_tams tams
  |> opt Rc.with_initial_best initial_best
  |> opt Rc.with_carry_tau carry_tau
  |> opt Rc.with_time_budget time_budget

(* The pipeline runners' table: [table], or one built here at
   [total_width]. *)
let co_table ?stats ?table soc ~total_width =
  match table with
  | Some t -> t
  | None -> Soctam_core.Time_table.build ?stats soc ~max_width:total_width

let co_run ?stats ?jobs ?table ?max_tams soc ~total_width =
  Co.run
    (cfg ?stats ?jobs ?max_tams ())
    ~table:(co_table ?stats ?table soc ~total_width)
    ~total_width

let co_run_fixed_tams ?stats ?jobs ?table soc ~total_width ~tams =
  Co.run
    (cfg ?stats ?jobs ~tams ())
    ~table:(co_table ?stats ?table soc ~total_width)
    ~total_width

let pe_run ?stats ?jobs ?initial_best ?carry_tau ~table ~total_width ~max_tams
    () =
  Pe.run_with
    (cfg ?stats ?jobs ?initial_best ?carry_tau ~max_tams ())
    ~table ~total_width

let pe_run_fixed ?stats ?jobs ?initial_best ~table ~total_width ~tams () =
  Pe.run_with (cfg ?stats ?jobs ?initial_best ~tams ()) ~table ~total_width

let ex_run ?stats ?jobs ?node_limit_per_partition ?time_budget ~table
    ~total_width ~tams () =
  Ex.run_with
    (cfg ?stats ?jobs ?node_limit:node_limit_per_partition ?time_budget ())
    ~table ~total_width ~tams

let sweep_run ?stats ?jobs ?max_tams soc ~widths =
  (Sw.run_with (cfg ?stats ?jobs ?max_tams ()) soc ~widths).Sw.points

let pack_run ?stats ?jobs ?max_tams ?tams ?initial_best ?time_budget ~table
    ~total_width () =
  Pk.run_with
    (cfg ?stats ?jobs ?max_tams ?tams ?initial_best ?time_budget ())
    ~table ~total_width

let anneal_run ?stats ?params ~table ~total_width ~max_tams () =
  An.run_with ?params (cfg ?stats ~max_tams ()) ~table ~total_width

(* The racing portfolio. [checkpoint_every] is the race's slice
   granularity (work units per engine grant); [slice_limit] truncates
   the race after that many grants with a resumable checkpoint in the
   outcome; [resume] continues one. *)
let race_run ?stats ?jobs ?max_tams ?tams ?checkpoint_every ?slice_limit
    ?resume ~engines ~table ~total_width () =
  let c = cfg ?stats ?jobs ?max_tams ?tams () in
  let c = opt Rc.with_checkpoint_every checkpoint_every c in
  let c = opt Rc.with_slice_limit slice_limit c in
  let c = opt Rc.with_resume resume c in
  Soctam_race.Race.run c ~engines ~table ~total_width

let engine name =
  match Soctam_race.Registry.find name with
  | Ok e -> e
  | Error msg -> failwith msg

let engines names = List.map engine names
