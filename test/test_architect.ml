(* Tests for Soctam_architect.Tr_architect.climb: the hill climb that
   polishes the racing portfolio's winner, seeded here from even width
   splits and from Partition_evaluate's partition. *)

module Tr = Soctam_architect.Tr_architect
module Tt = Soctam_core.Time_table

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let small_soc seed ~cores =
  let rng = Soctam_util.Prng.create seed in
  Soctam_soc_data.Random_soc.generate rng
    {
      Soctam_soc_data.Random_soc.default_params with
      Soctam_soc_data.Random_soc.cores;
      max_ios = 40;
      max_patterns = 100;
      max_chains = 4;
      max_chain_length = 30;
    }

(* [total] split as evenly as possible over [tams] TAMs. *)
let even_split ~total ~tams =
  Array.init tams (fun i ->
      (total / tams) + if i < total mod tams then 1 else 0)

let pe_seed ~table ~total_width ~max_tams =
  (Runners.pe_run ~table ~total_width ~max_tams ())
    .Soctam_core.Partition_evaluate.widths

(* The seeds every property climbs from: each even split up to
   [max_tams] TAMs, then the partition search's winner. *)
let seeds ~table ~total_width ~max_tams =
  List.init (min max_tams total_width) (fun i ->
      even_split ~total:total_width ~tams:(i + 1))
  @ [ pe_seed ~table ~total_width ~max_tams ]

let seed_time ~table widths =
  match Soctam_core.Core_assign.run_table ~table ~widths () with
  | Soctam_core.Core_assign.Assigned { time; _ } -> time
  | Soctam_core.Core_assign.Exceeded _ -> max_int

let result_invariants =
  QCheck.Test.make ~name:"tr: result invariants" ~count:25
    QCheck.(pair (int_range 1 300) (int_range 4 14))
    (fun (seed, total_width) ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:total_width in
      List.for_all
        (fun widths ->
          let r = Tr.climb ~max_tams:4 ~table ~widths () in
          let tams = Array.length r.Tr.widths in
          tams >= 1 && tams <= 4
          && Soctam_util.Intutil.sum r.Tr.widths = total_width
          && Array.for_all (fun w -> w >= 1) r.Tr.widths
          && Array.for_all (fun j -> j >= 0 && j < tams) r.Tr.assignment
          && r.Tr.time
             = Soctam_ilp.Exact.makespan
                 ~times:(Tt.matrix table ~widths:r.Tr.widths)
                 ~assignment:r.Tr.assignment
          && r.Tr.moves_accepted <= r.Tr.moves_tried)
        (seeds ~table ~total_width ~max_tams:4))

let never_beats_global_optimum =
  QCheck.Test.make ~name:"tr: bounded below by the exhaustive optimum"
    ~count:6
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:8 in
      let optimum =
        List.fold_left
          (fun acc tams ->
            min acc
              (Runners.ex_run ~table ~total_width:8 ~tams ())
                .Soctam_core.Exhaustive.time)
          max_int [ 1; 2; 3 ]
      in
      List.for_all
        (fun widths ->
          (Tr.climb ~max_tams:3 ~table ~widths ()).Tr.time >= optimum)
        (seeds ~table ~total_width:8 ~max_tams:3))

(* The property [soctam race] relies on when it polishes its winner:
   the climb only ever accepts improving moves. Seeds are arbitrary
   compositions of the width, not just the even ones. *)
let never_worse_than_seed =
  QCheck.Test.make ~name:"tr: climb never worse than its seed" ~count:40
    QCheck.(
      pair (int_range 1 300)
        (list_of_size Gen.(int_range 1 5) (int_range 1 6)))
    (fun (seed, widths) ->
      let widths = Array.of_list widths in
      let total_width = Soctam_util.Intutil.sum widths in
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:total_width in
      (Tr.climb ~max_tams:4 ~table ~widths ()).Tr.time
      <= seed_time ~table widths)

let close_to_partition_evaluate =
  (* Quality tripwire: the best climb from an even split lands within
     25% of Partition_evaluate on small SOCs. *)
  QCheck.Test.make ~name:"tr: within 25% of Partition_evaluate" ~count:12
    QCheck.(int_range 1 200)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let best =
        List.fold_left
          (fun acc tams ->
            min acc
              (Tr.climb ~max_tams:4 ~table
                 ~widths:(even_split ~total:12 ~tams) ())
                .Tr.time)
          max_int [ 1; 2; 3; 4 ]
      in
      let pe = Runners.pe_run ~table ~total_width:12 ~max_tams:4 () in
      float_of_int best
      <= 1.25 *. float_of_int pe.Soctam_core.Partition_evaluate.time)

let deterministic () =
  let soc = small_soc 50L ~cores:6 in
  let table = Tt.build soc ~max_width:10 in
  List.iter
    (fun widths ->
      let a = Tr.climb ~table ~widths () in
      let b = Tr.climb ~table ~widths () in
      Alcotest.(check int) "same time" a.Tr.time b.Tr.time;
      Alcotest.(check (list int)) "same widths" (Array.to_list a.Tr.widths)
        (Array.to_list b.Tr.widths);
      Alcotest.(check (list int)) "same assignment"
        (Array.to_list a.Tr.assignment)
        (Array.to_list b.Tr.assignment))
    (seeds ~table ~total_width:10 ~max_tams:10)

let validation () =
  let soc = small_soc 51L ~cores:4 in
  let table = Tt.build soc ~max_width:6 in
  let rejects what ?max_tams widths =
    match Tr.climb ?max_tams ~table ~widths () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "empty seed" [||];
  rejects "zero width" [| 3; 0 |];
  rejects "negative width" [| 4; -1 |];
  rejects "max_tams 0" ~max_tams:0 [| 3; 3 |];
  rejects "narrow table" [| 4; 4 |]

let single_tam_trivial () =
  let soc = small_soc 52L ~cores:4 in
  let table = Tt.build soc ~max_width:6 in
  let r = Tr.climb ~max_tams:1 ~table ~widths:[| 6 |] () in
  Alcotest.(check (list int)) "one TAM" [ 6 ] (Array.to_list r.Tr.widths);
  Alcotest.(check int) "seed time kept"
    (seed_time ~table [| 6 |])
    r.Tr.time

let suite =
  [
    qtest result_invariants;
    qtest never_beats_global_optimum;
    qtest close_to_partition_evaluate;
    qtest never_worse_than_seed;
    test "tr: deterministic" deterministic;
    test "tr: validation" validation;
    test "tr: single TAM" single_tam_trivial;
  ]
