(* Tests for Soctam_anneal: the simulated-annealing P_NPAW optimizer. *)

module Sa = Soctam_anneal.Annealer
module Tt = Soctam_core.Time_table
module Rc = Soctam_core.Run_config
module Cp = Soctam_core.Checkpoint
module Json = Soctam_util.Json

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

let quick_params seed =
  { Sa.default_params with Sa.iterations = 15_000; seed }

let result_is_consistent =
  QCheck.Test.make ~name:"annealer: result invariants" ~count:15
    QCheck.(int_range 1 300)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let r =
        Runners.anneal_run
          ~params:(quick_params (Int64.of_int seed))
          ~table ~total_width:12 ~max_tams:4 ()
      in
      let tams = Array.length r.Sa.widths in
      tams >= 1 && tams <= 4
      && Soctam_util.Intutil.sum r.Sa.widths = 12
      && Array.for_all (fun w -> w >= 1) r.Sa.widths
      && Array.for_all (fun j -> j >= 0 && j < tams) r.Sa.assignment
      && r.Sa.time
         = Soctam_ilp.Exact.makespan
             ~times:(Tt.matrix table ~widths:r.Sa.widths)
             ~assignment:r.Sa.assignment
      && r.Sa.accepted <= r.Sa.proposed)

let deterministic_given_seed () =
  let soc = small_soc 77L ~cores:6 in
  let table = Tt.build soc ~max_width:10 in
  let run () =
    Runners.anneal_run ~params:(quick_params 5L) ~table ~total_width:10 ~max_tams:4 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same time" a.Sa.time b.Sa.time;
  Alcotest.(check (list int)) "same widths" (Array.to_list a.Sa.widths)
    (Array.to_list b.Sa.widths)

let improves_on_single_tam =
  QCheck.Test.make ~name:"annealer: never worse than the starting point"
    ~count:15
    QCheck.(int_range 1 300)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:6 in
      let table = Tt.build soc ~max_width:12 in
      let single =
        match
          Soctam_core.Core_assign.run_table ~table ~widths:[| 12 |] ()
        with
        | Soctam_core.Core_assign.Assigned { time; _ } -> time
        | Soctam_core.Core_assign.Exceeded _ -> assert false
      in
      let r =
        Runners.anneal_run
          ~params:(quick_params (Int64.of_int (seed * 3)))
          ~table ~total_width:12 ~max_tams:4 ()
      in
      r.Sa.time <= single)

let never_beats_global_optimum =
  QCheck.Test.make ~name:"annealer: bounded below by the exhaustive optimum"
    ~count:6
    QCheck.(int_range 1 100)
    (fun seed ->
      let soc = small_soc (Int64.of_int seed) ~cores:5 in
      let table = Tt.build soc ~max_width:8 in
      let optimum =
        List.fold_left
          (fun acc tams ->
            let e =
              Runners.ex_run ~table ~total_width:8 ~tams ()
            in
            min acc e.Soctam_core.Exhaustive.time)
          max_int [ 1; 2; 3 ]
      in
      let r =
        Runners.anneal_run
          ~params:(quick_params (Int64.of_int seed))
          ~table ~total_width:8 ~max_tams:3 ()
      in
      r.Sa.time >= optimum)

let validation () =
  let soc = small_soc 9L ~cores:4 in
  let table = Tt.build soc ~max_width:6 in
  (match Runners.anneal_run ~table ~total_width:10 ~max_tams:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "narrow table accepted");
  match Runners.anneal_run ~table ~total_width:6 ~max_tams:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_tams 0 accepted"

let single_tam_degenerate () =
  let soc = small_soc 10L ~cores:4 in
  let table = Tt.build soc ~max_width:6 in
  let r =
    Runners.anneal_run ~params:(quick_params 1L) ~table ~total_width:6 ~max_tams:1 ()
  in
  Alcotest.(check (list int)) "single full-width TAM" [ 6 ]
    (Array.to_list r.Sa.widths)

(* -- trajectory pins -------------------------------------------------------- *)

(* The walk is a pure function of (table, width, max_tams, params): the
   same rng draws, the same accept decisions, the same best architecture.
   These pins hold the step loop to that trajectory, figure for figure:
   the mid-walk token (rng word and temperature as raw-bit hex), the
   uninterrupted result, and the result of resuming that token. *)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let summary r =
  Printf.sprintf "time %d, %d/%d accepted, widths %s, assignment %s" r.Sa.time
    r.Sa.accepted r.Sa.proposed (ints r.Sa.widths) (ints r.Sa.assignment)

let pin_trajectory ~soc ~total_width ~max_tams ~params ~every ~stop_after ~mid
    ~final () =
  let table = Tt.build soc ~max_width:total_width in
  let cfg =
    Rc.default |> Rc.with_max_tams max_tams |> Rc.with_checkpoint_every every
  in
  let straight = Sa.run_with ~params cfg ~table ~total_width in
  Alcotest.(check string) "uninterrupted walk" final (summary straight);
  let cut =
    Sa.run_with ~params (Rc.with_slice_limit stop_after cfg) ~table
      ~total_width
  in
  let token =
    match cut.Sa.outcome with
    | Soctam_core.Outcome.Budget_exhausted cp -> (
        match Cp.of_string (Cp.to_string cp) with
        | Ok cp -> cp
        | Error msg -> Alcotest.failf "token did not round-trip: %s" msg)
    | _ -> Alcotest.fail "the walk ended before its slice limit"
  in
  let hex name =
    match token.Cp.state with
    | Cp.Token { body; _ } -> (
        match Cp.field name body with
        | Json.String s -> s
        | _ -> Alcotest.failf "token field %s is not a string" name)
    | Cp.Race _ -> Alcotest.fail "not an annealer token"
  in
  Alcotest.(check string) "mid-walk token" mid
    (Printf.sprintf "rng %s, temperature %s, %d/%d accepted" (hex "rng")
       (hex "temperature") cut.Sa.accepted cut.Sa.proposed);
  let resumed =
    Sa.run_with ~params (Rc.with_resume token cfg) ~table ~total_width
  in
  Alcotest.(check string) "resumed walk" final (summary resumed)

let pin_d695 =
  pin_trajectory ~soc:Soctam_soc_data.D695.soc ~total_width:32 ~max_tams:8
    ~params:Sa.default_params ~every:10_000 ~stop_after:3
    ~mid:
      "rng b58dfce884f758ca, temperature 408a06c612ba45b4, 6213/16543 \
       accepted"
    ~final:
      "time 21566, 10479/67942 accepted, widths 4,18,10, assignment \
       2,2,0,0,1,1,1,0,0,2"

let pin_p93791 =
  pin_trajectory
    ~soc:(Soctam_soc_data.Philips.soc_p93791 ())
    ~total_width:64 ~max_tams:10 ~params:Sa.default_params ~every:10_000
    ~stop_after:6
    ~mid:
      "rng f0f319cb3dfe0ecd, temperature 40d327876c5b2565, 23952/40351 \
       accepted"
    ~final:
      "time 1647560, 33907/70148 accepted, widths 12,37,14,1, assignment \
       2,0,2,1,0,2,1,2,1,2,0,2,2,1,1,1,1,1,0,2,1,2,0,0,2,0,0,2,0,3,0,0"

let pin_random =
  pin_trajectory ~soc:(small_soc 42L ~cores:12) ~total_width:24 ~max_tams:6
    ~params:
      { Sa.default_params with Sa.iterations = 30_000; cooling = 0.9995; seed = 7L }
    ~every:1_000 ~stop_after:7
    ~mid:
      "rng 625e0533ccc375e4, temperature 403e3066a1d8cff7, 2561/5372 \
       accepted"
    ~final:
      "time 1931, 5883/22981 accepted, widths 2,5,3,3,6,5, assignment \
       3,5,1,0,0,4,2,5,4,1,4,5"

let suite =
  [
    qtest result_is_consistent;
    test "annealer: deterministic" deterministic_given_seed;
    qtest improves_on_single_tam;
    qtest never_beats_global_optimum;
    test "annealer: validation" validation;
    test "annealer: max_tams = 1" single_tam_degenerate;
    test "annealer: trajectory pin, d695 W=32" pin_d695;
    test "annealer: trajectory pin, p93791 W=64" pin_p93791;
    test "annealer: trajectory pin, random SOC resumed mid-walk" pin_random;
  ]
