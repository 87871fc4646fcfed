(* Tests for the portfolio racer (lib/race): kill-and-resume
   determinism at every slice boundary, jobs=1 ≡ jobs=N byte-identity,
   the tau-sharing never-worse property against the committed solo
   golden, and first-proof early termination. *)

module Cp = Soctam_core.Checkpoint
module Rc = Soctam_core.Run_config
module Json = Soctam_util.Json
module Oc = Soctam_core.Outcome
module Tt = Soctam_core.Time_table
module Obs = Soctam_obs.Obs
module Race = Soctam_race.Race
module Registry = Soctam_race.Registry
module Pj = Soctam_report.Pack_json

let test case f = Alcotest.test_case case `Quick f

let d695 = Soctam_soc_data.D695.soc

let check_same_result ~msg (a : Race.result) (b : Race.result) =
  Alcotest.(check (array int)) (msg ^ ": widths") a.Race.widths b.Race.widths;
  Alcotest.(check int) (msg ^ ": time") a.Race.time b.Race.time;
  Alcotest.(check (array int))
    (msg ^ ": assignment") a.Race.assignment b.Race.assignment;
  Alcotest.(check (option string)) (msg ^ ": winner") a.Race.winner b.Race.winner;
  Alcotest.(check bool)
    (msg ^ ": proven") a.Race.proven_optimal b.Race.proven_optimal;
  Alcotest.(check int) (msg ^ ": rounds") a.Race.rounds b.Race.rounds;
  Alcotest.(check int) (msg ^ ": slices") a.Race.slices b.Race.slices;
  Alcotest.(check int) (msg ^ ": imports") a.Race.tau_imports b.Race.tau_imports;
  Alcotest.(check int) (msg ^ ": exports") a.Race.tau_exports b.Race.tau_exports;
  List.iter2
    (fun (x : Cp.race_slot) (y : Cp.race_slot) ->
      Alcotest.(check string) (msg ^ ": engine name") x.Cp.rs_engine y.Cp.rs_engine;
      Alcotest.(check bool) (msg ^ ": engine done") x.Cp.rs_done y.Cp.rs_done;
      Alcotest.(check bool)
        (msg ^ ": engine proved") x.Cp.rs_proved y.Cp.rs_proved;
      Alcotest.(check int)
        (msg ^ ": engine improvements") x.Cp.rs_improvements
        y.Cp.rs_improvements;
      Alcotest.(check int)
        (msg ^ ": engine slices") x.Cp.rs_slices y.Cp.rs_slices)
    a.Race.engines b.Race.engines

(* -- kill-and-resume determinism ------------------------------------------ *)

(* Truncate the race after [k] grants with [slice_limit], round-trip the
   checkpoint through its serialized form, resume to completion, and
   compare everything to the uninterrupted run — at every boundary the
   straight run has. *)
let resume_every_boundary () =
  let total_width = 12 in
  let table = Tt.build d695 ~max_width:total_width in
  let engines = Runners.engines [ "pe"; "pack" ] in
  let straight =
    Runners.race_run ~max_tams:3 ~checkpoint_every:2 ~engines ~table
      ~total_width ()
  in
  Alcotest.(check bool)
    "straight race completes" true
    (Oc.is_complete straight.Race.outcome);
  let boundaries = ref 0 in
  for k = 1 to straight.Race.slices - 1 do
    let truncated =
      Runners.race_run ~max_tams:3 ~checkpoint_every:2 ~slice_limit:k ~engines
        ~table ~total_width ()
    in
    match truncated.Race.outcome with
    | Oc.Complete -> ()
    | Oc.Interrupted _ -> Alcotest.fail "slice limit reported as interrupt"
    | Oc.Budget_exhausted token ->
        incr boundaries;
        let token =
          match Cp.of_string (Cp.to_string token) with
          | Ok t -> t
          | Error msg ->
              Alcotest.failf "race token did not round-trip: %s" msg
        in
        let resumed =
          Runners.race_run ~max_tams:3 ~checkpoint_every:2 ~resume:token
            ~engines ~table ~total_width ()
        in
        Alcotest.(check bool)
          "resumed race completes" true
          (Oc.is_complete resumed.Race.outcome);
        check_same_result
          ~msg:(Printf.sprintf "resume at grant %d" k)
          straight resumed
  done;
  Alcotest.(check bool)
    "exercised at least 3 boundaries" true (!boundaries >= 3)

(* -- jobs=1 ≡ jobs=N ------------------------------------------------------- *)

let jobs_byte_identity () =
  let total_width = 16 in
  let table = Tt.build d695 ~max_width:total_width in
  let engines = Runners.engines [ "pe"; "pack" ] in
  let stats = Obs.create () in
  let seq =
    Runners.race_run ~stats ~jobs:1 ~max_tams:10 ~checkpoint_every:500
      ~engines ~table ~total_width ()
  in
  let par =
    Runners.race_run ~jobs:4 ~max_tams:10 ~checkpoint_every:500 ~engines
      ~table ~total_width ()
  in
  check_same_result ~msg:"jobs=1 vs jobs=4" seq par;
  (* The obs counters mirror the result record. *)
  let snap = Obs.snapshot stats in
  let counter name =
    match List.assoc_opt name snap.Obs.counters with Some n -> n | None -> 0
  in
  Alcotest.(check int) "race/slices counter" seq.Race.slices
    (counter "race/slices");
  Alcotest.(check int) "race/tau_imports counter" seq.Race.tau_imports
    (counter "race/tau_imports");
  Alcotest.(check int) "race/tau_exports counter" seq.Race.tau_exports
    (counter "race/tau_exports")

(* -- tau sharing: never worse than the best solo engine ------------------- *)

(* The committed engine-comparison golden (test/data/pack_table.json)
   pins both engines' solo times on the 21-point (SOC, W) grid. A
   complete pe+pack race must never report a worse time than the best
   of the two: an imported bound only prunes candidates that could not
   have beaten it. *)
let never_worse_than_solo () =
  let committed =
    let ic = open_in_bin (Filename.concat "data" "pack_table.json") in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let rows =
    match Pj.parse committed with
    | Ok rows -> rows
    | Error msg -> Alcotest.failf "golden does not parse: %s" msg
  in
  Alcotest.(check int) "21-point grid" 21 (List.length rows);
  let socs =
    [
      ("d695", Soctam_soc_data.D695.soc);
      ("p21241", Soctam_soc_data.Philips.soc_p21241 ());
      ("p93791", Soctam_soc_data.Philips.soc_p93791 ());
    ]
  in
  let tables =
    List.map (fun (name, soc) -> (name, Tt.build soc ~max_width:64)) socs
  in
  let engines = Runners.engines [ "pe"; "pack" ] in
  List.iter
    (fun (row : Pj.row) ->
      let table = List.assoc row.Pj.soc tables in
      let race =
        Runners.race_run ~max_tams:10 ~checkpoint_every:2_000 ~engines ~table
          ~total_width:row.Pj.width ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s W=%d complete" row.Pj.soc row.Pj.width)
        true
        (Oc.is_complete race.Race.outcome);
      Alcotest.(check bool)
        (Printf.sprintf "%s W=%d: race %d <= best solo %d" row.Pj.soc
           row.Pj.width race.Race.time
           (min row.Pj.pe_tau row.Pj.pack_tau))
        true
        (race.Race.time <= min row.Pj.pe_tau row.Pj.pack_tau))
    rows

(* -- first-proof early termination ---------------------------------------- *)

let proof_terminates_early () =
  let total_width = 16 in
  let table = Tt.build d695 ~max_width:total_width in
  let engines = Runners.engines [ "exhaustive"; "pack" ] in
  (* One work unit per grant: the exhaustive baseline solves its 8
     fixed-B partitions long before the packer exhausts its rank space,
     so the proof must end the race with the packer still mid-space. *)
  let race =
    Runners.race_run ~tams:2 ~checkpoint_every:1 ~engines ~table ~total_width
      ()
  in
  Alcotest.(check bool) "complete" true (Oc.is_complete race.Race.outcome);
  Alcotest.(check bool) "proven optimal" true race.Race.proven_optimal;
  let slot name =
    List.find (fun sl -> sl.Cp.rs_engine = name) race.Race.engines
  in
  Alcotest.(check bool) "exhaustive proved" true (slot "exhaustive").Cp.rs_proved;
  Alcotest.(check bool)
    "pack was still racing when the proof landed" false
    (slot "pack").Cp.rs_done;
  (* The proven time is the solo exhaustive optimum. *)
  let solo = Runners.ex_run ~table ~total_width ~tams:2 () in
  Alcotest.(check int) "race time = exhaustive optimum"
    solo.Soctam_core.Exhaustive.time race.Race.time

(* -- tie import must not starve the pe polish ------------------------------ *)

(* The annealer can reach pe's heuristic optimum before pe does. A tie
   imported as a strict pruning cap would then cut every candidate of
   pe's own space, leaving its exact finish polish with no incumbent —
   and the race would end worse than pe run solo (42992 vs 42645 on
   this instance). Partition_evaluate therefore completes candidates
   that tie an imported bound (threshold cap + 1). *)
let tie_import_keeps_polish () =
  let total_width = 16 in
  let table = Tt.build d695 ~max_width:total_width in
  let engines = Runners.engines [ "pe"; "pack"; "anneal" ] in
  let race = Runners.race_run ~max_tams:10 ~engines ~table ~total_width () in
  let solo =
    Soctam_core.Engine.run (Runners.engine "pe")
      (Runners.cfg ~max_tams:10 ())
      { Soctam_core.Engine.table; total_width }
  in
  Alcotest.(check bool) "complete" true (Oc.is_complete race.Race.outcome);
  Alcotest.(check bool)
    (Printf.sprintf "race %d <= pe solo %d" race.Race.time
       solo.Soctam_core.Engine.r_time)
    true
    (race.Race.time <= solo.Soctam_core.Engine.r_time)

(* -- portfolio validation -------------------------------------------------- *)

let bad_portfolios_rejected () =
  let table = Tt.build d695 ~max_width:10 in
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Race.result) -> Alcotest.fail "invalid portfolio accepted"
  in
  (* Empty, duplicate, caps mismatches. *)
  invalid (fun () ->
      Runners.race_run ~engines:[] ~table ~total_width:10 ());
  invalid (fun () ->
      Runners.race_run
        ~engines:(Runners.engines [ "pe"; "pe" ])
        ~table ~total_width:10 ());
  invalid (fun () ->
      (* exhaustive needs a fixed TAM count. *)
      Runners.race_run
        ~engines:(Runners.engines [ "exhaustive" ])
        ~max_tams:3 ~table ~total_width:10 ());
  invalid (fun () ->
      (* the annealer refuses one. *)
      Runners.race_run
        ~engines:(Runners.engines [ "anneal" ])
        ~tams:2 ~table ~total_width:10 ());
  match Registry.parse "pe,nope" with
  | Ok _ -> Alcotest.fail "unknown engine accepted"
  | Error msg ->
      Alcotest.(check bool)
        "error names the unknown engine" true
        (String.length msg > 0)

(* -- slot tokens ----------------------------------------------------------- *)

let slot_engines () = Runners.engines [ "pe"; "pack"; "anneal" ]

(* The checkpoint of a pe, pack, anneal race on d695 (W = 12) stopped
   after its first round of three grants. *)
let first_round_token table =
  match
    (Runners.race_run ~max_tams:3 ~checkpoint_every:2 ~slice_limit:3
       ~engines:(slot_engines ()) ~table ~total_width:12 ())
      .Race.outcome
  with
  | Oc.Budget_exhausted t -> t
  | _ -> Alcotest.fail "a 3-grant limit did not truncate the race"

(* [token] with [engine]'s slot body mapped by [f]. *)
let patch_slot engine f token =
  let patch (sl : Cp.race_slot) =
    match sl.Cp.rs_token with
    | Some ({ Cp.state = Cp.Token { engine = e; body }; _ } as t)
      when sl.Cp.rs_engine = engine ->
        let state = Cp.Token { engine = e; body = f body } in
        { sl with Cp.rs_token = Some { t with Cp.state } }
    | _ -> sl
  in
  match token.Cp.state with
  | Cp.Race r ->
      let ra_slots = List.map patch r.Cp.ra_slots in
      { token with Cp.state = Cp.Race { r with Cp.ra_slots } }
  | Cp.Token _ -> Alcotest.fail "not a race token"

(* An object with the integer [field] mapped by [f]; [what] names it. *)
let patch_int what field f = function
  | Json.Obj members ->
      let is_field = function k, Json.Int _ -> k = field | _ -> false in
      if not (List.exists is_field members) then
        Alcotest.failf "%s has no integer %s" what field;
      Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | Json.Int n when k = field -> (k, Json.Int (f n))
             | _ -> (k, v))
           members)
  | _ -> Alcotest.failf "%s is not an object" what

(* Each [(what, mentions, bad)] race document, saved with a valid (re-checksummed)
   envelope, is rejected with a message containing [mentions] when the
   race is restored: before the first grant polls [cancel], and before
   anything rewrites the checkpoint file. *)
let rejected_before_first_grant table cases =
  List.iter
    (fun (what, mentions, bad) ->
      let path = Filename.temp_file "race_ckpt" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Cp.save path bad with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "save failed: %s" msg);
          let before = In_channel.with_open_bin path In_channel.input_all in
          let bad =
            match Cp.load path with
            | Ok t -> t
            | Error msg -> Alcotest.failf "%s: envelope rejected: %s" what msg
          in
          let polled = ref false in
          let cfg =
            Runners.cfg ~max_tams:3 ()
            |> Rc.with_checkpoint_every 2 |> Rc.with_checkpoint path
            |> Rc.with_resume bad
            |> Rc.with_cancel (fun () ->
                   polled := true;
                   false)
          in
          (match
             Race.run cfg ~engines:(slot_engines ()) ~table ~total_width:12
           with
          | exception Invalid_argument msg ->
              if not (Test_cli.contains msg mentions) then
                Alcotest.failf "%s: rejected with %S, expected %S" what msg
                  mentions
          | (_ : Race.result) -> Alcotest.failf "%s: race resumed" what);
          Alcotest.(check bool) (what ^ ": no grant ran") false !polled;
          Alcotest.(check string)
            (what ^ ": checkpoint file untouched") before
            (In_channel.with_open_bin path In_channel.input_all)))
    cases

(* A slot body that breaks its engine's invariant. *)
let bad_slot_body_rejected () =
  let table = Tt.build d695 ~max_width:12 in
  let token = first_round_token table in
  rejected_before_first_grant table
    [
      ( "anneal accepted > proposed",
        "accepted exceeds proposed",
        patch_slot "anneal"
          (patch_int "anneal slot body" "accepted" (fun n -> n + 1_000_000))
          token );
      ( "pack candidates <> pruned + evaluated",
        "candidates = pruned + evaluated",
        patch_slot "pack"
          (patch_int "pack slot body" "pruned" (fun n -> n + 1))
          token );
    ]

(* A slot incumbent whose time is not its architecture's: the second
   slot's is checked against the instance before the first slot is
   granted. *)
let forged_slot_incumbent_rejected () =
  let table = Tt.build d695 ~max_width:12 in
  let forge_best = function
    | Json.Obj members ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "best" then
                 (k, patch_int "pack slot incumbent" "time" (fun t -> t - 1) v)
               else (k, v))
             members)
    | _ -> Alcotest.fail "pack slot body is not an object"
  in
  rejected_before_first_grant table
    [
      ( "pack incumbent time forged",
        "checkpoint incumbent: time",
        patch_slot "pack" forge_best (first_round_token table) );
    ]

(* A budget spent before the first grant leaves nothing to report but
   the even split over the first permitted TAM count, which proves
   nothing and names no winner. *)
let zero_budget_fallback () =
  let table = Tt.build d695 ~max_width:32 in
  let race cfg names =
    Race.run
      (Rc.with_time_budget 0. cfg)
      ~engines:(Runners.engines names) ~table ~total_width:32
  in
  List.iter
    (fun (what, (r : Race.result), widths, time) ->
      Alcotest.(check (array int)) (what ^ ": widths") widths r.Race.widths;
      Alcotest.(check int) (what ^ ": time") time r.Race.time;
      Alcotest.(check (option string)) (what ^ ": winner") None r.Race.winner;
      Alcotest.(check bool) (what ^ ": proven") false r.Race.proven_optimal;
      Alcotest.(check bool)
        (what ^ ": budget exhausted")
        true
        (match r.Race.outcome with
        | Oc.Budget_exhausted _ -> true
        | Oc.Complete | Oc.Interrupted _ -> false);
      Alcotest.(check int) (what ^ ": slices") 0 r.Race.slices)
    [
      ( "pe,pack,anneal",
        race Rc.default [ "pe"; "pack"; "anneal" ],
        [| 32 |],
        37327 );
      ( "pe,pack at 3 TAMs",
        race (Rc.with_tams 3 Rc.default) [ "pe"; "pack" ],
        [| 11; 11; 10 |],
        25854 );
    ]

let suite =
  [
    test "race: kill and resume at every slice boundary" resume_every_boundary;
    test "race: jobs=1 = jobs=4, counters mirrored" jobs_byte_identity;
    test "race: never worse than best solo engine (21-point grid)"
      never_worse_than_solo;
    test "race: first proof terminates the portfolio" proof_terminates_early;
    test "race: a tie import cannot starve the pe polish"
      tie_import_keeps_polish;
    test "race: invalid portfolios rejected" bad_portfolios_rejected;
    test "race: a bad slot body is rejected before the first grant"
      bad_slot_body_rejected;
    test "race: a forged slot incumbent is rejected before the first grant"
      forged_slot_incumbent_rejected;
    test "race: a zero budget falls back to the even split"
      zero_budget_fallback;
  ]
