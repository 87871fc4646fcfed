(* Tests for the run lifecycle: checkpoint envelopes (round-trip,
   strict rejection of damaged files), the engine-owned token bodies
   (rejected by their engine at the start of a resume), the Run_config
   surface, and the kill-and-resume determinism invariant — a run
   interrupted at any slice boundary and resumed from its checkpoint
   must reproduce the uninterrupted run's architecture and counter
   totals. *)

module Cp = Soctam_core.Checkpoint
module Rc = Soctam_core.Run_config
module Oc = Soctam_core.Outcome
module Pe = Soctam_core.Partition_evaluate
module Ex = Soctam_core.Exhaustive
module Sw = Soctam_core.Sweep
module Tt = Soctam_core.Time_table
module An = Soctam_anneal.Annealer
module Json = Soctam_util.Json
module Obs = Soctam_obs.Obs

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

let small_soc seed ~cores =
  let rng = Soctam_util.Prng.create seed in
  Soctam_soc_data.Random_soc.generate rng
    {
      Soctam_soc_data.Random_soc.default_params with
      Soctam_soc_data.Random_soc.cores;
      max_ios = 60;
      max_patterns = 200;
      max_chains = 6;
      max_chain_length = 50;
    }

let has_sub s sub =
  let n = String.length sub in
  let ok = ref false in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then ok := true
  done;
  !ok

(* -- fixtures from real engine runs ---------------------------------------- *)

(* The engines own their token bodies, so every fixture is a token an
   engine wrote: a run stopped by [cancel] after [k] boundary polls (a
   never-reached budget turns slicing on), or by a slice limit. *)
let cancel_after k =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls > k

let token_of = function
  | Oc.Complete -> Alcotest.fail "the run completed before its interrupt"
  | Oc.Budget_exhausted t | Oc.Interrupted t -> t

let table = lazy (Tt.build (small_soc 7L ~cores:5) ~max_width:12)

let sliced ?(k = 4) cfg =
  cfg |> Rc.with_soc_name "small" |> Rc.with_checkpoint_every 3
  |> Rc.with_time_budget 3600.
  |> Rc.with_stats (Obs.create ())
  |> Rc.with_cancel (cancel_after k)

(* Mid-plan: finished TAM counts, a partial cursor, pending ones. *)
let pe_doc =
  lazy
    (token_of
       (Pe.run_with
          (sliced (Rc.default |> Rc.with_max_tams 4))
          ~table:(Lazy.force table) ~total_width:12)
         .Pe.outcome)

let ex_doc =
  lazy
    (token_of
       (Ex.run_with (sliced ~k:2 Rc.default) ~table:(Lazy.force table)
          ~total_width:12 ~tams:3)
         .Ex.outcome)

(* Truncated inside its first width: carries that width's [pe] token. *)
let sw_doc =
  lazy
    (token_of
       (Sw.run_with
          (Rc.default |> Rc.with_max_tams 3 |> Rc.with_slice_limit 1)
          (small_soc 5L ~cores:4) ~widths:[ 6; 8; 10 ])
         .Sw.outcome)

let anneal_params =
  { An.default_params with An.iterations = 2_000; cooling = 0.995 }

let an_doc =
  lazy
    (token_of
       (An.run_with ~params:anneal_params
          (sliced (Rc.default |> Rc.with_max_tams 4))
          ~table:(Lazy.force table) ~total_width:12)
         .An.outcome)

(* A race document embedding full engine tokens: restoring the race is
   restoring every engine at once. *)
let race_doc =
  lazy
    (token_of
       (Runners.race_run ~max_tams:4 ~checkpoint_every:3 ~slice_limit:3
          ~engines:(Runners.engines [ "pe"; "anneal" ])
          ~table:(Lazy.force table) ~total_width:12 ())
         .Soctam_race.Race.outcome)

(* A copy of [doc] whose engine body went through [f]. The copy is a
   valid envelope (the checksum is computed on rendering); only the
   owning engine can tell a broken body. *)
let with_body doc f =
  match doc.Cp.state with
  | Cp.Token { engine; body } ->
      { doc with Cp.state = Cp.Token { engine; body = f body } }
  | Cp.Race _ -> Alcotest.fail "not a leaf token"

let set_field name value = function
  | Json.Obj members ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = name then (k, value) else (k, v))
           members)
  | _ -> Alcotest.fail "not a JSON object"

let rejected_with ~msg ~mentions f =
  match f () with
  | exception Invalid_argument m ->
      if not (has_sub m mentions) then
        Alcotest.failf "%s: rejected for the wrong reason: %s" msg m
  | _ -> Alcotest.failf "%s: accepted" msg

(* -- document round-trip --------------------------------------------------- *)

let round_trip doc () =
  let doc = Lazy.force doc in
  match Cp.of_string (Cp.to_string doc) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok doc' ->
      (* The rendering is canonical, so equality of documents is
         equality of their renderings. *)
      Alcotest.(check string)
        "canonical rendering survives" (Cp.to_string doc) (Cp.to_string doc')

let describe_mentions_solver () =
  let describe doc = Cp.describe (Lazy.force doc) in
  Alcotest.(check bool)
    "pe describe names the engine and the SOC" true
    (has_sub (describe pe_doc) "pe" && has_sub (describe pe_doc) "small");
  Alcotest.(check bool)
    "exhaustive describe names the solver" true
    (has_sub (describe ex_doc) "exhaustive");
  Alcotest.(check bool)
    "sweep describe names the solver" true
    (has_sub (describe sw_doc) "sweep");
  Alcotest.(check bool)
    "anneal describe names the solver" true
    (has_sub (describe an_doc) "anneal");
  Alcotest.(check bool)
    "race describe names the portfolio" true
    (has_sub (describe race_doc) "race" && has_sub (describe race_doc) "pe")

(* A behaviour pin for the annealer's raw-bits codec: the rng word and
   the temperature schedule must survive serialization exactly, or the
   resumed walk leaves the interrupted trajectory and ends elsewhere. *)
let anneal_bits_exact () =
  let table = Lazy.force table in
  let base = Rc.default |> Rc.with_max_tams 4 |> Rc.with_checkpoint_every 7 in
  let straight =
    An.run_with ~params:anneal_params base ~table ~total_width:12
  in
  List.iter
    (fun k ->
      let interrupted =
        An.run_with ~params:anneal_params
          (base |> Rc.with_time_budget 3600. |> Rc.with_cancel (cancel_after k))
          ~table ~total_width:12
      in
      let token =
        match Cp.of_string (Cp.to_string (token_of interrupted.An.outcome)) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "anneal token did not round-trip: %s" msg
      in
      let resumed =
        An.run_with ~params:anneal_params (Rc.with_resume token base) ~table
          ~total_width:12
      in
      let msg = Printf.sprintf "resume at boundary %d" k in
      Alcotest.(check (array int))
        (msg ^ ": widths") straight.An.widths resumed.An.widths;
      Alcotest.(check (array int))
        (msg ^ ": assignment") straight.An.assignment resumed.An.assignment;
      Alcotest.(check int) (msg ^ ": time") straight.An.time resumed.An.time;
      Alcotest.(check int)
        (msg ^ ": accepted") straight.An.accepted resumed.An.accepted;
      Alcotest.(check int)
        (msg ^ ": proposed") straight.An.proposed resumed.An.proposed)
    [ 1; 17; 140 ]

let race_tokens_embedded () =
  (* The embedded engine tokens are complete documents: restoring the
     race restores every engine. *)
  let doc = Lazy.force race_doc in
  let slot_tokens = function
    | { Cp.state = Cp.Race s; _ } ->
        List.map
          (fun sl -> Option.map Cp.to_string sl.Cp.rs_token)
          s.Cp.ra_slots
    | _ -> Alcotest.fail "not a race token"
  in
  match Cp.of_string (Cp.to_string doc) with
  | Error msg -> Alcotest.failf "race round-trip rejected: %s" msg
  | Ok doc' -> (
      match slot_tokens doc' with
      | [ Some _; Some _ ] as tokens ->
          Alcotest.(check (list (option string)))
            "pe and anneal tokens survive" (slot_tokens doc) tokens
      | _ -> Alcotest.fail "race slots lost their tokens")

let race_slice_total_rejected () =
  (* ra_slices must equal the slot sum; construction is unchecked, the
     strict reader must catch it. *)
  let doc = Lazy.force race_doc in
  let bad =
    match doc.Cp.state with
    | Cp.Race s -> { doc with Cp.state = Cp.Race { s with Cp.ra_slices = 99 } }
    | _ -> assert false
  in
  match Cp.of_string (Cp.to_string bad) with
  | Ok _ -> Alcotest.fail "broken race slice total accepted"
  | Error _ -> ()

(* Every other rule the race reader enforces, broken one at a time on a
   document the racer wrote: the envelope refuses it with an [Error], so
   a resumed race never runs from a state the racer could not have
   written. *)
let race_tampered ~mentions f () =
  let doc = Lazy.force race_doc in
  let bad =
    match doc.Cp.state with
    | Cp.Race s -> { doc with Cp.state = Cp.Race (f s) }
    | Cp.Token _ -> Alcotest.fail "not a race token"
  in
  match Cp.of_string (Cp.to_string bad) with
  | Ok _ -> Alcotest.failf "tampered race accepted (expected %S)" mentions
  | Error msg ->
      if not (has_sub msg mentions) then
        Alcotest.failf "rejected for the wrong reason: %s" msg

let first_slot f s =
  match s.Cp.ra_slots with
  | sl :: rest -> { s with Cp.ra_slots = f sl :: rest }
  | [] -> Alcotest.fail "race without slots"

let race_winner_without_incumbent () =
  let mentions = "winner and incumbent disagree" in
  race_tampered ~mentions (fun s -> { s with Cp.ra_best = None }) ();
  race_tampered ~mentions (fun s -> { s with Cp.ra_winner = None }) ()

(* The bound is the incumbent's time, or [max_int] without one: a
   bound alone would prune every candidate and complete on the
   even-split fallback. *)
let race_bound_off_incumbent () =
  let mentions = "is not its incumbent's time" in
  race_tampered ~mentions (fun s -> { s with Cp.ra_tau = max_int }) ();
  race_tampered ~mentions
    (fun s -> { s with Cp.ra_tau = 1; ra_best = None; ra_winner = None })
    ()

(* Documents in the format written before the ["initial"] seed field
   was dropped: a pe, a pack and a pe,pack race checkpoint of d695 at
   W = 24, P_NPAW up to 4 TAMs, each taken mid-run (slice limits 5, 3
   and 3) by that build. Their bodies carry ["initial": null]; the
   decoders read fields by name, so the documents still load and resume
   to the uninterrupted answer. *)
let previous_format_resumes () =
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:24 in
  let pe cfg =
    let r = Pe.run_with cfg ~table ~total_width:24 in
    (r.Pe.widths, r.Pe.time, r.Pe.assignment, r.Pe.outcome)
  in
  let pack cfg =
    let module Pk = Soctam_pack.Pack_engine in
    let r = Pk.run_with cfg ~table ~total_width:24 in
    (r.Pk.widths, r.Pk.time, r.Pk.assignment, r.Pk.outcome)
  in
  let race cfg =
    let module Race = Soctam_race.Race in
    let r =
      Race.run cfg ~engines:(Runners.engines [ "pe"; "pack" ]) ~table
        ~total_width:24
    in
    (r.Race.widths, r.Race.time, r.Race.assignment, r.Race.outcome)
  in
  List.iter
    (fun (name, every, run) ->
      let doc =
        match
          Cp.load (Filename.concat "data" ("checkpoint_initial_" ^ name ^ ".json"))
        with
        | Ok doc -> doc
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      let cfg =
        Rc.default |> Rc.with_soc_name "d695" |> Rc.with_max_tams 4
        |> Rc.with_checkpoint_every every
      in
      let widths, time, assignment, outcome = run (Rc.with_resume doc cfg) in
      let s_widths, s_time, s_assignment, _ = run cfg in
      Alcotest.(check bool)
        (name ^ ": resumed to completion")
        true (Oc.is_complete outcome);
      Alcotest.(check (array int)) (name ^ ": widths") s_widths widths;
      Alcotest.(check int) (name ^ ": time") s_time time;
      Alcotest.(check (array int))
        (name ^ ": assignment") s_assignment assignment)
    [ ("pe", 40, pe); ("pack", 5, pack); ("race", 40, race) ]

let inner_token doc =
  match (Lazy.force doc).Cp.state with
  | Cp.Token { body; _ } -> Json.member "inner" body
  | Cp.Race _ -> None

let sweep_token_embedded () =
  (* The interrupted width's token is a complete [pe] document, like
     race slot tokens: restoring the sweep restores the width
     mid-search. *)
  match Cp.of_string (Cp.to_string (Lazy.force sw_doc)) with
  | Error msg -> Alcotest.failf "sweep round-trip rejected: %s" msg
  | Ok doc -> (
      match Option.map Cp.of_json (inner_token (lazy doc)) with
      | Some (Ok ({ Cp.state = Cp.Token { engine = "pe"; _ }; _ } as inner)) ->
          Alcotest.(check (option string))
            "inner token survives"
            (Option.map Json.to_string (inner_token sw_doc))
            (Some (Json.to_string (Cp.to_json inner)))
      | Some (Ok _) -> Alcotest.fail "sweep inner token is not a pe token"
      | Some (Error msg) -> Alcotest.failf "sweep inner token: %s" msg
      | None -> Alcotest.fail "sweep lost its inner token")

(* Rejected by the sweep's own decoder when the sweep resumes — the
   envelope alone is valid. *)
let sweep_token_invariants_rejected () =
  let doc = Lazy.force sw_doc in
  let resume bad () =
    (match Cp.of_string (Cp.to_string bad) with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "envelope rejected: %s" msg);
    Sw.run_with
      (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume bad)
      (small_soc 5L ~cores:4) ~widths:[ 6; 8; 10 ]
  in
  (* An inner token makes no sense once every width completed. *)
  rejected_with ~msg:"inner token without a pending width"
    ~mentions:"without a pending width"
    (resume (with_body doc (set_field "pending" (Json.List []))));
  (* Sweeps must not nest: the inner token belongs to the per-width
     [pe] search. *)
  rejected_with ~msg:"nested sweep token" ~mentions:"different solver (sweep)"
    (resume (with_body doc (set_field "inner" (Cp.to_json doc))))

(* -- strict rejection ------------------------------------------------------ *)

let stale_version_rejected () =
  let json =
    set_field "version"
      (Json.Int (Cp.version + 1))
      (Cp.to_json (Lazy.force pe_doc))
  in
  match Cp.of_json json with
  | Ok _ -> Alcotest.fail "stale version accepted"
  | Error _ -> ()

(* A document written by the previous schema (version 1, with the
   closed per-engine state variant) is refused by its version alone. *)
let v1_document_rejected () =
  let doc =
    In_channel.with_open_bin
      (Filename.concat "data" "checkpoint_v1.json")
      In_channel.input_all
  in
  match Cp.of_string doc with
  | Ok _ -> Alcotest.fail "version 1 document accepted"
  | Error msg ->
      Alcotest.(check bool)
        ("version error: " ^ msg) true
        (has_sub msg "version 1 is not supported")

let checksum_mismatch_rejected () =
  let json =
    set_field "checksum"
      (Json.String "0000000000000000")
      (Cp.to_json (Lazy.force pe_doc))
  in
  match Cp.of_json json with
  | Ok _ -> Alcotest.fail "bad checksum accepted"
  | Error _ -> ()

let cursor_invariant_rejected () =
  (* completed + pruned <> enumerated: the envelope carries the body
     unread, the pe decoder must catch it when the run resumes. *)
  let cursor =
    Json.Obj
      [
        ("tams", Json.Int 2);
        ("next_rank", Json.Int 4);
        ("enumerated", Json.Int 4);
        ("completed", Json.Int 3);
        ("pruned", Json.Int 2);
        ("best_time", Json.Null);
      ]
  in
  let bad =
    with_body (Lazy.force pe_doc) (fun _ ->
        (* The body keeps the ["initial"] field of the previous format
           on purpose: the decoder reads fields by name, so an old body
           still decodes and the cursor check is what rejects it. *)
        Json.Obj
          [
            ("total_width", Json.Int 12);
            ("carry_tau", Json.Bool true);
            ("initial", Json.Null);
            ("tau", Json.Int max_int);
            ("best", Json.Null);
            ("done", Json.List []);
            ("cursor", cursor);
            ("pending", Json.List []);
          ])
  in
  (match Cp.of_string (Cp.to_string bad) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "envelope rejected: %s" msg);
  let mentions = "breaks enumerated = pruned + evaluated" in
  let cfg = Rc.default |> Rc.with_soc_name "small" |> Rc.with_tams 2 in
  rejected_with ~msg:"broken cursor invariant" ~mentions (fun () ->
      Pe.run_with (Rc.with_resume bad cfg) ~table:(Lazy.force table)
        ~total_width:12);
  rejected_with ~msg:"broken cursor invariant in a slot token" ~mentions
    (fun () ->
      Soctam_core.Engine.check_token Soctam_core.Engine.pe cfg
        { Soctam_core.Engine.table = Lazy.force table; total_width = 12 }
        bad)

let truncation_rejected () =
  let doc = Cp.to_string (Lazy.force ex_doc) in
  for len = 0 to String.length doc - 1 do
    match Cp.of_string (String.sub doc 0 len) with
    | Ok _ -> Alcotest.failf "truncated document of %d bytes accepted" len
    | Error _ -> ()
  done

let corruption_fuzz =
  let doc = lazy (Cp.to_string (Lazy.force pe_doc)) in
  QCheck.Test.make ~name:"checkpoint: corrupted bytes never crash the reader"
    ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 255))
    (fun (pos, byte) ->
      let doc = Lazy.force doc in
      let corrupted = Bytes.of_string doc in
      Bytes.set corrupted (pos mod String.length doc) (Char.chr byte);
      match Cp.of_string (Bytes.to_string corrupted) with
      | Ok doc' ->
          (* Only acceptable when the corruption was lexically
             insignificant (e.g. whitespace-for-whitespace): the parsed
             document must still be the original. The checksum covers
             the whole body, engine state included. *)
          Cp.to_string doc' = doc
      | Error _ -> true)

let load_missing_file () =
  match Cp.load "/nonexistent/soctam.ckpt" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

let save_load_round_trip () =
  let sw_doc = Lazy.force sw_doc in
  let path = Filename.temp_file "soctam_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Cp.save path sw_doc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "save failed: %s" msg);
      Alcotest.(check bool)
        "no stale temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      match Cp.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok doc ->
          Alcotest.(check string)
            "document survives the disk" (Cp.to_string sw_doc)
            (Cp.to_string doc))

(* -- Outcome / Run_config surfaces ---------------------------------------- *)

let outcome_basics () =
  Alcotest.(check bool) "complete" true (Oc.is_complete Oc.Complete);
  Alcotest.(check bool)
    "interrupted" false
    (Oc.is_complete (Oc.Interrupted (Lazy.force pe_doc)));
  (match Oc.resume_token Oc.Complete with
  | None -> ()
  | Some _ -> Alcotest.fail "complete carries a token");
  let ex_doc = Lazy.force ex_doc in
  match Oc.resume_token (Oc.Budget_exhausted ex_doc) with
  | Some t ->
      Alcotest.(check string)
        "token is the checkpoint" (Cp.to_string ex_doc) (Cp.to_string t)
  | None -> Alcotest.fail "budget outcome lost its token"

let run_config_validates () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Rc.with_jobs 0 Rc.default);
  invalid (fun () -> Rc.with_node_limit 0 Rc.default);
  invalid (fun () -> Rc.with_max_tams 0 Rc.default);
  invalid (fun () -> Rc.with_tams 0 Rc.default);
  invalid (fun () -> Rc.with_time_budget (-1.) Rc.default);
  invalid (fun () -> Rc.with_checkpoint_every 0 Rc.default);
  invalid (fun () -> Rc.with_slice_limit 0 Rc.default);
  invalid (fun () -> Rc.with_tau_import 0 Rc.default)

let slice_size_policy () =
  Alcotest.(check int)
    "no checkpointing: one slice" 1000
    (Rc.slice_size Rc.default ~length:1000);
  let cfg = Rc.with_checkpoint "x.ckpt" (Rc.with_checkpoint_every 64 Rc.default) in
  Alcotest.(check int) "checkpointing: slice cap" 64
    (Rc.slice_size cfg ~length:1000);
  Alcotest.(check int) "short range: whole range" 10
    (Rc.slice_size cfg ~length:10);
  Alcotest.(check bool) "budget implies slicing" true
    (Rc.checkpointing (Rc.with_time_budget 1. Rc.default));
  Alcotest.(check bool) "slice limit implies slicing" true
    (Rc.checkpointing (Rc.with_slice_limit 1 Rc.default))

(* -- kill-and-resume determinism ------------------------------------------ *)

let solver_counters =
  [
    "partition/enumerated";
    "partition/evaluated";
    "partition/pruned";
    "core_assign/assignments_tried";
    "core_assign/early_terminations";
    "core_assign/levels_cut";
    "pool/tau_publications";
  ]

let counters_of stats =
  let snap = Obs.snapshot stats in
  List.map
    (fun name ->
      ( name,
        match List.assoc_opt name snap.Obs.counters with
        | Some n -> n
        | None -> 0 ))
    solver_counters

let check_same_result ~msg (a : Pe.result) (b : Pe.result) =
  Alcotest.(check (array int)) (msg ^ ": widths") a.Pe.widths b.Pe.widths;
  Alcotest.(check int) (msg ^ ": time") a.Pe.time b.Pe.time;
  Alcotest.(check (array int))
    (msg ^ ": assignment") a.Pe.assignment b.Pe.assignment

(* Interrupt a run after [k] slice boundaries, then resume it to
   completion; the resumed run must agree with the straight one. Returns
   false when the run completed before the k-th boundary (no more
   boundaries to test). *)
let interrupt_resume_agrees ?(max_tams = 4) ?(every = 3) ~jobs ~exact_counters
    ~table ~total_width k =
  let base cfg =
    cfg |> Rc.with_jobs jobs |> Rc.with_max_tams max_tams
    |> Rc.with_checkpoint_every every
    (* A (never reachable) budget turns slicing on without any file
       churn; cancellation provides the interrupts. *)
    |> Rc.with_time_budget 3600.
  in
  let straight_stats = Obs.create () in
  let straight =
    Pe.run_with
      (base Rc.default |> Rc.with_stats straight_stats)
      ~table ~total_width
  in
  let calls = ref 0 in
  let cancel () =
    incr calls;
    !calls > k
  in
  let interrupted =
    (* The interrupted run records stats too: [core_assign/*] counters
       reach the checkpoint only when the collector is live (the
       engine's cursors keep the [partition/*] counters exact either
       way), and full counter equality is only promised when both runs
       observe alike — as the CLI's [--stats] does. *)
    Pe.run_with
      (base Rc.default
      |> Rc.with_stats (Obs.create ())
      |> Rc.with_cancel cancel)
      ~table ~total_width
  in
  match interrupted.Pe.outcome with
  | Oc.Complete -> false
  | Oc.Budget_exhausted _ -> Alcotest.fail "budget fired under a 1h budget"
  | Oc.Interrupted token ->
      (* The token must survive serialization, as it would on disk. *)
      let token =
        match Cp.of_string (Cp.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "resume token did not round-trip: %s" msg
      in
      let resumed_stats = Obs.create () in
      let resumed =
        Pe.run_with
          (base Rc.default
          |> Rc.with_stats resumed_stats
          |> Rc.with_resume token)
          ~table ~total_width
      in
      Alcotest.(check bool)
        "resumed run completes" true
        (Oc.is_complete resumed.Pe.outcome);
      check_same_result ~msg:(Printf.sprintf "resume at boundary %d" k)
        straight resumed;
      Alcotest.(check int)
        "per_b count" (Array.length straight.Pe.per_b)
        (Array.length resumed.Pe.per_b);
      let s = counters_of straight_stats and r = counters_of resumed_stats in
      if exact_counters then
        List.iter2
          (fun (name, a) (_, b) ->
            Alcotest.(check int) ("counter " ^ name) a b)
          s r
      else begin
        (* jobs > 1: the pruning split is racy, but the enumeration and
           the enumerated = pruned + evaluated invariant are exact. *)
        let get l n = List.assoc n l in
        Alcotest.(check int)
          "enumerated total"
          (get s "partition/enumerated")
          (get r "partition/enumerated");
        Alcotest.(check int)
          "pruned + evaluated = enumerated"
          (get r "partition/enumerated")
          (get r "partition/pruned" + get r "partition/evaluated")
      end;
      true

let resume_every_boundary_seq () =
  let soc = small_soc 7L ~cores:5 in
  let total_width = 10 in
  let table = Tt.build soc ~max_width:total_width in
  let k = ref 1 in
  while
    interrupt_resume_agrees ~jobs:1 ~exact_counters:true ~table ~total_width
      !k
  do
    incr k
  done;
  Alcotest.(check bool)
    "interrupted at least 3 distinct boundaries" true (!k > 3)

let resume_boundary_parallel () =
  let soc = small_soc 19L ~cores:4 in
  let total_width = 10 in
  let table = Tt.build soc ~max_width:total_width in
  (* One representative boundary per TAM count region is enough for the
     tier-1 suite; the full scan runs sequentially above. *)
  List.iter
    (fun k ->
      ignore
        (interrupt_resume_agrees ~jobs:4 ~exact_counters:false ~table
           ~total_width k))
    [ 1; 3; 5 ]

(* The pinned d695 W = 40 P_NPAW instance (test_core.ml), where the
   partition search skips cut odometer blocks in bulk, sliced every 2
   ranks so that slice edges fall inside those blocks: each resumed
   slice re-enters a block part-way and must still cut exactly what the
   uninterrupted run cuts. *)
let resume_inside_skipped_runs () =
  let total_width = 40 in
  let table = Tt.build Soctam_soc_data.D695.soc ~max_width:total_width in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "boundary %d reached" k)
        true
        (interrupt_resume_agrees ~max_tams:10 ~every:2 ~jobs:1
           ~exact_counters:true ~table ~total_width k))
    [ 1; 2; 7; 500; 1001; 2502; 4003; 6004; 8000 ]

let zero_budget_resume () =
  (* A budget that expires before any work still yields a valid resume
     token (at rank 0) and a well-formed fallback result. *)
  let soc = small_soc 3L ~cores:4 in
  let total_width = 9 in
  let table = Tt.build soc ~max_width:total_width in
  let cfg = Rc.default |> Rc.with_max_tams 3 |> Rc.with_time_budget 0. in
  let truncated = Pe.run_with cfg ~table ~total_width in
  Alcotest.(check int)
    "fallback widths sum to W" total_width
    (Array.fold_left ( + ) 0 truncated.Pe.widths);
  match Oc.resume_token truncated.Pe.outcome with
  | None -> Alcotest.fail "zero-budget run carried no resume token"
  | Some token ->
      let resumed =
        Pe.run_with
          (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume token)
          ~table ~total_width
      in
      let straight =
        Pe.run_with (Rc.default |> Rc.with_max_tams 3) ~table ~total_width
      in
      check_same_result ~msg:"zero-budget resume" straight resumed

let mismatched_resume_rejected () =
  let soc = small_soc 3L ~cores:4 in
  let table = Tt.build soc ~max_width:10 in
  let cancel_first () = true in
  let interrupted =
    Pe.run_with
      (Rc.default |> Rc.with_max_tams 3 |> Rc.with_time_budget 3600.
      |> Rc.with_cancel cancel_first)
      ~table ~total_width:10
  in
  let token =
    match Oc.resume_token interrupted.Pe.outcome with
    | Some t -> t
    | None -> Alcotest.fail "no token"
  in
  (* Different width and TAM plan: the pe engine's own checks. A
     different solver: the tag check shared by every engine. *)
  rejected_with ~msg:"different width" ~mentions:"different total width"
    (fun () ->
      Pe.run_with
        (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume token)
        ~table ~total_width:9);
  rejected_with ~msg:"different TAM plan" ~mentions:"TAM plan" (fun () ->
      Pe.run_with
        (Rc.default |> Rc.with_max_tams 4 |> Rc.with_resume token)
        ~table ~total_width:10);
  rejected_with ~msg:"wrong-solver resume" ~mentions:"different solver (pe)"
    (fun () ->
      Ex.run_with
        (Rc.default |> Rc.with_resume token)
        ~table ~total_width:10 ~tams:3)

(* The checkpoint file through [Run_config.slices], at every caller:
   each registered engine and the racer. A cancel after two polls leaves
   the stop's checkpoint on disk, loadable; resuming it completes with
   the straight run's architecture; the completed run removes the
   file. *)
let checkpoint_file_lifecycle () =
  let module Engine = Soctam_core.Engine in
  let soc = small_soc 13L ~cores:4 in
  let total_width = 10 in
  let table = Tt.build soc ~max_width:total_width in
  let inst = { Engine.table; total_width } in
  let base = Rc.default |> Rc.with_max_tams 3 in
  let solo e cfg =
    let r = Engine.run e cfg inst in
    ( r.Engine.r_widths,
      r.Engine.r_assignment,
      r.Engine.r_time,
      r.Engine.r_outcome )
  in
  let race cfg =
    let r =
      Soctam_race.Race.run cfg
        ~engines:
          [
            Engine.pe;
            Soctam_pack.Pack_engine.engine;
            An.engine ~params:{ An.default_params with An.iterations = 60 } ();
          ]
        ~table ~total_width
    in
    Soctam_race.Race.(r.widths, r.assignment, r.time, r.outcome)
  in
  let runs =
    List.map
      (fun e ->
        let caps = Engine.caps e in
        let cfg =
          if caps.Engine.needs_fixed_tams then base |> Rc.with_tams 3 else base
        in
        (* Annealer slices count iterations (100 000 by default), the
           others ranks or partitions. *)
        let every =
          if String.equal (Engine.name e) "anneal" then 25_000 else 2
        in
        (Engine.name e, Rc.with_checkpoint_every every cfg, solo e))
      (Soctam_race.Registry.all ())
    @ [ ("race", base |> Rc.with_checkpoint_every 3, race) ]
  in
  List.iter
    (fun (name, cfg, run) ->
      let path = Filename.temp_file "soctam_ckpt" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let calls = ref 0 in
          let cancel () =
            incr calls;
            !calls > 2
          in
          let _, _, _, interrupted =
            run (cfg |> Rc.with_checkpoint path |> Rc.with_cancel cancel)
          in
          let token =
            match interrupted with
            | Oc.Interrupted t -> t
            | Oc.Complete | Oc.Budget_exhausted _ ->
                Alcotest.failf "%s: not interrupted by the third poll" name
          in
          let on_disk =
            match Cp.load path with
            | Ok t -> t
            | Error msg ->
                Alcotest.failf "%s: no checkpoint on disk: %s" name msg
          in
          Alcotest.(check string)
            (name ^ ": the file holds the stop's checkpoint")
            (Cp.to_string token) (Cp.to_string on_disk);
          let widths, assignment, time, outcome =
            run (cfg |> Rc.with_checkpoint path |> Rc.with_resume on_disk)
          in
          Alcotest.(check bool)
            (name ^ ": resumed to completion")
            true (Oc.is_complete outcome);
          let s_widths, s_assignment, s_time, _ = run cfg in
          Alcotest.(check (array int)) (name ^ ": widths") s_widths widths;
          Alcotest.(check (array int))
            (name ^ ": assignment") s_assignment assignment;
          Alcotest.(check int) (name ^ ": time") s_time time;
          Alcotest.(check bool)
            (name ^ ": completed run removed the checkpoint")
            false (Sys.file_exists path)))
    runs

(* -- exhaustive and sweep resume ------------------------------------------ *)

let exhaustive_resume_agrees () =
  let soc = small_soc 62L ~cores:5 in
  let total_width = 14 in
  let table = Tt.build soc ~max_width:total_width in
  let straight =
    Ex.run_with
      (Rc.default |> Rc.with_time_budget 3600.
      |> Rc.with_checkpoint_every 3)
      ~table ~total_width ~tams:3
  in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    let calls = ref 0 in
    let cancel () =
      incr calls;
      !calls > !k
    in
    let interrupted =
      Ex.run_with
        (Rc.default |> Rc.with_time_budget 3600. |> Rc.with_checkpoint_every 3
        |> Rc.with_cancel cancel)
        ~table ~total_width ~tams:3
    in
    (match interrupted.Ex.outcome with
    | Oc.Complete -> continue := false
    | Oc.Budget_exhausted _ -> Alcotest.fail "budget fired under a 1h budget"
    | Oc.Interrupted token ->
        let resumed =
          Ex.run_with
            (Rc.default |> Rc.with_time_budget 3600.
            |> Rc.with_checkpoint_every 3 |> Rc.with_resume token)
            ~table ~total_width ~tams:3
        in
        Alcotest.(check (array int)) "widths" straight.Ex.widths
          resumed.Ex.widths;
        Alcotest.(check int) "time" straight.Ex.time resumed.Ex.time;
        Alcotest.(check int) "partitions solved"
          straight.Ex.partitions_solved resumed.Ex.partitions_solved;
        Alcotest.(check int) "nodes" straight.Ex.nodes resumed.Ex.nodes;
        Alcotest.(check bool) "complete" true
          (Oc.is_complete resumed.Ex.outcome));
    incr k
  done;
  Alcotest.(check bool) "tested at least 2 boundaries" true (!k > 2)

let sweep_resume_agrees () =
  let soc = small_soc 5L ~cores:4 in
  let widths = [ 6; 8; 10 ] in
  let straight =
    Sw.run_with (Rc.default |> Rc.with_max_tams 3) soc ~widths
  in
  let same (a : Sw.point) (b : Sw.point) =
    a.Sw.width = b.Sw.width && a.Sw.time = b.Sw.time
    && a.Sw.widths = b.Sw.widths
  in
  (* Cancel at each width boundary in turn; the widths are re-planned on
     resume. *)
  List.iter
    (fun k ->
      let calls = ref 0 in
      let cancel () =
        incr calls;
        !calls > k
      in
      let interrupted =
        Sw.run_with
          (Rc.default |> Rc.with_max_tams 3 |> Rc.with_time_budget 3600.
          |> Rc.with_cancel cancel)
          soc ~widths
      in
      match interrupted.Sw.outcome with
      | Oc.Complete -> ()
      | Oc.Budget_exhausted _ -> Alcotest.fail "budget fired under a 1h budget"
      | Oc.Interrupted token ->
          (* The cancel is also polled inside each width's search (the
             sweep hands its policy down), so the interrupt may land
             mid-width; that width's partial point must be discarded. *)
          Alcotest.(check bool)
            "interrupted sweep kept completed points only" true
            (List.length interrupted.Sw.points <= k
            && List.for_all2 same straight.Sw.points
                 (interrupted.Sw.points
                 @ List.filteri
                     (fun i _ -> i >= List.length interrupted.Sw.points)
                     straight.Sw.points));
          let resumed =
            Sw.run_with
              (Rc.default |> Rc.with_max_tams 3 |> Rc.with_resume token)
              soc ~widths
          in
          Alcotest.(check bool)
            "resumed sweep agrees" true
            (List.for_all2 same straight.Sw.points resumed.Sw.points))
    [ 0; 1; 2 ]

(* Regression for the mid-width resume: a truncation inside a width
   embeds that width's own token in the sweep checkpoint, and the
   resumed sweep continues the width mid-search. The counters-exact
   check is what pins it: replaying the partial width's counters and
   then re-running the width whole would overcount versus a straight
   run. *)
let sweep_midwidth_resume_agrees () =
  let soc = small_soc 5L ~cores:4 in
  let widths = [ 6; 8; 10 ] in
  let straight_stats = Obs.create () in
  let straight =
    Sw.run_with
      (Rc.default |> Rc.with_max_tams 3 |> Rc.with_stats straight_stats)
      soc ~widths
  in
  let interrupted =
    Sw.run_with
      (Rc.default |> Rc.with_max_tams 3
      |> Rc.with_stats (Obs.create ())
      |> Rc.with_slice_limit 1)
      soc ~widths
  in
  match interrupted.Sw.outcome with
  | Oc.Complete -> Alcotest.fail "a 1-slice limit did not truncate the sweep"
  | Oc.Interrupted _ -> Alcotest.fail "no cancellation was configured"
  | Oc.Budget_exhausted token ->
      Alcotest.(check int)
        "truncated inside the first width" 0
        (List.length interrupted.Sw.points);
      (match token.Cp.state with
      | Cp.Token { engine = "sweep"; body } -> (
          (match Json.member "inner" body with
          | None | Some Json.Null ->
              Alcotest.fail "sweep token lost the mid-width token"
          | Some _ -> ());
          match Option.bind (Json.member "pending" body) Json.to_list with
          | Some pending ->
              Alcotest.(check (list (option int)))
                "every width still pending"
                (List.map Option.some widths)
                (List.map Json.to_int pending)
          | None -> Alcotest.fail "sweep token has no pending widths")
      | _ -> Alcotest.fail "not a sweep token");
      (* The token must survive serialization, as it would on disk. *)
      let token =
        match Cp.of_string (Cp.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "sweep token did not round-trip: %s" msg
      in
      let resumed_stats = Obs.create () in
      let resumed =
        Sw.run_with
          (Rc.default |> Rc.with_max_tams 3
          |> Rc.with_stats resumed_stats
          |> Rc.with_resume token)
          soc ~widths
      in
      Alcotest.(check bool)
        "resumed sweep completes" true
        (Oc.is_complete resumed.Sw.outcome);
      Alcotest.(check bool)
        "resumed sweep agrees" true
        (List.for_all2
           (fun (a : Sw.point) (b : Sw.point) ->
             a.Sw.width = b.Sw.width && a.Sw.time = b.Sw.time
             && a.Sw.widths = b.Sw.widths)
           straight.Sw.points resumed.Sw.points);
      List.iter2
        (fun (name, a) (_, b) ->
          Alcotest.(check int) ("counter " ^ name) a b)
        (counters_of straight_stats)
        (counters_of resumed_stats)

(* A resumed sweep stopped by the cancel check before its head width
   starts must keep that width's restored token: with [inner: null] the
   next resume would re-run the half-searched width from rank 0. *)
let sweep_stop_before_head_keeps_inner () =
  let soc = Soctam_soc_data.D695.soc in
  let widths = [ 16; 24 ] in
  let cfg = Rc.default |> Rc.with_time_budget 3600. in
  let straight = Sw.run_with Rc.default soc ~widths in
  let inner_of (token : Cp.t) =
    match token.Cp.state with
    | Cp.Token { engine = "sweep"; body } -> (
        match Json.member "inner" body with
        | None | Some Json.Null -> None
        | Some inner -> Some (Json.to_string inner))
    | _ -> Alcotest.fail "not a sweep token"
  in
  let stopped cfg =
    match (Sw.run_with cfg soc ~widths).Sw.outcome with
    | Oc.Interrupted token -> (
        match Cp.of_string (Cp.to_string token) with
        | Ok t -> t
        | Error msg -> Alcotest.failf "sweep token did not round-trip: %s" msg)
    | Oc.Complete | Oc.Budget_exhausted _ ->
        Alcotest.fail "the cancel did not interrupt the sweep"
  in
  let first = stopped (cfg |> Rc.with_cancel (cancel_after 1)) in
  let inner = inner_of first in
  Alcotest.(check bool) "stopped inside width 16" true (Option.is_some inner);
  let again =
    stopped (cfg |> Rc.with_resume first |> Rc.with_cancel (fun () -> true))
  in
  Alcotest.(check (option string))
    "the width-16 token survives the second stop" inner (inner_of again);
  let resumed = Sw.run_with (Rc.default |> Rc.with_resume again) soc ~widths in
  Alcotest.(check bool)
    "resumed sweep completes" true
    (Oc.is_complete resumed.Sw.outcome);
  List.iter2
    (fun (a : Sw.point) (b : Sw.point) ->
      Alcotest.(check int) "width" a.Sw.width b.Sw.width;
      Alcotest.(check int) "time" a.Sw.time b.Sw.time;
      Alcotest.(check (array int)) "partition" a.Sw.widths b.Sw.widths)
    straight.Sw.points resumed.Sw.points

(* Interrupted after every slice and resumed each time in a fresh
   collector that replays the token, as a new process would: the last
   run's counters equal an uninterrupted run's only if every token
   carries all the work before it, not just its own run's. *)
let chained_resume_counters () =
  let table = Lazy.force table in
  let base cfg =
    cfg |> Rc.with_max_tams 4 |> Rc.with_checkpoint_every 3
    |> Rc.with_time_budget 3600.
  in
  let straight_stats = Obs.create () in
  let straight =
    Pe.run_with
      (base Rc.default |> Rc.with_stats straight_stats)
      ~table ~total_width:12
  in
  let rec chain token hops =
    let stats = Obs.create () in
    let cfg =
      base Rc.default |> Rc.with_stats stats |> Rc.with_cancel (cancel_after 1)
    in
    let cfg = match token with Some t -> Rc.with_resume t cfg | None -> cfg in
    let r = Pe.run_with cfg ~table ~total_width:12 in
    match r.Pe.outcome with
    | Oc.Interrupted t -> chain (Some t) (hops + 1)
    | Oc.Complete -> (r, stats, hops)
    | Oc.Budget_exhausted _ -> Alcotest.fail "budget fired under a 1h budget"
  in
  let resumed, stats, hops = chain None 0 in
  Alcotest.(check bool) (Printf.sprintf "%d resumes" hops) true (hops >= 3);
  check_same_result ~msg:"chained resume" straight resumed;
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) ("counter " ^ name) a b)
    (counters_of straight_stats) (counters_of stats)

(* -- restored incumbents ----------------------------------------------------- *)

(* A checksum-valid token can still carry an incumbent that is not an
   architecture of this instance, or whose time is not its test time.
   Trusted, it would come back as the run's answer ("time 5, proven
   optimal") or crash an engine with a bare index error; every restore
   path must refuse it with a checkpoint error instead. *)
let set_best f body =
  set_field "best" (f (Cp.field "best" body)) body

let pe_forged_incumbent () =
  let table = Tt.build (Soctam_soc_data.Philips.soc_p21241 ()) ~max_width:64 in
  let cfg = Rc.default |> Rc.with_soc_name "p21241" in
  let doc =
    token_of
      (Pe.run_with (Rc.with_slice_limit 1 cfg) ~table ~total_width:64)
        .Pe.outcome
  in
  let forged =
    with_body doc (fun body ->
        body
        |> set_best (set_field "time" (Json.Int 5))
        |> set_field "tau" (Json.Int 5))
  in
  rejected_with ~msg:"pe incumbent at time 5" ~mentions:"time 5 is not"
    (fun () ->
      Pe.run_with (Rc.with_resume forged cfg) ~table ~total_width:64);
  (* A bound below the incumbent would prune every candidate and report
     the incumbent as complete. *)
  let lowered = with_body doc (set_field "tau" (Json.Int 5)) in
  rejected_with ~msg:"pe bound 5 under a true incumbent"
    ~mentions:"bound 5 is below"
    (fun () ->
      Pe.run_with (Rc.with_resume lowered cfg) ~table ~total_width:64)

let anneal_cfg = Rc.default |> Rc.with_max_tams 4 |> Rc.with_soc_name "small"

let anneal_resume doc () =
  An.run_with ~params:anneal_params (Rc.with_resume doc anneal_cfg)
    ~table:(Lazy.force table) ~total_width:12

let anneal_forged_time () =
  let forged =
    with_body (Lazy.force an_doc) (set_best (set_field "time" (Json.Int 5)))
  in
  rejected_with ~msg:"anneal incumbent at time 5" ~mentions:"time 5 is not"
    (anneal_resume forged)

let anneal_too_many_widths () =
  let widths = Json.List (List.map (fun w -> Json.Int w) [ 3; 3; 2; 2; 2 ]) in
  let forged =
    with_body (Lazy.force an_doc) (set_best (set_field "widths" widths))
  in
  rejected_with ~msg:"anneal incumbent with 5 TAMs under max_tams 4"
    ~mentions:"5 TAMs; this run allows 1 to 4" (anneal_resume forged)

let race_forged_incumbent () =
  let doc = Lazy.force race_doc in
  let forged =
    match doc.Cp.state with
    | Cp.Race ({ Cp.ra_best = Some b; _ } as r) ->
        {
          doc with
          Cp.state =
            Cp.Race { r with Cp.ra_best = Some { b with Cp.ba_time = 5 } };
        }
    | _ -> Alcotest.fail "race document without an incumbent"
  in
  rejected_with ~msg:"race incumbent at time 5" ~mentions:"time 5 is not"
    (fun () ->
      Runners.race_run ~max_tams:4 ~checkpoint_every:3 ~resume:forged
        ~engines:(Runners.engines [ "pe"; "anneal" ])
        ~table:(Lazy.force table) ~total_width:12 ())

let suite =
  [
    test "checkpoint: partition_evaluate round-trip" (round_trip pe_doc);
    test "checkpoint: exhaustive round-trip" (round_trip ex_doc);
    test "checkpoint: sweep round-trip" (round_trip sw_doc);
    test "checkpoint: anneal round-trip" (round_trip an_doc);
    test "checkpoint: race round-trip" (round_trip race_doc);
    test "checkpoint: describe" describe_mentions_solver;
    test "checkpoint: anneal floats and rng bit-exact" anneal_bits_exact;
    test "checkpoint: race embeds engine tokens" race_tokens_embedded;
    test "checkpoint: race slice total rejected" race_slice_total_rejected;
    test "checkpoint: sweep embeds the mid-width token" sweep_token_embedded;
    test "checkpoint: sweep token invariants rejected"
      sweep_token_invariants_rejected;
    test "checkpoint: stale version rejected" stale_version_rejected;
    test "checkpoint: version 1 document rejected" v1_document_rejected;
    test "checkpoint: checksum mismatch rejected" checksum_mismatch_rejected;
    test "checkpoint: cursor invariant rejected" cursor_invariant_rejected;
    test "checkpoint: every truncation rejected" truncation_rejected;
    qtest corruption_fuzz;
    test "checkpoint: missing file is a clean error" load_missing_file;
    test "checkpoint: save/load round-trip" save_load_round_trip;
    test "outcome: basics" outcome_basics;
    test "run_config: setters validate" run_config_validates;
    test "run_config: slice size policy" slice_size_policy;
    test "resume: every boundary, jobs=1, counters exact"
      resume_every_boundary_seq;
    test "resume: representative boundaries, jobs=4" resume_boundary_parallel;
    test "resume: slice edges inside skipped runs, d695 W=40"
      resume_inside_skipped_runs;
    test "resume: zero budget leaves a valid token" zero_budget_resume;
    test "resume: mismatched checkpoints rejected" mismatched_resume_rejected;
    test "resume: checkpoint file lifecycle" checkpoint_file_lifecycle;
    test "resume: exhaustive agrees at every boundary" exhaustive_resume_agrees;
    test "resume: sweep agrees at every width" sweep_resume_agrees;
    test "resume: sweep continues mid-width, counters exact"
      sweep_midwidth_resume_agrees;
    test "resume: sweep stopped before its head width keeps its token"
      sweep_stop_before_head_keeps_inner;
    test "resume: chained resumes keep every counter" chained_resume_counters;
    test "resume: pe incumbent with a forged time or bound rejected, p21241 \
          W=64"
      pe_forged_incumbent;
    test "resume: anneal incumbent with a forged time rejected"
      anneal_forged_time;
    test "resume: anneal incumbent wider than max_tams rejected"
      anneal_too_many_widths;
    test "resume: race incumbent with a forged time rejected"
      race_forged_incumbent;
    test "resume: documents in the previous format resume"
      previous_format_resumes;
    test "checkpoint: race winner without an incumbent rejected"
      race_winner_without_incumbent;
    test "checkpoint: race winner outside the portfolio rejected"
      (race_tampered ~mentions:"not in the portfolio" (fun s ->
           { s with Cp.ra_winner = Some "pack" }));
    test "checkpoint: race export total rejected"
      (race_tampered ~mentions:"export total" (fun s ->
           { s with Cp.ra_exports = s.Cp.ra_exports + 1 }));
    test "checkpoint: race bound off its incumbent's time rejected"
      race_bound_off_incumbent;
    test "checkpoint: race imports above its slices rejected"
      (race_tampered ~mentions:"exceed its" (fun s ->
           { s with Cp.ra_imports = s.Cp.ra_slices + 1 }));
    test "checkpoint: race slot proved but not done rejected"
      (race_tampered ~mentions:"proved but not done"
         (first_slot (fun sl -> { sl with Cp.rs_proved = true })));
    test "checkpoint: race done slot with a token rejected"
      (race_tampered ~mentions:"done but carries a token"
         (first_slot (fun sl -> { sl with Cp.rs_done = true })));
  ]
