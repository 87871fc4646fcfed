(* Tests for Soctam_obs, the observability kernel, and for the stats
   contract of the search core: the enumerated = pruned + evaluated
   invariant at any job count, exact reproducibility of counters at
   jobs = 1, result-neutrality of the collector, and the stable JSON
   rendering round-tripping through the shared parser. *)

module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json
module Stats_json = Soctam_report.Stats_json
module Pe = Soctam_core.Partition_evaluate

let test case f = Alcotest.test_case case `Quick f
let d695 = Soctam_soc_data.D695.soc
let table = lazy (Soctam_core.Time_table.build d695 ~max_width:24)

(* -- kernel ---------------------------------------------------------------- *)

let null_is_inert () =
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.null);
  Obs.add Obs.null "x";
  Obs.observe Obs.null "h" 3;
  Obs.event Obs.null ~value:1 "e";
  Alcotest.(check int) "span passes value" 41 (Obs.span Obs.null "s" (fun () -> 41));
  let s = Obs.snapshot Obs.null in
  Alcotest.(check int) "no counters" 0 (List.length s.Obs.counters);
  Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans);
  Alcotest.(check int) "no events" 0 (List.length s.Obs.events)

let counters_accumulate () =
  let t = Obs.create () in
  Alcotest.(check bool) "enabled" true (Obs.enabled t);
  Obs.add t "a";
  Obs.add t ~n:4 "a";
  Obs.add t ~n:0 "a";
  Obs.add t "b";
  let s = Obs.snapshot t in
  Alcotest.(check int) "a" 5 (Obs.counter_value s "a");
  Alcotest.(check int) "b" 1 (Obs.counter_value s "b");
  Alcotest.(check int) "absent" 0 (Obs.counter_value s "nope");
  Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
    (List.map fst s.Obs.counters)

let negative_increment_rejected () =
  let t = Obs.create () in
  match Obs.add t ~n:(-1) "a" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative counter increment accepted"

let histograms_summarize () =
  let t = Obs.create () in
  List.iter (Obs.observe t "h") [ 5; 1; 9; 3 ];
  let s = Obs.snapshot t in
  match List.assoc_opt "h" s.Obs.histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 4 h.Obs.h_count;
      Alcotest.(check int) "sum" 18 h.Obs.h_sum;
      Alcotest.(check int) "min" 1 h.Obs.h_min;
      Alcotest.(check int) "max" 9 h.Obs.h_max

let spans_record_and_pass_through () =
  let t = Obs.create () in
  Alcotest.(check int) "result passes" 7 (Obs.span t "s" (fun () -> 7));
  (match Obs.span t "s" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  let s = Obs.snapshot t in
  match List.assoc_opt "s" s.Obs.spans with
  | None -> Alcotest.fail "span missing"
  | Some sp ->
      (* Both the normal and the raising run must be recorded. *)
      Alcotest.(check int) "count" 2 sp.Obs.s_count;
      Alcotest.(check bool) "total >= max" true
        (sp.Obs.s_total_ns >= sp.Obs.s_max_ns);
      Alcotest.(check bool) "min <= max" true (sp.Obs.s_min_ns <= sp.Obs.s_max_ns)

let event_sink_is_bounded () =
  let t = Obs.create () in
  for i = 1 to Obs.event_capacity + 7 do
    Obs.event t ~value:i "e"
  done;
  let s = Obs.snapshot t in
  Alcotest.(check int) "capacity retained" Obs.event_capacity
    (List.length s.Obs.events);
  Alcotest.(check int) "rest dropped" 7 s.Obs.dropped_events;
  (* Recording order, and the retained prefix is the oldest events. *)
  match s.Obs.events with
  | first :: _ ->
      Alcotest.(check (option int)) "first value" (Some 1) first.Obs.e_value
  | [] -> Alcotest.fail "no events"

let worker_attribution () =
  let t = Obs.create () in
  Obs.add t ~n:2 "w";
  let d =
    Domain.spawn (fun () ->
        Obs.set_worker 3;
        Obs.add t ~n:5 "w")
  in
  Domain.join d;
  let s = Obs.snapshot t in
  Alcotest.(check int) "aggregate" 7 (Obs.counter_value s "w");
  Alcotest.(check (list int)) "both workers" [ 0; 3 ]
    (List.map fst s.Obs.worker_counters);
  Alcotest.(check (option int)) "worker 3 split" (Some 5)
    (Option.bind
       (List.assoc_opt 3 s.Obs.worker_counters)
       (List.assoc_opt "w"))

(* -- search-core contract -------------------------------------------------- *)

let run_stats ?tau_import ~jobs () =
  let stats = Obs.create () in
  let r =
    Runners.pe_run ?tau_import ~stats ~jobs ~table:(Lazy.force table) ~total_width:20
      ~max_tams:6 ()
  in
  (r, Obs.snapshot stats)

let check_invariant jobs () =
  let r, s = run_stats ~jobs () in
  let c name = Obs.counter_value s name in
  Alcotest.(check int)
    (Printf.sprintf "enumerated = pruned + evaluated at jobs=%d" jobs)
    (c "partition/enumerated")
    (c "partition/pruned" + c "partition/evaluated");
  (* The collector must agree with the result's own b_stats. *)
  let sum f = Array.fold_left (fun acc b -> acc + f b) 0 r.Pe.per_b in
  Alcotest.(check int) "enumerated matches per_b"
    (sum (fun b -> b.Pe.enumerated))
    (c "partition/enumerated");
  Alcotest.(check int) "evaluated matches per_b"
    (sum (fun b -> b.Pe.completed))
    (c "partition/evaluated");
  Alcotest.(check int) "pruned matches per_b"
    (sum (fun b -> b.Pe.tau_terminated))
    (c "partition/pruned");
  (* Per-worker splits must sum to the aggregate for every counter. *)
  List.iter
    (fun (name, total) ->
      let split =
        List.fold_left
          (fun acc (_, counters) ->
          acc + Option.value ~default:0 (List.assoc_opt name counters))
          0 s.Obs.worker_counters
      in
      Alcotest.(check int) (name ^ " worker split sums") total split)
    s.Obs.counters

let counters_reproducible_sequential () =
  let _, s1 = run_stats ~jobs:1 () in
  let _, s2 = run_stats ~jobs:1 () in
  Alcotest.(check (list (pair string int)))
    "jobs=1 counters identical run to run" s1.Obs.counters s2.Obs.counters;
  Alcotest.(check int) "event counts identical"
    (List.length s1.Obs.events)
    (List.length s2.Obs.events)

let pruning_monotone_in_tau_quality () =
  (* Importing the best known time as the bound can only prune more:
     the pruned counter is monotone in the quality of the starting
     tau. *)
  let r, s_cold = run_stats ~jobs:1 () in
  let _, s_warm = run_stats ~tau_import:r.Pe.time ~jobs:1 () in
  let pruned s = Obs.counter_value s "partition/pruned" in
  Alcotest.(check bool) "warm tau prunes at least as much" true
    (pruned s_warm >= pruned s_cold);
  Alcotest.(check int) "enumeration unchanged"
    (Obs.counter_value s_cold "partition/enumerated")
    (Obs.counter_value s_warm "partition/enumerated")

let collector_never_changes_results () =
  let with_stats, _ = run_stats ~jobs:1 () in
  let plain =
    Runners.pe_run ~table:(Lazy.force table) ~total_width:20 ~max_tams:6 ()
  in
  Alcotest.(check int) "same time" plain.Pe.time with_stats.Pe.time;
  Alcotest.(check (list int)) "same partition"
    (Array.to_list plain.Pe.widths)
    (Array.to_list with_stats.Pe.widths)

(* -- JSON rendering -------------------------------------------------------- *)

let stats_json_round_trips () =
  let _, snap = run_stats ~jobs:4 () in
  let doc = Stats_json.render_string snap in
  match Json.parse doc with
  | Error msg -> Alcotest.failf "stats json does not parse: %s" msg
  | Ok parsed ->
      (* print . parse . print is a fixpoint: the document is stable. *)
      Alcotest.(check string) "round trip" doc (Json.to_string parsed);
      Alcotest.(check (option int)) "version" (Some 1)
        (Option.bind (Json.member "version" parsed) Json.to_int);
      let counter name =
        Option.bind (Json.member "counters" parsed) (fun c ->
            Option.bind (Json.member name c) Json.to_int)
      in
      Alcotest.(check (option int)) "invariant in the document"
        (counter "partition/enumerated")
        (match (counter "partition/pruned", counter "partition/evaluated") with
        | Some p, Some e -> Some (p + e)
        | _ -> None);
      Alcotest.(check bool) "summary mentions partitions" true
        (let summary = Stats_json.summary snap in
         String.length summary > 0
         && String.split_on_char ' ' summary |> List.mem "partitions")

let json_parser_rejects_garbage () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\": }"; "{\"a\": 1,}"; "nul"; "1 2";
      "{\"a\" 1}"; "\"unterminated"; "{\"a\": 1} x";
    ]

let json_parser_accepts_edge_cases () =
  List.iter
    (fun (doc, expected) ->
      match Json.parse doc with
      | Error msg -> Alcotest.failf "rejected %S: %s" doc msg
      | Ok v -> Alcotest.(check string) doc expected (Json.to_string v))
    [
      ("  null  ", "null");
      ("[]", "[]");
      ("{}", "{}");
      ("-12", "-12");
      ("[1, \"two\", true, null]", "[1, \"two\", true, null]");
      ("{\"a\\nb\": [1.5]}", "{\"a\\nb\": [1.5]}");
      ("\"\\u0041\"", "\"A\"");
    ]

let suite =
  [
    test "kernel: null is inert" null_is_inert;
    test "kernel: counters accumulate" counters_accumulate;
    test "kernel: negative increment rejected" negative_increment_rejected;
    test "kernel: histograms summarize" histograms_summarize;
    test "kernel: spans record and pass through" spans_record_and_pass_through;
    test "kernel: event sink bounded" event_sink_is_bounded;
    test "kernel: worker attribution" worker_attribution;
    test "invariant: enumerated = pruned + evaluated, jobs=1"
      (check_invariant 1);
    test "invariant: enumerated = pruned + evaluated, jobs=4"
      (check_invariant 4);
    test "invariant: jobs=1 counters reproducible"
      counters_reproducible_sequential;
    test "invariant: pruning monotone in tau quality"
      pruning_monotone_in_tau_quality;
    test "invariant: collector never changes results"
      collector_never_changes_results;
    test "stats json: round trips through the shared parser"
      stats_json_round_trips;
    test "json: parser rejects garbage" json_parser_rejects_garbage;
    test "json: parser accepts edge cases" json_parser_accepts_edge_cases;
  ]
