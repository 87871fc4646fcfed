(* End-to-end tests of the soctam CLI binary: spawn the real executable
   and check exit codes and output. The dune test stanza declares the
   binary as a dependency, and tests run from _build/default/test. *)

let test case f = Alcotest.test_case case `Quick f

let binary = "../bin/soctam.exe"

let run args =
  let command =
    Filename.quote_command binary args ^ " 2>&1"
  in
  let ic = Unix.open_process_in command in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, Buffer.contents buf)

(* Like [run] but with stderr discarded instead of merged: for tests
   that compare stdout byte for byte (the --stats human summary goes to
   stderr by design and must not disturb stdout). *)
let run_stdout args =
  let command = Filename.quote_command binary args ^ " 2>/dev/null" in
  let ic = Unix.open_process_in command in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, Buffer.contents buf)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let check_output ?(code = 0) args needles =
  let actual_code, out = run args in
  Alcotest.(check int)
    (Printf.sprintf "exit code of %s" (String.concat " " args))
    code actual_code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "output of %s mentions %S" (String.concat " " args)
           needle)
        true (contains out needle))
    needles

let info () = check_output [ "info"; "d695" ] [ "SOC d695"; "10 cores" ]

let info_verbose () =
  check_output [ "info"; "d695"; "-v" ] [ "s38417"; "s35932" ]

let info_unknown_soc () =
  check_output ~code:1 [ "info"; "nope" ] [ "neither a built-in SOC" ]

let optimize_fixed_b () =
  check_output
    [ "optimize"; "d695"; "-w"; "16"; "-b"; "2" ]
    [ "architecture: 2 TAMs"; "lower bounds"; "final time" ]

(* p(512, 27) does not fit an int: a typed error and exit 1, not a
   wrapped count and a silently wrong architecture. The one-core SOC
   keeps the W = 512 time table cheap. *)
let optimize_rank_space_overflow () =
  check_output ~code:1
    [
      "optimize"; Filename.concat "data" "good_minimal.itc02"; "-w"; "512";
      "-b"; "27";
    ]
    [ "soctam: Count.exact"; "total = 512"; "parts = 27"; "exceeds max_int" ]

let optimize_npaw_and_arch_roundtrip () =
  let path = Filename.temp_file "cli_arch" ".arch" in
  check_output
    [ "optimize"; "d695"; "-w"; "16"; "--save-arch"; path ]
    [ "architecture written to" ];
  (match Soctam_tam.Arch_format.load path with
  | Ok parsed ->
      Alcotest.(check (option string)) "soc recorded" (Some "d695")
        parsed.Soctam_tam.Arch_format.soc_name;
      Alcotest.(check int) "widths sum" 16
        (Soctam_util.Intutil.sum parsed.Soctam_tam.Arch_format.widths)
  | Error msg -> Alcotest.failf "arch load: %s" msg);
  Sys.remove path

let wrapper_command () =
  check_output
    [ "wrapper"; "d695"; "-c"; "6"; "-w"; "16" ]
    [ "pareto widths"; "max useful width" ]

let wrapper_bad_core () =
  check_output ~code:1 [ "wrapper"; "d695"; "-c"; "99"; "-w"; "8" ]
    [ "out of range" ]

let exhaustive_command () =
  check_output
    [ "exhaustive"; "d695"; "-w"; "16"; "-b"; "2" ]
    [ "partitions solved"; "exhaustive: partition" ];
  check_output
    [ "exhaustive"; "d695"; "-w"; "16"; "-b"; "2"; "-j"; "4" ]
    [ "partitions solved"; "exhaustive: partition" ]

let compare_command () =
  check_output
    [ "compare"; "d695"; "-w"; "16" ]
    [ "test bus (this paper)"; "multiplexing"; "daisychain" ]

let sweep_command () =
  check_output
    [ "sweep"; "d695"; "--from"; "8"; "--to"; "16"; "--step"; "8" ]
    [ "partition"; "knee: W =" ];
  check_output
    [ "sweep"; "d695"; "--from"; "8"; "--to"; "16"; "--step"; "8"; "-j"; "4" ]
    [ "partition"; "knee: W =" ]

let schedule_command () =
  check_output
    [ "schedule"; "d695"; "-w"; "16"; "--budget-pct"; "60" ]
    [ "power-capped"; "TAM 1" ]

let gen_and_load () =
  let path = Filename.temp_file "cli_soc" ".soc" in
  check_output [ "gen"; "p31108"; "-o"; path ] [ "wrote" ];
  check_output [ "info"; path ] [ "19 cores" ];
  Sys.remove path

let gen_unknown_profile () =
  check_output ~code:1 [ "gen"; "p999" ] [ "unknown profile" ]

let verify_roundtrip () =
  let path = Filename.temp_file "cli_verify" ".arch" in
  check_output
    [ "optimize"; "d695"; "-w"; "16"; "-b"; "2"; "--save-arch"; path ]
    [ "architecture written" ];
  check_output [ "verify"; "d695"; "--arch"; path ] [ "VERIFIED" ];
  (* Verifying against the wrong SOC warns (and may fail validation). *)
  let code, out = run [ "verify"; "p31108"; "--arch"; path ] in
  Alcotest.(check bool) "wrong soc flagged" true
    (code = 1 || contains out "warning");
  Sys.remove path

let gen_itc02_and_load () =
  let path = Filename.temp_file "cli_soc" ".itc02" in
  check_output [ "gen"; "p93791"; "--itc02"; "-o"; path ] [ "wrote" ];
  check_output [ "info"; path ] [ "32 cores" ];
  Sys.remove path

let tables_single () = check_output [ "tables"; "--id"; "t4" ] [ "logic"; "memory" ]

let tables_unknown_id () =
  check_output ~code:1 [ "tables"; "--id"; "t99" ] [ "unknown table id" ]

(* Numeric flags out of range are cmdliner usage errors, never an
   uncaught exception (exit 125) or an internal error out of a solver or
   the run configuration: each row is a flag, the bad values tried and
   the word the error must name. *)
let budget_rejected () =
  let optimize = [ "optimize"; "d695"; "-w"; "32" ] in
  List.iter
    (fun (bases, flag, bads, named) ->
      List.iter
        (fun base ->
          List.iter
            (fun bad ->
              let args = base @ [ flag ^ "=" ^ bad ] in
              let code, out = run args in
              let shown = String.concat " " args in
              Alcotest.(check bool)
                (shown ^ ": nonzero exit, not an uncaught exception")
                true
                (code <> 0 && code <> 125);
              Alcotest.(check bool)
                (shown ^ ": names the " ^ named)
                true
                (contains out ("invalid " ^ named));
              Alcotest.(check bool)
                (shown ^ ": no internal error")
                false
                (contains out "internal error"))
            bads)
        bases)
    [
      ( [ optimize; [ "tables"; "--id"; "t2" ] ],
        "--budget",
        [ "-1"; "nan"; "inf" ],
        "budget" );
      ( [
          optimize;
          [ "pack"; "d695"; "-w"; "16" ];
          [ "exhaustive"; "d695"; "-w"; "16"; "-b"; "2" ];
          [ "ilp"; "d695"; "-w"; "16"; "-b"; "2" ];
          [ "anneal"; "d695"; "-w"; "16" ];
          [ "race"; "d695"; "-w"; "16" ];
          [ "sweep"; "d695" ];
        ],
        "--jobs",
        [ "0"; "-2" ],
        "count" );
      ( [ optimize; [ "race"; "d695"; "-w"; "16" ] ],
        "--checkpoint-every",
        [ "0"; "-1" ],
        "count" );
      ( [
          [ "optimize"; "d695" ];
          [ "pack"; "d695" ];
          [ "compare"; "d695" ];
          [ "schedule"; "d695" ];
          [ "wrapper"; "d695"; "-c"; "1" ];
          [ "check"; "d695"; "--arch"; "missing.arch" ];
        ],
        "--width",
        [ "0"; "-1" ],
        "count" );
      ( [ optimize; [ "exhaustive"; "d695"; "-w"; "16" ] ],
        "--tams",
        [ "0"; "-1" ],
        "count" );
      ( [ optimize; [ "pack"; "d695"; "-w"; "16" ] ],
        "--max-tams",
        [ "0"; "-1" ],
        "count" );
    ]

(* [--iterations] may be 0 (the walk stays at its starting point) but a
   negative count is a usage error (exit 124), not the annealer's
   [Invalid_argument]. *)
let iterations_rejected () =
  let anneal = [ "anneal"; "d695"; "-w"; "16" ] in
  List.iter
    (fun bad ->
      let args = anneal @ [ "--iterations=" ^ bad ] in
      let code, out = run args in
      let shown = String.concat " " args in
      Alcotest.(check int) (shown ^ ": usage error") 124 code;
      Alcotest.(check bool)
        (shown ^ ": names the count") true
        (contains out "invalid count"))
    [ "-1"; "-100000"; "x" ];
  check_output
    (anneal @ [ "--iterations=0" ])
    [ "anneal: partition 16, time 51538 (complete)" ]

let tables_markdown_and_csv () =
  check_output [ "tables"; "--id"; "t4"; "--markdown" ] [ "| :--- |"; "**t4" ];
  check_output [ "tables"; "--id"; "t4"; "--csv" ] [ "circuit,count"; "# t4" ]

let wrapper_layout_flag () =
  check_output
    [ "wrapper"; "d695"; "-c"; "4"; "-w"; "6"; "--layout" ]
    [ "chain  1:"; "internal" ]

(* Every solver subcommand certifies its answer without being asked:
   exit 0 and the certificate's OK line. *)
let solvers_certify () =
  List.iter
    (fun (args, needle) -> check_output args [ needle ])
    [
      ( [ "optimize"; "d695"; "-w"; "16"; "-b"; "2" ],
        "OK: d695 pe result (W = 16)" );
      ( [ "optimize"; "d695"; "-w"; "16"; "-b"; "2"; "-j"; "4" ],
        "OK: d695 pe result (W = 16)" );
      ( [ "pack"; "d695"; "-w"; "16"; "-b"; "2" ],
        "OK: d695 pack result (W = 16)" );
      ( [ "anneal"; "d695"; "-w"; "12"; "--iterations"; "5000" ],
        "OK: d695 anneal result (W = 12)" );
      ( [ "exhaustive"; "d695"; "-w"; "16"; "-b"; "2" ],
        "OK: d695 exhaustive result (W = 16)" );
      ( [ "ilp"; "d695"; "-w"; "16"; "-b"; "2" ],
        "OK: d695 ilp result (W = 16)" );
      ([ "race"; "d695"; "-w"; "16" ], "OK: d695 race result (W = 16)");
      ( [ "schedule"; "d695"; "-w"; "16"; "--budget-pct"; "60" ],
        "OK: d695 test schedule" );
    ]

let check_command_roundtrip () =
  let path = Filename.temp_file "cli_check" ".arch" in
  check_output
    [ "optimize"; "d695"; "-w"; "16"; "-b"; "2"; "--save-arch"; path ]
    [ "architecture written" ];
  check_output
    [ "check"; "d695"; "--arch"; path; "-w"; "16"; "--exact"; "--sim" ]
    [ "OK: d695 architecture vs architecture file" ];
  check_output
    [ "check"; "d695"; "--arch"; path; "--json" ]
    [ {|"ok": true|}; {|"subject":|} ];
  (* Corrupt the width partition: same TAM count, wrong sum. *)
  let contents =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let oc = open_out path in
  String.split_on_char '\n' contents
  |> List.map (fun line ->
         if String.length line >= 6 && String.sub line 0 6 = "widths" then
           "widths 3+3+5+6"
         else line)
  |> List.iter (fun line -> output_string oc (line ^ "\n"));
  close_out oc;
  check_output ~code:1
    [ "check"; "d695"; "--arch"; path; "-w"; "16" ]
    [ "FAIL"; "width-sum-mismatch" ];
  Sys.remove path

let lint_command () =
  check_output [ "lint"; "d695" ] [ "OK: SOC d695" ];
  let path = Filename.temp_file "cli_lint" ".soc" in
  let oc = open_out path in
  output_string oc
    "soc broken\n\
     core 1 a inputs=2 outputs=2 patterns=0\n\
     core 1 b inputs=3 outputs=3 patterns=9\n";
  close_out oc;
  check_output ~code:1 [ "lint"; path ]
    [ "zero-patterns"; "duplicate-core-id" ];
  check_output ~code:1 [ "lint"; path; "--json" ] [ {|"ok": false|} ];
  Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let stats_counter json name =
  Option.bind (Soctam_util.Json.member "counters" json) (fun c ->
      Option.bind (Soctam_util.Json.member name c) Soctam_util.Json.to_int)

let optimize_stats_flag () =
  (* --stats=FILE at -j 4: the file must hold valid stats JSON whose
     partition counters satisfy enumerated = pruned + evaluated, and the
     human summary goes to stderr. *)
  let path = Filename.temp_file "cli_stats" ".json" in
  check_output
    [ "optimize"; "d695"; "-w"; "16"; "-j"; "4"; "--stats=" ^ path ]
    [ "final time"; "stats:" ];
  (match Soctam_util.Json.parse (read_file path) with
  | Error msg -> Alcotest.failf "stats json does not parse: %s" msg
  | Ok json ->
      Alcotest.(check (option int)) "version" (Some 1)
        (Option.bind (Soctam_util.Json.member "version" json)
           Soctam_util.Json.to_int);
      let c name =
        match stats_counter json name with
        | Some v -> v
        | None -> Alcotest.failf "counter %s missing" name
      in
      Alcotest.(check int) "enumerated = pruned + evaluated"
        (c "partition/enumerated")
        (c "partition/pruned" + c "partition/evaluated");
      Alcotest.(check bool) "work happened" true
        (c "partition/enumerated" > 0));
  Sys.remove path;
  (* --stats without a file streams the JSON to stdout instead. *)
  check_output
    [ "exhaustive"; "d695"; "-w"; "12"; "-b"; "2"; "--stats" ]
    [ {|"version": 1|}; "exhaustive/partitions_total" ]

let stats_leaves_stdout_untouched () =
  (* Enabling --stats=FILE must not change a single byte of stdout:
     observability is report-only. *)
  let args = [ "sweep"; "d695"; "--from"; "8"; "--to"; "16"; "--step"; "8" ] in
  let path = Filename.temp_file "cli_stats" ".json" in
  let code_plain, plain = run_stdout args in
  let code_stats, with_stats = run_stdout (args @ [ "--stats=" ^ path ]) in
  Sys.remove path;
  Alcotest.(check int) "plain exit" 0 code_plain;
  Alcotest.(check int) "stats exit" 0 code_stats;
  Alcotest.(check string) "stdout byte-identical" plain with_stats

(* Certification is not optional and the front cache is not a knob:
   both former options are now usage errors. *)
let rejected_options =
  List.iter (fun args -> check_output ~code:124 args [ "unknown option" ])

let optimize_certify_flag () =
  rejected_options
    [
      [ "optimize"; "d695"; "-w"; "16"; "-b"; "2"; "--certify" ];
      [ "optimize"; "d695"; "-w"; "16"; "-b"; "2"; "-j"; "4"; "--certify" ];
      [ "anneal"; "d695"; "-w"; "12"; "--iterations"; "5000"; "--certify" ];
    ]

let schedule_certify_flag () =
  rejected_options
    [ [ "schedule"; "d695"; "-w"; "16"; "--budget-pct"; "60"; "--certify" ] ]

let removed_options_rejected () =
  rejected_options
    [
      [ "race"; "d695"; "-w"; "16"; "--certify" ];
      [ "optimize"; "d695"; "-w"; "16"; "--front-cache"; "8" ];
    ]

let version_flag () =
  check_output [ "--version" ] [ "1.1.0" ]

(* End-to-end checkpoint + resume through the real binary: a zero-budget
   exhaustive run truncates immediately and leaves a checkpoint; the
   resumed run must print exactly what an uninterrupted run prints. *)
let exhaustive_checkpoint_resume () =
  let path = Filename.temp_file "cli_ckpt" ".ckpt" in
  Sys.remove path;
  let base = [ "exhaustive"; "d695"; "-w"; "18"; "-b"; "3" ] in
  let straight_code, straight_out = run_stdout base in
  Alcotest.(check int) "straight run exits 0" 0 straight_code;
  let code, _ =
    run_stdout (base @ [ "--budget"; "0"; "--checkpoint=" ^ path ])
  in
  Alcotest.(check int) "truncated run exits 0" 0 code;
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
  let code, out =
    run_stdout (base @ [ "--checkpoint=" ^ path; "--resume"; path ])
  in
  Alcotest.(check int) "resumed run exits 0" 0 code;
  Alcotest.(check string) "resumed output = straight output" straight_out out;
  Alcotest.(check bool)
    "completed run removed the checkpoint" false (Sys.file_exists path)

let resume_garbage_rejected () =
  let path = Filename.temp_file "cli_ckpt" ".ckpt" in
  let oc = open_out path in
  output_string oc "{ not a checkpoint";
  close_out oc;
  let code, out =
    run [ "exhaustive"; "d695"; "-w"; "16"; "-b"; "2"; "--resume"; path ]
  in
  Sys.remove path;
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool)
    "names the failure" true
    (contains out "cannot resume")

(* A checkpoint written by the previous schema (version 1) is refused
   cleanly by the CLI before any work. *)
let resume_v1_rejected () =
  let code, out =
    run
      [
        "exhaustive"; "d695"; "-w"; "16"; "-b"; "2"; "--resume";
        Filename.concat "data" "checkpoint_v1.json";
      ]
  in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "cannot resume" true (contains out "cannot resume");
  Alcotest.(check bool) "names the version" true (contains out "version 1")

(* An output file that cannot be written is a user error (exit 1 with
   a message), not an uncaught exception. The root holds only a
   dune-project, so the analysis itself is empty and instant. *)
let analyze_unwritable_output () =
  let root = Filename.temp_dir "cli_analyze" "" in
  let project = Filename.concat root "dune-project" in
  let oc = open_out project in
  output_string oc "(lang dune 3.0)\n";
  close_out oc;
  let missing = Filename.concat (Filename.concat root "missing") "out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove project;
      Sys.rmdir root)
    (fun () ->
      List.iter
        (fun flag ->
          let code, out = run [ "analyze"; "--root"; root; flag; missing ] in
          Alcotest.(check int) (flag ^ ": exit 1") 1 code;
          Alcotest.(check bool)
            (flag ^ ": names the failure")
            true
            (contains out "soctam: cannot write");
          Alcotest.(check bool)
            (flag ^ ": no internal error")
            false
            (contains out "internal error"))
        [ "--sarif"; "--call-graph" ])

let suite =
  [
    test "info" info;
    test "info -v" info_verbose;
    test "info: unknown soc" info_unknown_soc;
    test "optimize: fixed B" optimize_fixed_b;
    test "optimize: save-arch roundtrip" optimize_npaw_and_arch_roundtrip;
    test "wrapper" wrapper_command;
    test "wrapper: bad core" wrapper_bad_core;
    test "exhaustive" exhaustive_command;
    test "compare" compare_command;
    test "sweep" sweep_command;
    test "schedule" schedule_command;
    test "gen + load" gen_and_load;
    test "gen: unknown profile" gen_unknown_profile;
    test "verify: roundtrip" verify_roundtrip;
    test "gen: itc02 dialect" gen_itc02_and_load;
    test "tables: t4" tables_single;
    test "tables: unknown id" tables_unknown_id;
    test "tables: markdown and csv" tables_markdown_and_csv;
    test "wrapper: layout flag" wrapper_layout_flag;
    test "optimize/anneal: --certify" optimize_certify_flag;
    test "check: roundtrip + corruption" check_command_roundtrip;
    test "lint" lint_command;
    test "schedule: --certify" schedule_certify_flag;
    test "optimize/exhaustive: --stats" optimize_stats_flag;
    test "sweep: --stats leaves stdout untouched" stats_leaves_stdout_untouched;
    test "--version" version_flag;
    test "exhaustive: checkpoint + resume roundtrip"
      exhaustive_checkpoint_resume;
    test "resume: garbage checkpoint rejected" resume_garbage_rejected;
    test "resume: version 1 checkpoint rejected" resume_v1_rejected;
    test "optimize: rank-space overflow" optimize_rank_space_overflow;
    test "--budget: negative, nan and inf rejected; -j, --checkpoint-every, \
          -w, -b and --max-tams: 0 rejected"
      budget_rejected;
    test "--iterations: negative rejected, 0 accepted" iterations_rejected;
    test "solvers: certified without a flag" solvers_certify;
    test "removed options: usage errors" removed_options_rejected;
    test "analyze: unwritable output files" analyze_unwritable_output;
  ]
