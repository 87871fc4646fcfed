(* Tests for Soctam_analysis, the compiler-libs source analyzer: one
   positive and one negative fixture per rule family (every fixture is
   compiled for real with ocamlc -bin-annot, since the analyzer walks
   the Typedtree of the .cmt), the suppression attribute in each of its
   three scopes, baseline parsing, round-tripping and pruning, the
   strict-JSON and call-graph outputs, and — the tier-1 gate — the
   analyzer run over this repository's own sources coming back clean. *)

module Rule = Soctam_analysis.Rule
module Source = Soctam_analysis.Source
module Baseline = Soctam_analysis.Baseline
module Analyze = Soctam_analysis.Analyze
module Typed = Soctam_analysis.Typed
module Json = Soctam_util.Json
module Report = Soctam_check.Report
module Violation = Soctam_check.Violation

let test case f = Alcotest.test_case case `Quick f

(* -- compiled fixtures ---------------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_scratch_dir f =
  let dir = Filename.temp_file "soctam_typed" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* [path] is root-relative and may name directories, created on
   demand. *)
let write_file dir path contents =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  let file = Filename.concat dir path in
  mkdir_p (Filename.dirname file);
  let oc = open_out file in
  output_string oc contents;
  close_out oc

(* Write the fixture tree into a scratch directory, compile its .mli/.ml
   files in order with [ocamlc -bin-annot -c] from the root (every
   fixture directory on the include path, so a path like
   lib/core/fixture.ml keeps its solver-layer classification), and hand
   the tree to [Typed.run]. OCaml 5 ships Domain and Mutex in the
   stdlib and Unix behind [-I +unix], so fixtures need no build
   system. *)
let typed_run sources =
  with_scratch_dir (fun dir ->
      List.iter (fun (name, contents) -> write_file dir name contents) sources;
      let names = List.map fst sources in
      let compiled =
        List.filter
          (fun n ->
            Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli")
          names
      in
      let includes =
        List.sort_uniq String.compare (List.map Filename.dirname compiled)
      in
      let command =
        Printf.sprintf "cd %s && ocamlc -bin-annot -I +unix %s -c %s 2>&1"
          (Filename.quote dir)
          (String.concat " "
             (List.map (fun d -> "-I " ^ Filename.quote d) includes))
          (String.concat " " (List.map Filename.quote compiled))
      in
      let ic = Unix.open_process_in command in
      let out = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail ("fixture should compile: " ^ out));
      Typed.run ~root:dir ~sources:compiled)

let typed_rules (t : Typed.t) =
  List.map
    (fun (f : Analyze.finding) -> Rule.name f.Analyze.rule)
    t.Typed.findings

let check_rules name expected t =
  Alcotest.(check (list string)) name (List.map Rule.name expected)
    (typed_rules t)

let clean name (t : Typed.t) =
  check_rules name [] t;
  Alcotest.(check int) (name ^ ": no problems") 0 (List.length t.Typed.problems)

(* Fixture placements: the analyzer classifies real paths, so a fixture
   picks its surface by where it sits. lib/core is a solver layer and,
   with a dune file naming soctam_core, pool-reachable; lib/report is
   neither; lib/util/prng is the sanctioned entropy wrapper. The empty
   .mli lets a fixture keep a weakly typed top level (an unannotated
   [Hashtbl.create]) as the real modules under lib/ do. *)
let in_module ?(extra = []) path src =
  typed_run (extra @ [ (path ^ ".mli", ""); (path ^ ".ml", src) ])

let solver src =
  in_module "lib/core/fixture"
    ~extra:[ ("lib/core/dune", "(library (name soctam_core))\n") ]
    src

let plain ?extra src = in_module ?extra "lib/report/fixture" src
let exempt src = in_module "lib/util/prng" src

(* -- rule catalog --------------------------------------------------------- *)

let rule_names () =
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "of_name inverts name"
        (Some (Rule.name r))
        (Option.map Rule.name (Rule.of_name (Rule.name r))))
    Rule.all;
  Alcotest.(check (option string))
    "unknown rule" None
    (Option.map Rule.name (Rule.of_name "NOT-A-RULE"))

(* -- DET-POLY ------------------------------------------------------------- *)

let det_poly_positive () =
  let r =
    solver
      "let f a b = if (a, 1) = b then 0 else compare (a, 1) b\n\
       let h x = Hashtbl.hash x\n"
  in
  check_rules "structured =, compare, Hashtbl.hash"
    [ Rule.Det_poly; Rule.Det_poly; Rule.Det_poly ]
    r

let det_poly_negative () =
  clean "typed comparison is fine"
    (solver "let f a b = Int.compare a b\nlet g x = x = 3\n");
  clean "outside the solver layer"
    (plain "let f (a : int * int) b = compare a b\n")

(* The ordering operators join [=] / [<>] in the application form: a
   structured operand, written out or tuple-typed, is flagged in a
   solver layer. *)
let det_poly_ordering_positive () =
  check_rules "structured <, >=, and tuple-typed <"
    [ Rule.Det_poly; Rule.Det_poly; Rule.Det_poly ]
    (solver
       "let f a b = (a, 1) < b\n\
        let g (a : int) b = Some a >= b\n\
        let h (x : int) y =\n\
       \  let cand = (x + 1, y) and cur = (y, x) in\n\
       \  cand < cur\n")

let det_poly_ordering_negative () =
  clean "integer orderings in a solver layer"
    (solver
       "let f (a : int) b = a < b || a >= b\n\
        let g a b = Int.max a b > Int.min a b\n\
        let h (x : int) y =\n\
       \  let cand = Int.max x y and cur = Int.max y x in\n\
       \  cand < cur || (cand = cur && x < y)\n");
  clean "structured ordering outside the solver layer"
    (plain "let f a b = (a, 1) < b\n")

(* Anywhere under lib/, an ordering, compare, min or max at a type
   variable is flagged, since nothing specializes it to an inline
   compare. The key-typed argmin is the shape that hid it. *)
let det_poly_tvar_positive () =
  check_rules "<, >, min, max and compare at a type variable"
    [ Rule.Det_poly; Rule.Det_poly; Rule.Det_poly; Rule.Det_poly;
      Rule.Det_poly ]
    (plain
       "let lt a b = a < b\n\
        let by key x y = key x > key y\n\
        let lo a b = min a b\n\
        let hi a b = max a b\n\
        let sort l = List.sort compare l\n");
  check_rules "one finding for compare at a type variable in a solver layer"
    [ Rule.Det_poly ]
    (solver "let f a b = compare a b\n")

let det_poly_tvar_negative () =
  clean "instantiated orderings under lib/"
    (plain
       "let lt (a : int) b = a < b\n\
        let by (key : 'a -> int) x y = key x > key y\n\
        let lo a b = Int.min a b\n\
        let sort (l : string list) = List.sort compare l\n\
        let pick cmp a b = if cmp a b <= 0 then a else b\n");
  clean "outside lib/"
    (in_module "bin/fixture" "let lt a b = a < b\nlet lo a b = min a b\n")

let det_poly_resolved () =
  (* Judged by what the identifier binds: an alias of Hashtbl is
     Hashtbl, a local [compare] is not the stdlib one. *)
  check_rules "aliased Hashtbl.hash" [ Rule.Det_poly ]
    (solver "module H = Hashtbl\nlet h x = H.hash x\n");
  clean "shadowing local compare"
    (solver
       "let compare (a : int) b = Int.compare a b\n\
        let f a b = compare a b\n");
  (* Structures passed to a functor application, also as a functor's
     body, are walked like any other submodule. *)
  check_rules "functor application argument" [ Rule.Det_poly ]
    (solver
       "module S = Set.Make (struct type t = int let compare = compare end)\n");
  check_rules "functor whose body is an application" [ Rule.Det_poly ]
    (solver
       "module F (X : sig end) =\n\
       \  Set.Make (struct type t = int let compare = compare end)\n")

(* -- DET-ENTROPY ---------------------------------------------------------- *)

let det_entropy_positive () =
  let r =
    plain
      "let x () = Random.int 5\nlet t () = Sys.time ()\n\
       let u () = Unix.gettimeofday ()\n"
  in
  check_rules "Random, Sys.time, Unix.gettimeofday"
    [ Rule.Det_entropy; Rule.Det_entropy; Rule.Det_entropy ]
    r

let det_entropy_negative () =
  clean "sanctioned wrapper module" (exempt "let x () = Random.int 5\n");
  clean "monotonic clock wrapper is fine"
    (plain
       ~extra:
         [
           ( "lib/util/soctam_util.ml",
             "module Timer = struct let now_s () = 0. end\n" );
         ]
       "let t () = Soctam_util.Timer.now_s ()\n")

let det_entropy_alias () =
  (* The resolved path sees through a module alias. *)
  check_rules "aliased Random" [ Rule.Det_entropy ]
    (plain "module R = Random let x () = R.int 5")

(* -- DOM-SHARED ----------------------------------------------------------- *)

let dom_shared_positive () =
  let r =
    solver
      "let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
       let hits = ref 0\n"
  in
  check_rules "top-level table and ref"
    [ Rule.Dom_shared; Rule.Dom_shared ]
    r

let dom_shared_negative () =
  clean "mutex-guarded file (the Count memo discipline)"
    (solver "let lock = Mutex.create ()\nlet cache = Hashtbl.create 16\n");
  clean "local mutable state is fine"
    (solver "let f () = let acc = ref 0 in incr acc; !acc\n");
  clean "not reachable from the pool"
    (plain "let cache = Hashtbl.create 16\n");
  clean "atomics are the sanctioned primitive"
    (solver "let best = Atomic.make max_int\n")

(* -- suppression ---------------------------------------------------------- *)

let suppression_scopes () =
  let expr =
    solver "let f a b = (compare a b [@soctam.allow \"DET-POLY\"])\n"
  in
  check_rules "expression scope" [] expr;
  Alcotest.(check int) "expression scope counted" 1 expr.Typed.suppressed;
  let item =
    solver "let f a b = compare a b [@@soctam.allow \"DET-POLY\"]\n"
  in
  check_rules "item scope" [] item;
  let file =
    solver
      "[@@@soctam.allow \"DET-POLY DOM-SHARED\"]\n\
       let cache = Hashtbl.create 16\n\
       let f a b = compare a b\n"
  in
  check_rules "file scope, multiple rules" [] file;
  Alcotest.(check int) "file scope counted" 2 file.Typed.suppressed

let suppression_is_scoped () =
  (* An allow for one rule must not silence another. *)
  let r =
    solver "let f a b = (compare a b [@soctam.allow \"DET-ENTROPY\"])\n"
  in
  check_rules "wrong rule id does not silence" [ Rule.Det_poly ] r

let suppression_requires_rule_id () =
  let bad payload =
    let r =
      solver
        (Printf.sprintf "let f a b = (compare a b [@soctam.allow %s])\n"
           payload)
    in
    match r.Typed.problems with
    | [ v ] ->
        Alcotest.(check string)
          (Printf.sprintf "payload %s is an analyzer error" payload)
          "error"
          (Violation.severity_name v.Violation.severity);
        Alcotest.(check bool) "located at the attribute" true
          (match v.Violation.location with
          | Violation.File ("lib/core/fixture.ml", 1) -> true
          | _ -> false)
    | vs ->
        Alcotest.failf "payload %s: expected exactly one problem, got %d"
          payload (List.length vs)
  in
  bad "\"NOT-A-RULE\"";
  bad "\"\"";
  bad "42";
  (* One malformed payload per attribute position, each reported once at
     its own line (line 2 carries two: a label and its type). *)
  let r =
    solver
      "[@@@soctam.allow \"NOT-A-RULE\"]\n\
       type t = { x : int [@soctam.allow \"\"] } [@@soctam.allow 42]\n\
       let g (x [@soctam.allow 42]) = x\n\
       let h = 1 [@@soctam.allow \"NOT-A-RULE\"]\n\
       module M = struct end [@@soctam.allow \"NOT-A-RULE\"]\n\
       ;; print_newline () [@@soctam.allow \"NOT-A-RULE\"]\n\
       let k (y : (int [@soctam.allow 42])) = y\n"
  in
  let lines =
    List.map
      (fun v ->
        match v.Violation.location with
        | Violation.File ("lib/core/fixture.ml", l) -> l
        | _ -> Alcotest.fail "problem not located in the fixture")
      r.Typed.problems
  in
  Alcotest.(check (list int)) "one problem per payload, at its line"
    [ 1; 2; 2; 3; 4; 5; 6; 7 ]
    (List.sort Int.compare lines)

(* -- baseline ------------------------------------------------------------- *)

let baseline_round_trip () =
  let text =
    "# comment\n\nDET-POLY\tlib/core/x.ml\twhy it is fine\n\
     IFACE\tlib/y\tlegacy module\n"
  in
  match Baseline.of_string ~file:"b" text with
  | Error _ -> Alcotest.fail "baseline should parse"
  | Ok b ->
      Alcotest.(check int) "two entries" 2 (List.length (Baseline.entries b));
      Alcotest.(check bool) "covers (rule, path)" true
        (Baseline.covers b ~rule:Rule.Det_poly ~path:"lib/core/x.ml");
      Alcotest.(check bool) "does not cover other path" false
        (Baseline.covers b ~rule:Rule.Det_poly ~path:"lib/core/z.ml");
      Alcotest.(check bool) "does not cover other rule" false
        (Baseline.covers b ~rule:Rule.Dom_shared ~path:"lib/core/x.ml");
      (match Baseline.of_string ~file:"b2" (Baseline.to_string b) with
      | Error _ -> Alcotest.fail "rendered baseline should re-parse"
      | Ok b2 ->
          Alcotest.(check int) "round-trip preserves entries"
            (List.length (Baseline.entries b))
            (List.length (Baseline.entries b2)))

let baseline_empty_round_trip () =
  (* An empty baseline renders as the header alone — no dangling blank
     separator line — and that rendering re-parses to zero entries. *)
  let text = Baseline.to_string Baseline.empty in
  Alcotest.(check bool) "renders something" true (String.length text > 0);
  Alcotest.(check bool) "no trailing blank section" false
    (Test_cli.contains text "\n\n");
  match Baseline.of_string ~file:"empty" text with
  | Error _ -> Alcotest.fail "empty baseline should re-parse"
  | Ok b -> Alcotest.(check int) "no entries" 0 (List.length (Baseline.entries b))

let baseline_rejects_malformed () =
  let rejects name text =
    match Baseline.of_string ~file:"b" text with
    | Error (_ :: _) -> ()
    | Error [] | Ok _ -> Alcotest.fail (name ^ " should be rejected")
  in
  rejects "unknown rule" "NOT-A-RULE\tlib/x.ml\twhy\n";
  rejects "missing justification" "DET-POLY\tlib/x.ml\n";
  rejects "empty justification" "DET-POLY\tlib/x.ml\t\n";
  rejects "missing path" "DET-POLY\n"

let baseline_acknowledges_findings () =
  (* A baselined finding leaves the report clean; tree-level check uses
     the repo itself below, so here exercise covers + report plumbing
     through a synthetic single-file run. *)
  match
    Baseline.of_string ~file:"b" "DET-POLY\tlib/core/fixture.ml\tfixture\n"
  with
  | Error _ -> Alcotest.fail "baseline should parse"
  | Ok b ->
      let r = solver "let f a b = compare a b\n" in
      check_rules "the fixture's finding" [ Rule.Det_poly ] r;
      List.iter
        (fun (f : Analyze.finding) ->
          Alcotest.(check bool) "entry covers the finding" true
            (Baseline.covers b ~rule:f.Analyze.rule ~path:f.Analyze.path))
        r.Typed.findings

(* -- Typedtree rules ------------------------------------------------------ *)

let dom_escape_typed_positive () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let escape () =\n\
          \  let hits = Hashtbl.create 8 in\n\
          \  let d = Domain.spawn (fun () -> Hashtbl.replace hits 0 1) in\n\
          \  Domain.join d;\n\
          \  Hashtbl.length hits\n" ) ]
  in
  Alcotest.(check (list string))
    "worker mutation of captured table" [ "DOM-ESCAPE" ] (typed_rules t);
  let f = List.hd t.Typed.findings in
  Alcotest.(check string) "reported against the source" "fixture.ml"
    f.Analyze.path;
  Alcotest.(check int) "at the mutation line" 3 f.Analyze.line

let dom_escape_typed_negative () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let lock = Mutex.create ()\n\n\
           let guarded () =\n\
          \  let hits = Hashtbl.create 8 in\n\
          \  let d =\n\
          \    Domain.spawn (fun () ->\n\
          \        Mutex.lock lock;\n\
          \        Hashtbl.replace hits 0 1;\n\
          \        Mutex.unlock lock)\n\
          \  in\n\
          \  Domain.join d;\n\
          \  Hashtbl.length hits\n\n\
           let worker_local () =\n\
          \  let d =\n\
          \    Domain.spawn (fun () ->\n\
          \        let acc = ref 0 in\n\
          \        incr acc;\n\
          \        !acc)\n\
          \  in\n\
          \  Domain.join d\n" ) ]
  in
  Alcotest.(check (list string))
    "guarded and worker-local state are fine" [] (typed_rules t)

let dom_escape_typed_allow () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let allowed () =\n\
          \  let hits = Hashtbl.create 8 in\n\
          \  let d =\n\
          \    Domain.spawn (fun () ->\n\
          \        (Hashtbl.replace hits 0 1 [@soctam.allow \"DOM-ESCAPE\"]))\n\
          \  in\n\
          \  Domain.join d;\n\
          \  Hashtbl.length hits\n" ) ]
  in
  Alcotest.(check (list string)) "allow silences the finding" []
    (typed_rules t);
  Alcotest.(check int) "and counts it" 1 t.Typed.suppressed

let lock_raise_typed_positive () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let lock = Mutex.create ()\n\n\
           let bad tbl =\n\
          \  Mutex.lock lock;\n\
          \  let v = Hashtbl.find tbl 0 in\n\
          \  Mutex.unlock lock;\n\
          \  v\n" ) ]
  in
  Alcotest.(check (list string))
    "raising call under a held lock" [ "LOCK-RAISE" ] (typed_rules t)

let lock_raise_typed_order () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\n\
           let first () =\n\
          \  Mutex.lock a;\n\
          \  Mutex.lock b;\n\
          \  Mutex.unlock b;\n\
          \  Mutex.unlock a\n\n\
           let second () =\n\
          \  Mutex.lock b;\n\
          \  Mutex.lock a;\n\
          \  Mutex.unlock a;\n\
          \  Mutex.unlock b\n" ) ]
  in
  (* Both acquisition sites of the reversed pair are reported. *)
  Alcotest.(check (list string))
    "inconsistent acquisition order"
    [ "LOCK-RAISE"; "LOCK-RAISE" ]
    (typed_rules t)

let lock_raise_typed_negative () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let lock = Mutex.create ()\n\n\
           let good tbl =\n\
          \  Mutex.lock lock;\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> Mutex.unlock lock)\n\
          \    (fun () -> Hashtbl.find tbl 0)\n\n\
           let also_good tbl =\n\
          \  Mutex.lock lock;\n\
          \  let v = Hashtbl.find_opt tbl 0 in\n\
          \  Mutex.unlock lock;\n\
          \  v\n" ) ]
  in
  Alcotest.(check (list string))
    "Fun.protect and non-raising lookups are fine" [] (typed_rules t)

let alloc_hot_typed_positive () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let hot_sum n =\n\
          \  let acc = ref 0 in\n\
          \  for i = 0 to n - 1 do\n\
          \    acc := !acc + i\n\
          \  done;\n\
          \  !acc\n\
           [@@soctam.hot]\n\n\
           let hot_opt n = if n > 0 then Some n else None [@@soctam.hot]\n" ) ]
  in
  Alcotest.(check (list string))
    "ref and option allocations in hot functions"
    [ "ALLOC-HOT"; "ALLOC-HOT" ]
    (typed_rules t)

let alloc_hot_typed_negative () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let rec sum widths n i acc =\n\
          \  if i >= n then acc else sum widths n (i + 1) (acc + widths.(i))\n\
           [@@soctam.hot]\n\n\
           let total widths = sum widths (Array.length widths) 0 0\n\
           [@@soctam.hot]\n\n\
           let cold n = Some n\n\n\
           let allowed n = (ref n [@soctam.allow \"ALLOC-HOT\"]) [@@soctam.hot]\n" ) ]
  in
  Alcotest.(check (list string))
    "alloc-free hot code and cold allocations are fine" [] (typed_rules t);
  Alcotest.(check int) "scoped allow counted" 1 t.Typed.suppressed

let effect_worker_typed_positive () =
  (* The mutation of host-owned state happens in a helper the worker
     only calls — the lexical DOM-ESCAPE rule cannot see it; the
     inferred write effect crossing the spawn boundary can. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          "let fan_out () =\n\
          \  let results = Array.make 2 0 in\n\
          \  let fill i = results.(i) <- i in\n\
          \  let d = Domain.spawn (fun () -> fill 0) in\n\
          \  Domain.join d;\n\
          \  results\n" ) ]
  in
  Alcotest.(check (list string))
    "worker-reachable write to host state" [ "EFFECT-WORKER" ]
    (typed_rules t);
  let f = List.hd t.Typed.findings in
  Alcotest.(check int) "at the mutation line" 3 f.Analyze.line;
  Alcotest.(check bool) "names the inferred effect" true
    (Test_cli.contains f.Analyze.message "writes-mutable")

let effect_worker_typed_negative () =
  (* The creating function itself runs inside the worker, so each call
     owns a fresh accumulator: same write effect, no shared creator. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          "let solve_alone () =\n\
          \  let best = ref 0 in\n\
          \  let explore i = if i > !best then best := i in\n\
          \  explore 1;\n\
          \  !best\n\n\
           let per_worker () =\n\
          \  let d = Domain.spawn (fun () -> solve_alone ()) in\n\
          \  Domain.join d\n" ) ]
  in
  Alcotest.(check (list string))
    "per-call state owned by the worker is private" [] (typed_rules t)

let effect_worker_typed_allow () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "let fan_out () =\n\
          \  let results = Array.make 2 0 in\n\
          \  let fill i = (results.(i) <- i [@soctam.allow \"EFFECT-WORKER\"]) in\n\
          \  let d = Domain.spawn (fun () -> fill 0) in\n\
          \  Domain.join d;\n\
          \  results\n" ) ]
  in
  Alcotest.(check (list string)) "allow silences the finding" []
    (typed_rules t);
  Alcotest.(check int) "and counts it" 1 t.Typed.suppressed

let outcome_drop_typed_positive () =
  (* All three drop forms: a wildcarded resume payload in a match, an
     [ignore] of a whole outcome, and a wildcard top-level binding. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          "module Outcome = struct\n\
          \  type t = Complete | Budget_exhausted of int | Interrupted of int\n\
           end\n\n\
           let status = function\n\
          \  | Outcome.Complete -> 0\n\
          \  | Outcome.Budget_exhausted _ -> 1\n\
          \  | Outcome.Interrupted _ -> 2\n\n\
           let run () = Outcome.Budget_exhausted 1\n\n\
           let drop () = ignore (run ())\n\n\
           let _ = run ()\n" ) ]
  in
  Alcotest.(check (list string))
    "wildcard payloads, ignore, and wildcard binding all flagged"
    [ "OUTCOME-DROP"; "OUTCOME-DROP"; "OUTCOME-DROP"; "OUTCOME-DROP" ]
    (typed_rules t);
  Alcotest.(check (list int))
    "at the drop sites" [ 7; 8; 12; 14 ]
    (List.map (fun (f : Analyze.finding) -> f.Analyze.line) t.Typed.findings)

let outcome_drop_typed_negative () =
  (* Binding the payload is fine, and the module defining the outcome
     type may pattern-match its own constructors freely. *)
  let t =
    typed_run
      [ ( "outcome.ml",
          "type t = Complete | Budget_exhausted of int | Interrupted of int\n\n\
           let checkpoint = function\n\
          \  | Complete -> None\n\
          \  | Budget_exhausted cp_id -> Some cp_id\n\
          \  | Interrupted _ -> None\n" );
        ( "fixture.ml",
          "let resume_at = function\n\
          \  | Outcome.Complete -> None\n\
          \  | Outcome.Budget_exhausted cp | Outcome.Interrupted cp -> Some cp\n"
        ) ]
  in
  Alcotest.(check (list string))
    "defining module and payload bindings are clean" [] (typed_rules t)

let outcome_drop_typed_allow () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "module Outcome = struct\n\
          \  type t = Complete | Budget_exhausted of int | Interrupted of int\n\
           end\n\n\
           let status = function\n\
          \  | Outcome.Complete -> 0\n\
          \  | Outcome.Budget_exhausted _ -> (1 [@soctam.allow \"OUTCOME-DROP\"])\n\
          \  | Outcome.Interrupted cp -> cp\n" ) ]
  in
  Alcotest.(check (list string)) "allow silences the finding" []
    (typed_rules t);
  Alcotest.(check int) "and counts it" 1 t.Typed.suppressed

let engine_caps_typed_positive () =
  (* A dishonest engine: serial caps over a run that spawns a domain. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          "type engine_caps = {\n\
          \  free_tams_only : bool;\n\
          \  imports_tau : bool;\n\
          \  needs_fixed_tams : bool;\n\
          \  parallel : bool;\n\
          \  proves : bool;\n\
           }\n\n\
           module Serial = struct\n\
          \  let caps =\n\
          \    {\n\
          \      free_tams_only = false;\n\
          \      imports_tau = false;\n\
          \      needs_fixed_tams = false;\n\
          \      parallel = false;\n\
          \      proves = false;\n\
          \    }\n\n\
          \  let run () =\n\
          \    let d = Domain.spawn (fun () -> 1) in\n\
          \    Domain.join d\n\
           end\n" ) ]
  in
  Alcotest.(check (list string))
    "serial caps over a pooled run" [ "ENGINE-CAPS" ] (typed_rules t);
  Alcotest.(check (list int))
    "at the caps declaration" [ 10 ]
    (List.map (fun (f : Analyze.finding) -> f.Analyze.line) t.Typed.findings)

let engine_caps_typed_negative () =
  (* Honest declarations: parallel (and proving) caps over a pooled
     run, and serial caps over a run that stays on its domain. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          "type engine_caps = {\n\
          \  free_tams_only : bool;\n\
          \  imports_tau : bool;\n\
          \  needs_fixed_tams : bool;\n\
          \  parallel : bool;\n\
          \  proves : bool;\n\
           }\n\n\
           module Honest = struct\n\
          \  let caps =\n\
          \    {\n\
          \      free_tams_only = false;\n\
          \      imports_tau = false;\n\
          \      needs_fixed_tams = false;\n\
          \      parallel = true;\n\
          \      proves = true;\n\
          \    }\n\n\
          \  let run () =\n\
          \    let d = Domain.spawn (fun () -> 1) in\n\
          \    Domain.join d\n\
           end\n\n\
           module Lazy_serial = struct\n\
          \  let caps =\n\
          \    {\n\
          \      free_tams_only = false;\n\
          \      imports_tau = false;\n\
          \      needs_fixed_tams = false;\n\
          \      parallel = false;\n\
          \      proves = false;\n\
          \    }\n\n\
          \  let run () = 0\n\
           end\n" ) ]
  in
  Alcotest.(check (list string))
    "matching declarations are clean" [] (typed_rules t)

let engine_caps_typed_allow () =
  let t =
    typed_run
      [ ( "fixture.ml",
          "type engine_caps = {\n\
          \  free_tams_only : bool;\n\
          \  imports_tau : bool;\n\
          \  needs_fixed_tams : bool;\n\
          \  parallel : bool;\n\
          \  proves : bool;\n\
           }\n\n\
           module Serial = struct\n\
          \  let caps =\n\
          \    {\n\
          \      free_tams_only = false;\n\
          \      imports_tau = false;\n\
          \      needs_fixed_tams = false;\n\
          \      parallel = false;\n\
          \      proves = false;\n\
          \    }\n\
          \  [@@soctam.allow \"ENGINE-CAPS\"]\n\n\
          \  let run () =\n\
          \    let d = Domain.spawn (fun () -> 1) in\n\
          \    Domain.join d\n\
           end\n" ) ]
  in
  Alcotest.(check (list string)) "allow silences the finding" []
    (typed_rules t);
  Alcotest.(check int) "and counts it" 1 t.Typed.suppressed

let shared_min_stub =
  "module Shared_min = struct\n\
  \  let best = Atomic.make max_int\n\
  \  let get () = Atomic.get best\n\
  \  let improve v = Atomic.set best v\n\
  \  let mirror_get () = Atomic.get best\n\
  \  let mirror_improve v = Atomic.set best v\n\
   end\n\n"

let tau_discipline_typed_positive () =
  (* A hot loop polling the shared atomic directly, and a worker
     exporting tau without the mirror's strict-improvement filter. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          shared_min_stub
          ^ "let hot_poll () = Shared_min.get () [@@soctam.hot]\n\n\
             let publish () =\n\
            \  let d = Domain.spawn (fun () -> Shared_min.improve 3) in\n\
            \  Domain.join d\n" ) ]
  in
  Alcotest.(check (list string))
    "hot direct read and unfiltered worker export"
    [ "TAU-DISCIPLINE"; "TAU-DISCIPLINE" ]
    (typed_rules t);
  Alcotest.(check (list int))
    "at the poll and the export" [ 9; 12 ]
    (List.map (fun (f : Analyze.finding) -> f.Analyze.line) t.Typed.findings)

let tau_discipline_typed_negative () =
  (* The mirror entry points, cold reads and main-thread seeds are the
     sanctioned uses. *)
  let t =
    typed_run
      [ ( "fixture.ml",
          shared_min_stub
          ^ "let hot_poll_good () = Shared_min.mirror_get () [@@soctam.hot]\n\n\
             let cold_poll () = Shared_min.get ()\n\n\
             let seed () = Shared_min.improve 2\n\n\
             let publish_good () =\n\
            \  let d = Domain.spawn (fun () -> Shared_min.mirror_improve 4) in\n\
            \  Domain.join d\n" ) ]
  in
  Alcotest.(check (list string))
    "mirror, cold and main-thread uses are clean" [] (typed_rules t)

let tau_discipline_typed_allow () =
  let t =
    typed_run
      [ ( "fixture.ml",
          shared_min_stub
          ^ "let hot_poll () =\n\
            \  (Shared_min.get () [@soctam.allow \"TAU-DISCIPLINE\"])\n\
             [@@soctam.hot]\n" ) ]
  in
  Alcotest.(check (list string)) "allow silences the finding" []
    (typed_rules t);
  Alcotest.(check int) "and counts it" 1 t.Typed.suppressed

let typed_missing_cmt_is_an_error () =
  (* One compiled source and one with no .cmt: the pass analyzes what it
     can, and the unanalyzed file fails the run instead of passing
     unchecked. *)
  with_scratch_dir (fun dir ->
      write_file dir "good.ml"
        "let escape () =\n\
        \  let hits = Hashtbl.create 8 in\n\
        \  let d = Domain.spawn (fun () -> Hashtbl.replace hits 0 1) in\n\
        \  Domain.join d;\n\
        \  Hashtbl.length hits\n";
      write_file dir "stale.ml" "let x = 1\n";
      let command =
        Printf.sprintf "cd %s && ocamlc -bin-annot -c good.ml 2>&1"
          (Filename.quote dir)
      in
      let ic = Unix.open_process_in command in
      let out = In_channel.input_all ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail ("fixture should compile: " ^ out));
      let t = Typed.run ~root:dir ~sources:[ "good.ml"; "stale.ml" ] in
      Alcotest.(check (list string))
        "the compiled source is still analyzed" [ "DOM-ESCAPE" ]
        (typed_rules t);
      Alcotest.(check int) "one typed file" 1 t.Typed.typed_files;
      match t.Typed.problems with
      | [ v ] ->
          Alcotest.(check string) "an error" "error"
            (Violation.severity_name v.Violation.severity);
          Alcotest.(check string) "of the analysis-error kind"
            "analysis-error"
            (Violation.kind_name v.Violation.kind);
          Alcotest.(check bool) "located at the stale source" true
            (match v.Violation.location with
            | Violation.File ("stale.ml", 1) -> true
            | _ -> false);
          Alcotest.(check bool) "says how to build the .cmt" true
            (Test_cli.contains v.Violation.message "dune build @check")
      | vs ->
          Alcotest.failf "expected exactly one problem, got %d"
            (List.length vs))

(* -- the repository itself ------------------------------------------------ *)

(* Tests run from _build/default/test; ".." is the build-dir mirror of
   the repo root, populated by the source_tree deps in test/dune. *)
let repo_root = ".."

let repo_baseline () =
  match Baseline.load (Filename.concat repo_root "analysis.baseline") with
  | Ok b -> b
  | Error _ -> Alcotest.fail "committed baseline should parse"

let repo_is_clean () =
  let result = Analyze.tree ~baseline:(repo_baseline ()) ~root:repo_root () in
  Alcotest.(check bool)
    ("repo analyzes clean: " ^ Analyze.summary result)
    true
    (Report.ok result.Analyze.report);
  Alcotest.(check (list string))
    "no findings" []
    (List.map
       (fun (f : Analyze.finding) ->
         Printf.sprintf "%s %s:%d" (Rule.name f.Analyze.rule) f.Analyze.path
           f.Analyze.line)
       result.Analyze.findings);
  Alcotest.(check bool)
    (Printf.sprintf "full surface scanned (%d files)" result.Analyze.files)
    true
    (result.Analyze.files > 100);
  Alcotest.(check bool)
    (Printf.sprintf "typed pass covers the tree (%d files)"
       result.Analyze.typed_files)
    true
    (result.Analyze.typed_files > 50);
  Alcotest.(check (list string)) "no stale baseline entries" []
    (List.map
       (fun (e : Baseline.entry) -> e.Baseline.path)
       result.Analyze.stale)

let repo_call_graph () =
  let result = Analyze.tree ~baseline:(repo_baseline ()) ~root:repo_root () in
  let g = result.Analyze.graph in
  let reachable = Typed.reachable g in
  Alcotest.(check bool) "workers reach the chunk evaluator" true
    (List.mem "Partition_evaluate.evaluate_chunk" reachable);
  Alcotest.(check bool) "workers reach the odometer" true
    (List.exists
       (fun n -> n = "Odometer.advance" || n = "Enumerate.Odometer.advance")
       reachable);
  Alcotest.(check bool) "graph has the workers pseudo-node" true
    (List.mem_assoc "<workers>" (Typed.nodes g))

let repo_reachability () =
  let libs = Source.domain_libraries ~root:repo_root in
  Alcotest.(check bool) "core is pool-reachable" true
    (List.mem "lib/core" libs);
  Alcotest.(check bool) "partition is pool-reachable" true
    (List.mem "lib/partition" libs);
  Alcotest.(check bool) "report is not" false (List.mem "lib/report" libs)

let cli_analyze () =
  let code, out = Test_cli.run [ "analyze"; "--root"; repo_root ] in
  Alcotest.(check int) ("soctam analyze: " ^ out) 0 code;
  Alcotest.(check bool) "prints the OK line" true
    (Test_cli.contains out "OK: source analysis")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A scratch repository seeded with one violation per rule family the
   analyzer can hit from a plain tree, both files compiled with ocamlc
   -bin-annot so the analyzer sees their .cmt: data/seed_bad.ml carries
   DET-POLY (plus IFACE, no .mli), and data/seed_typed.ml carries a
   positive and a negative fixture for each of DOM-ESCAPE, LOCK-RAISE,
   ALLOC-HOT, EFFECT-WORKER, OUTCOME-DROP, ENGINE-CAPS and
   TAU-DISCIPLINE. *)
let with_seeded_tree f =
  let root = Filename.temp_file "soctam_analysis" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree root)
    (fun () ->
      write_file root "dune-project" "(lang dune 3.0)\n";
      Unix.mkdir (Filename.concat root "lib") 0o755;
      Unix.mkdir (Filename.concat root "lib/core") 0o755;
      write_file root "lib/core/bad.ml" (read_file "data/seed_bad.ml");
      write_file root "lib/core/typed_fixture.ml"
        (read_file "data/seed_typed.ml");
      let compile =
        Printf.sprintf
          "cd %s && ocamlc -bin-annot -c bad.ml typed_fixture.ml 2>&1"
          (Filename.quote (Filename.concat root "lib/core"))
      in
      Alcotest.(check int) "seeded fixture compiles" 0 (Sys.command compile);
      f root)

let cli_analyze_finds_seeded_violation () =
  (* The CLI must exit non-zero and name every seeded rule, syntactic
     and typed. *)
  with_seeded_tree (fun root ->
      let code, out = Test_cli.run [ "analyze"; "--root"; root ] in
      Alcotest.(check int) ("exit code: " ^ out) 1 code;
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            ("names the " ^ kind ^ " finding")
            true
            (Test_cli.contains out kind))
        [
          "polymorphic-comparison";
          "missing-interface";
          "domain-escape";
          "lock-discipline";
          "hot-allocation";
          "worker-effect";
          "outcome-dropped";
          "engine-caps-mismatch";
          "tau-discipline";
        ];
      Alcotest.(check bool) "every source was analyzed" false
        (Test_cli.contains out "no .cmt for this source"))

let syntax_error_is_reported () =
  (* A source that does not compile has no .cmt, so nothing but IFACE
     could check it: the run fails with an error located at the file,
     over and above the seeded tree's twelve. *)
  with_seeded_tree (fun root ->
      write_file root "lib/core/broken.ml" "let f = (\n";
      let code, out =
        Test_cli.run_stdout [ "analyze"; "--root"; root; "--json" ]
      in
      Alcotest.(check int) "exit code" 1 code;
      let json =
        match Json.parse out with
        | Ok json -> json
        | Error msg -> Alcotest.fail ("report is strict JSON: " ^ msg)
      in
      let str v path =
        List.fold_left
          (fun v k -> Option.bind v (Json.member k))
          (Some v) path
        |> Fun.flip Option.bind Json.to_string_opt
      in
      let at_broken =
        Option.bind (Json.member "violations" json) Json.to_list
        |> Option.value ~default:[]
        |> List.filter (fun v ->
               str v [ "location"; "path" ] = Some "lib/core/broken.ml")
      in
      let not_analyzed v =
        str v [ "severity" ] = Some "error"
        && Option.fold ~none:false
             ~some:(fun m -> Test_cli.contains m "no .cmt for this source")
             (str v [ "message" ])
      in
      Alcotest.(check int) "one missing-.cmt error at lib/core/broken.ml" 1
        (List.length (List.filter not_analyzed at_broken));
      Alcotest.(check (option int))
        "seeded twelve + broken.ml's IFACE and missing .cmt" (Some 14)
        (Option.bind (Json.member "errors" json) Json.to_int))

let cli_analyze_json_golden () =
  (* Strict-JSON output over the seeded tree, byte-for-byte: stable
     finding order (path, then line, then rule) and stable member
     order within each violation. *)
  with_seeded_tree (fun root ->
      let code, out =
        Test_cli.run_stdout [ "analyze"; "--root"; root; "--json" ]
      in
      Alcotest.(check int) "json exit code" 1 code;
      Alcotest.(check string)
        "matches data/analyze_seeded.json"
        (read_file "data/analyze_seeded.json")
        out;
      match Json.parse out with
      | Error msg -> Alcotest.fail ("golden output is strict JSON: " ^ msg)
      | Ok json ->
          Alcotest.(check (option int))
            "twelve findings" (Some 12)
            (Option.bind (Json.member "errors" json) Json.to_int))

let cli_analyze_sarif_golden () =
  (* SARIF output over the seeded tree, byte-for-byte: same finding
     order as the JSON report, one reportingDescriptor per rule that
     fired, and strict-JSON well-formedness. *)
  with_seeded_tree (fun root ->
      let sarif_file = Filename.temp_file "soctam_sarif" ".sarif" in
      Fun.protect
        ~finally:(fun () -> Sys.remove sarif_file)
        (fun () ->
          let code, out =
            Test_cli.run [ "analyze"; "--root"; root; "--sarif"; sarif_file ]
          in
          Alcotest.(check int) ("sarif exit code: " ^ out) 1 code;
          let sarif = read_file sarif_file in
          Alcotest.(check string) "matches data/analyze_seeded.sarif"
            (read_file "data/analyze_seeded.sarif")
            sarif;
          match Json.parse sarif with
          | Error msg -> Alcotest.fail ("sarif is strict JSON: " ^ msg)
          | Ok json ->
              Alcotest.(check (option string)) "sarif version" (Some "2.1.0")
                (Option.bind (Json.member "version" json) Json.to_string_opt)))

let cli_analyze_call_graph () =
  with_seeded_tree (fun root ->
      let graph_file = Filename.temp_file "soctam_graph" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove graph_file)
        (fun () ->
          let _code, _out =
            Test_cli.run
              [ "analyze"; "--root"; root; "--call-graph"; graph_file ]
          in
          match Json.parse (read_file graph_file) with
          | Error msg -> Alcotest.fail ("call graph is strict JSON: " ^ msg)
          | Ok json ->
              let nodes =
                match Json.member "nodes" json with
                | Some (Json.Obj fields) -> List.map fst fields
                | _ -> Alcotest.fail "nodes member is an object"
              in
              Alcotest.(check bool) "has the workers pseudo-node" true
                (List.mem "<workers>" nodes);
              Alcotest.(check bool) "has the fixture's functions" true
                (List.mem "Typed_fixture.escape" nodes);
              Alcotest.(check bool) "domain_reachable is a list" true
                (match Json.member "domain_reachable" json with
                | Some (Json.List _) -> true
                | _ -> false)))

let cli_prune_baseline_round_trip () =
  (* Baseline every seeded finding plus one stale entry; the analyzer
     must come back clean, --prune-baseline must rewrite the file with
     only the live entries, and the rewritten file must re-parse. *)
  with_seeded_tree (fun root ->
      let live =
        [
          "DET-POLY\tlib/core/bad.ml\tseeded fixture";
          "IFACE\tlib/core/bad.ml\tseeded fixture";
          "ALLOC-HOT\tlib/core/typed_fixture.ml\tseeded fixture";
          "DOM-ESCAPE\tlib/core/typed_fixture.ml\tseeded fixture";
          "EFFECT-WORKER\tlib/core/typed_fixture.ml\tseeded fixture";
          "ENGINE-CAPS\tlib/core/typed_fixture.ml\tseeded fixture";
          "IFACE\tlib/core/typed_fixture.ml\tseeded fixture";
          "LOCK-RAISE\tlib/core/typed_fixture.ml\tseeded fixture";
          "OUTCOME-DROP\tlib/core/typed_fixture.ml\tseeded fixture";
          "TAU-DISCIPLINE\tlib/core/typed_fixture.ml\tseeded fixture";
        ]
      in
      let baseline_path = Filename.concat root "analysis.baseline" in
      write_file root "analysis.baseline"
        (String.concat "\n"
           (live @ [ "DET-ENTROPY\tlib/core/gone.ml\tstale entry to prune" ])
        ^ "\n");
      let code, out = Test_cli.run [ "analyze"; "--root"; root ] in
      Alcotest.(check int) ("baselined tree is clean: " ^ out) 0 code;
      Alcotest.(check bool) "stale entry reported" true
        (Test_cli.contains out "gone.ml");
      let prune_code, prune_out =
        Test_cli.run [ "analyze"; "--root"; root; "--prune-baseline" ]
      in
      Alcotest.(check int) ("prune exit code: " ^ prune_out) 0 prune_code;
      Alcotest.(check bool) "reports one pruned entry" true
        (Test_cli.contains prune_out "pruned 1 stale entry");
      (match Baseline.load baseline_path with
      | Error _ -> Alcotest.fail "pruned baseline should re-parse"
      | Ok b ->
          Alcotest.(check int) "live entries survive" (List.length live)
            (List.length (Baseline.entries b));
          Alcotest.(check bool) "stale entry is gone" false
            (Baseline.covers b ~rule:Rule.Det_entropy
               ~path:"lib/core/gone.ml"));
      (* Pruning an already-pruned baseline is the identity. *)
      let again_code, again_out =
        Test_cli.run [ "analyze"; "--root"; root; "--prune-baseline" ]
      in
      Alcotest.(check int) "second prune exit code" 0 again_code;
      Alcotest.(check bool) "second prune is a no-op" true
        (Test_cli.contains again_out "pruned 0 stale entries"))

let cli_prune_baseline_to_empty () =
  (* Pruning a baseline whose every entry is stale must leave the
     header alone — no blank separator before a section that no longer
     exists — and the header-only file must still load. *)
  let root = Filename.temp_file "soctam_analysis" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree root)
    (fun () ->
      write_file root "dune-project" "(lang dune 3.0)\n";
      write_file root "analysis.baseline"
        "DET-POLY\tlib/core/gone.ml\tstale entry to prune\n";
      let baseline_path = Filename.concat root "analysis.baseline" in
      let code, out =
        Test_cli.run [ "analyze"; "--root"; root; "--prune-baseline" ]
      in
      Alcotest.(check int) ("prune exit code: " ^ out) 0 code;
      Alcotest.(check string) "file is the header-only rendering"
        (Baseline.to_string Baseline.empty)
        (read_file baseline_path);
      match Baseline.load baseline_path with
      | Error _ -> Alcotest.fail "pruned-empty baseline should re-parse"
      | Ok b ->
          Alcotest.(check int) "no entries left" 0
            (List.length (Baseline.entries b)))

let suite =
  [
    test "rule catalog round-trips" rule_names;
    test "DET-POLY flags polymorphic comparison" det_poly_positive;
    test "DET-POLY ignores typed comparison" det_poly_negative;
    test "DET-POLY judges resolved paths" det_poly_resolved;
    test "DET-POLY flags structured orderings" det_poly_ordering_positive;
    test "DET-POLY ignores integer orderings" det_poly_ordering_negative;
    test "DET-POLY flags orderings at a type variable"
      det_poly_tvar_positive;
    test "DET-POLY ignores instantiated orderings" det_poly_tvar_negative;
    test "DET-ENTROPY flags entropy sources" det_entropy_positive;
    test "DET-ENTROPY honors exemptions" det_entropy_negative;
    test "DET-ENTROPY sees through module aliases" det_entropy_alias;
    test "DOM-SHARED flags top-level mutable state" dom_shared_positive;
    test "DOM-SHARED honors guards and scope" dom_shared_negative;
    test "allow attribute works at all scopes" suppression_scopes;
    test "allow attribute is rule-scoped" suppression_is_scoped;
    test "allow attribute requires a rule id" suppression_requires_rule_id;
    test "baseline parses and round-trips" baseline_round_trip;
    test "empty baseline renders header-only and re-parses"
      baseline_empty_round_trip;
    test "baseline rejects malformed entries" baseline_rejects_malformed;
    test "baseline covers findings" baseline_acknowledges_findings;
    test "DOM-ESCAPE flags worker-captured mutation" dom_escape_typed_positive;
    test "DOM-ESCAPE honors guards and worker-local state"
      dom_escape_typed_negative;
    test "DOM-ESCAPE honors scoped allow" dom_escape_typed_allow;
    test "LOCK-RAISE flags raising calls under a lock"
      lock_raise_typed_positive;
    test "LOCK-RAISE flags inconsistent lock order" lock_raise_typed_order;
    test "LOCK-RAISE honors Fun.protect" lock_raise_typed_negative;
    test "ALLOC-HOT flags allocation in hot functions"
      alloc_hot_typed_positive;
    test "ALLOC-HOT ignores alloc-free and cold code"
      alloc_hot_typed_negative;
    test "EFFECT-WORKER flags interprocedural worker writes"
      effect_worker_typed_positive;
    test "EFFECT-WORKER ignores worker-owned state"
      effect_worker_typed_negative;
    test "EFFECT-WORKER honors scoped allow" effect_worker_typed_allow;
    test "OUTCOME-DROP flags discarded resume payloads"
      outcome_drop_typed_positive;
    test "OUTCOME-DROP ignores bindings and the defining module"
      outcome_drop_typed_negative;
    test "OUTCOME-DROP honors scoped allow" outcome_drop_typed_allow;
    test "ENGINE-CAPS flags dishonest capability records"
      engine_caps_typed_positive;
    test "ENGINE-CAPS ignores honest declarations"
      engine_caps_typed_negative;
    test "ENGINE-CAPS honors scoped allow" engine_caps_typed_allow;
    test "TAU-DISCIPLINE flags mirror bypasses"
      tau_discipline_typed_positive;
    test "TAU-DISCIPLINE ignores sanctioned uses"
      tau_discipline_typed_negative;
    test "TAU-DISCIPLINE honors scoped allow" tau_discipline_typed_allow;
    test "typed pass reports a missing .cmt as an error"
      typed_missing_cmt_is_an_error;
    test "repository analyzes clean" repo_is_clean;
    test "repository call graph reaches the solver core" repo_call_graph;
    test "pool reachability from dune files" repo_reachability;
    test "cli: analyze on the repository" cli_analyze;
    test "cli: analyze fails on a seeded violation"
      cli_analyze_finds_seeded_violation;
    test "syntax errors become diagnostics" syntax_error_is_reported;
    test "cli: analyze --json matches the golden output"
      cli_analyze_json_golden;
    test "cli: analyze --sarif matches the golden output"
      cli_analyze_sarif_golden;
    test "cli: analyze --call-graph emits strict JSON" cli_analyze_call_graph;
    test "cli: analyze --prune-baseline round-trips"
      cli_prune_baseline_round_trip;
    test "cli: analyze --prune-baseline prunes to empty"
      cli_prune_baseline_to_empty;
  ]
