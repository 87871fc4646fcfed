(* Tests for Soctam_report: table rendering, the transcribed paper data,
   and the cheap experiment runners. *)

module Texttable = Soctam_report.Texttable
module Paper_ref = Soctam_report.Paper_ref
module Experiments = Soctam_report.Experiments

let test case f = Alcotest.test_case case `Quick f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* -- Texttable --------------------------------------------------------------- *)

let table_renders_aligned () =
  let t =
    Texttable.create ~title:"demo"
      ~columns:[ ("name", Texttable.Left); ("value", Texttable.Right) ]
  in
  Texttable.add_row t [ "a"; "1" ];
  Texttable.add_row t [ "long-name"; "12345" ];
  let s = Texttable.render t in
  Alcotest.(check bool) "title" true (contains s "demo");
  Alcotest.(check bool) "row" true (contains s "long-name  12345");
  Alcotest.(check bool) "right aligned" true (contains s "a              1")

let table_rejects_bad_row () =
  let t = Texttable.create ~title:"x" ~columns:[ ("a", Texttable.Left) ] in
  match Texttable.add_row t [ "1"; "2" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let table_notes_render () =
  let t = Texttable.create ~title:"x" ~columns:[ ("a", Texttable.Left) ] in
  Texttable.add_row t [ "1" ];
  Texttable.add_note t "hello";
  Alcotest.(check bool) "note" true (contains (Texttable.render t) "note: hello")

let markdown_rendering () =
  let t =
    Texttable.create ~title:"md"
      ~columns:[ ("a", Texttable.Left); ("b", Texttable.Right) ]
  in
  Texttable.add_row t [ "x|y"; "1" ];
  Texttable.add_note t "n";
  let s = Texttable.render_markdown t in
  Alcotest.(check bool) "title bold" true (contains s "**md**");
  Alcotest.(check bool) "alignment row" true (contains s "| :--- | ---: |");
  Alcotest.(check bool) "pipe escaped" true (contains s "x\\|y");
  Alcotest.(check bool) "note italic" true (contains s "*n*")

let csv_rendering () =
  let t =
    Texttable.create ~title:"c"
      ~columns:[ ("a", Texttable.Left); ("b", Texttable.Right) ]
  in
  Texttable.add_row t [ "plain"; "has,comma" ];
  Texttable.add_row t [ "has\"quote"; "2" ];
  let s = Texttable.render_csv t in
  Alcotest.(check bool) "comment title" true (contains s "# c");
  Alcotest.(check bool) "header" true (contains s "a,b");
  Alcotest.(check bool) "quoted comma" true (contains s "plain,\"has,comma\"");
  Alcotest.(check bool) "doubled quote" true (contains s "\"has\"\"quote\",2")

(* -- Paper_ref ---------------------------------------------------------------- *)

let widths_sweep () =
  Alcotest.(check (list int)) "sweep" [ 16; 24; 32; 40; 48; 56; 64 ]
    Paper_ref.widths

let fixed_rows_present () =
  List.iter
    (fun (soc, tams) ->
      List.iter
        (fun method_ ->
          let rows = Paper_ref.fixed ~soc ~tams ~method_ in
          Alcotest.(check int)
            (Printf.sprintf "%s B=%d rows" soc tams)
            7 (List.length rows))
        [ `Exhaustive; `New ])
    [ ("d695", 2); ("d695", 3); ("p21241", 2); ("p31108", 2); ("p31108", 3);
      ("p93791", 2); ("p93791", 3) ]

let fixed_rows_absent_for_unreported () =
  (* The paper has no p21241 B = 3 table: the exhaustive method never
     finished there. *)
  Alcotest.(check int) "p21241 B=3" 0
    (List.length (Paper_ref.fixed ~soc:"p21241" ~tams:3 ~method_:`Exhaustive));
  Alcotest.(check int) "unknown soc" 0
    (List.length (Paper_ref.fixed ~soc:"nope" ~tams:2 ~method_:`New))

let known_anchor_values () =
  let d695_new = Paper_ref.fixed ~soc:"d695" ~tams:2 ~method_:`New in
  let first = List.hd d695_new in
  Alcotest.(check int) "d695 W=16 new" 45055 first.Paper_ref.time;
  let p93791 = Paper_ref.npaw ~soc:"p93791" in
  let last = List.nth p93791 6 in
  Alcotest.(check int) "p93791 W=64 npaw" 473997 last.Paper_ref.time;
  Alcotest.(check string) "partition" "15+23+26" last.Paper_ref.partition

let npaw_rows_present () =
  List.iter
    (fun soc ->
      Alcotest.(check int) (soc ^ " npaw rows") 7
        (List.length (Paper_ref.npaw ~soc)))
    [ "d695"; "p21241"; "p31108"; "p93791" ]

let table1_shape () =
  Alcotest.(check int) "six rows" 6 (List.length Paper_ref.table1);
  let r = List.hd Paper_ref.table1 in
  Alcotest.(check int) "W" 44 r.Paper_ref.w1;
  Alcotest.(check int) "estimate B=6" 1909 r.Paper_ref.p_est_b6

let saturation_constant () =
  Alcotest.(check int) "544579" 544579 Paper_ref.p31108_saturation_time

let d695_architectures_are_wellformed () =
  List.iter
    (fun (method_, tams) ->
      let rows = Paper_ref.d695_architectures ~method_ ~tams in
      Alcotest.(check int) "seven rows" 7 (List.length rows);
      List.iter
        (fun (r : Paper_ref.architecture_row) ->
          let b = Array.length r.Paper_ref.widths in
          Alcotest.(check int) "partition sums to W" r.Paper_ref.aw
            (Soctam_util.Intutil.sum r.Paper_ref.widths);
          Alcotest.(check int) "ten cores" 10
            (Array.length r.Paper_ref.assignment);
          Alcotest.(check bool) "assignment in range" true
            (Array.for_all
               (fun j -> j >= 0 && j < b)
               r.Paper_ref.assignment);
          (* The published vectors build valid architectures on d695. *)
          let arch =
            Soctam_tam.Architecture.make ~soc:Soctam_soc_data.D695.soc
              ~widths:r.Paper_ref.widths ~assignment:r.Paper_ref.assignment
          in
          Alcotest.(check bool) "positive time" true
            (arch.Soctam_tam.Architecture.time > 0))
        rows)
    [ (`Exhaustive, Some 2); (`New, Some 2); (`Exhaustive, Some 3);
      (`New, Some 3); (`Npaw, None) ];
  Alcotest.(check int) "wrong B yields nothing" 0
    (List.length (Paper_ref.d695_architectures ~method_:`New ~tams:(Some 4)))

(* -- Experiments (cheap subset) ------------------------------------------------ *)

let ctx =
  lazy (Experiments.context ~exhaustive_budget:5. ~widths:[ 16; 24 ] ())

let experiment_ids_documented () =
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " described")
        true
        (String.length (Experiments.description id) > 5))
    Experiments.table_ids;
  (match Experiments.description "bogus" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found")

let ranges_tables_render () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (id, soc) ->
      let s = Texttable.render (Experiments.run ctx id) in
      Alcotest.(check bool) (id ^ " logic row") true (contains s "logic");
      Alcotest.(check bool) (id ^ " memory row") true (contains s "memory");
      Alcotest.(check bool)
        (id ^ " mentions complexity target")
        true
        (contains s (String.sub soc 1 (String.length soc - 1))))
    [ ("t4", "p21241"); ("t8", "p31108"); ("t14", "p93791") ]

let d695_table_renders () =
  let ctx = Lazy.force ctx in
  let s = Texttable.render (Experiments.run ctx "t2") in
  Alcotest.(check bool) "has paper delta column" true (contains s "paper dT%");
  (* W limited to 16 and 24 by the context: 2 TAM counts x 2 widths. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "four data rows" true (List.length lines >= 6)

let cells_are_memoized () =
  let ctx = Lazy.force ctx in
  let a = Experiments.exhaustive_cell ctx ~soc:"d695" ~tams:2 ~w:16 in
  let b = Experiments.exhaustive_cell ctx ~soc:"d695" ~tams:2 ~w:16 in
  Alcotest.(check bool) "same cell" true (a == b)

let new_cell_matches_pipeline () =
  let ctx = Lazy.force ctx in
  let cell = Experiments.new_fixed_cell ctx ~soc:"d695" ~tams:2 ~w:16 in
  Alcotest.(check int) "partition sums to W" 16
    (Soctam_util.Intutil.sum cell.Experiments.partition);
  Alcotest.(check bool) "time positive" true (cell.Experiments.time > 0)

let npaw_cell_shape () =
  let ctx = Lazy.force ctx in
  let cell = Experiments.npaw_cell ctx ~soc:"d695" ~w:16 in
  Alcotest.(check int) "partition sums to W" 16
    (Soctam_util.Intutil.sum cell.Experiments.partition);
  Alcotest.(check bool) "at most 10 TAMs" true
    (Array.length cell.Experiments.partition <= 10)

let exhaustive_no_worse_than_new () =
  let ctx = Lazy.force ctx in
  let exh = Experiments.exhaustive_cell ctx ~soc:"d695" ~tams:2 ~w:24 in
  let nw = Experiments.new_fixed_cell ctx ~soc:"d695" ~tams:2 ~w:24 in
  Alcotest.(check bool) "exhaustive <= new" true
    (exh.Experiments.time <= nw.Experiments.time)

(* The cited ablations through the same dispatcher, on the test context
   whose sweep stops at W = 24: each ablation reads a table wide enough
   for its own widths (up to 64). ab_tau and ab_enum are left to
   [soctam tables]; ab_enum alone walks 15.4 M compositions. *)
let ablations_pinned () =
  let ctx = Lazy.force ctx in
  let cells id prefix =
    let words line = String.split_on_char ' ' line |> List.filter (( <> ) "") in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    let n = List.length prefix in
    let s = Texttable.render (Experiments.run ctx id) in
    match
      List.find_opt
        (fun line ->
          let w = words line in
          List.length w > n && List.filteri (fun i _ -> i < n) w = prefix)
        (String.split_on_char '\n' s)
    with
    | Some line -> drop n (words line)
    | None -> Alcotest.failf "%s: no row %s" id (String.concat " " prefix)
  in
  let check id prefix expected =
    Alcotest.(check (list string))
      (id ^ " " ^ String.concat " " prefix)
      expected (cells id prefix)
  in
  check "ab_ties" [ "d695"; "16+16+16" ]
    [ "17473"; "17473"; "17473"; "17473"; "17473" ];
  check "ab_ties" [ "p31108"; "8+16+24" ]
    [ "933015"; "1203297"; "895695"; "895695"; "841825" ];
  check "ab_tams" [ "d695" ]
    [ "35753"; "22615"; "17473"; "16956"; "16956"; "16956"; "16956" ];
  check "ab_final" [ "p31108"; "32" ] [ "978917"; "919062"; "6.11" ]

let unknown_table_id () =
  let ctx = Lazy.force ctx in
  match Experiments.run ctx "t99" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* -- Gantt --------------------------------------------------------------------- *)

module Gantt = Soctam_report.Gantt

let gantt_item label lane start finish =
  { Gantt.label; lane; start; finish }

let gantt_renders_bars () =
  let s =
    Gantt.render ~columns:10 ~lanes:2 ~total:10
      [ gantt_item "a" 0 0 5; gantt_item "b" 1 5 10 ]
  in
  Alcotest.(check bool) "lane 1 bar" true (contains s "|aaaaa-----|");
  Alcotest.(check bool) "lane 2 bar" true (contains s "|-----bbbbb|");
  Alcotest.(check bool) "axis" true (contains s "10 cycles")

let gantt_scales_times () =
  let s =
    Gantt.render ~columns:10 ~lanes:1 ~total:100 [ gantt_item "x" 0 0 50 ]
  in
  Alcotest.(check bool) "half filled" true (contains s "|xxxxx-----|")

let gantt_zero_duration () =
  let s =
    Gantt.render ~columns:10 ~lanes:1 ~total:10 [ gantt_item "x" 0 3 3 ]
  in
  Alcotest.(check bool) "nothing drawn" true (contains s "|----------|")

let gantt_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Gantt.render ~lanes:0 ~total:10 []);
  invalid (fun () -> Gantt.render ~lanes:1 ~total:0 []);
  invalid (fun () -> Gantt.render ~lanes:1 ~total:10 [ gantt_item "x" 1 0 5 ]);
  invalid (fun () -> Gantt.render ~lanes:1 ~total:10 [ gantt_item "x" 0 5 11 ]);
  invalid (fun () -> Gantt.render ~lanes:1 ~total:10 [ gantt_item "x" 0 7 5 ])

let suite =
  [
    test "texttable: alignment" table_renders_aligned;
    test "texttable: bad row" table_rejects_bad_row;
    test "texttable: notes" table_notes_render;
    test "texttable: markdown" markdown_rendering;
    test "texttable: csv" csv_rendering;
    test "paper_ref: widths" widths_sweep;
    test "paper_ref: fixed rows present" fixed_rows_present;
    test "paper_ref: unreported combos empty" fixed_rows_absent_for_unreported;
    test "paper_ref: anchor values" known_anchor_values;
    test "paper_ref: npaw rows" npaw_rows_present;
    test "paper_ref: table1 shape" table1_shape;
    test "paper_ref: saturation constant" saturation_constant;
    test "paper_ref: d695 architectures well-formed" d695_architectures_are_wellformed;
    test "experiments: ids documented" experiment_ids_documented;
    test "experiments: ranges tables" ranges_tables_render;
    test "experiments: d695 table" d695_table_renders;
    test "experiments: memoization" cells_are_memoized;
    test "experiments: new cell consistent" new_cell_matches_pipeline;
    test "experiments: npaw cell shape" npaw_cell_shape;
    test "experiments: exhaustive dominates" exhaustive_no_worse_than_new;
    test "experiments: ablations pinned" ablations_pinned;
    test "experiments: unknown id" unknown_table_id;
    test "gantt: bars" gantt_renders_bars;
    test "gantt: scaling" gantt_scales_times;
    test "gantt: zero duration" gantt_zero_duration;
    test "gantt: validation" gantt_validation;
  ]
