(* Tests for Soctam_partition: counting and enumeration of integer
   partitions, including the paper's estimate formula and the Figure 3
   odometer. *)

module Count = Soctam_partition.Count
module Enumerate = Soctam_partition.Enumerate

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

(* -- counting ------------------------------------------------------------ *)

let exact_small_values () =
  let check n k expected =
    Alcotest.(check int)
      (Printf.sprintf "p(%d,%d)" n k)
      expected
      (Count.exact ~total:n ~parts:k)
  in
  check 1 1 1;
  check 5 1 1;
  check 5 5 1;
  check 5 2 2;
  (* 1+4, 2+3 *)
  check 8 4 5;
  (* the paper's W=8, B=4 example *)
  check 10 3 8;
  check 6 3 3;
  check 0 0 1;
  check 5 6 0;
  check 5 0 0

let exact_at_most_and_all () =
  Alcotest.(check int) "p(10) = 42" 42 (Count.all 10);
  Alcotest.(check int) "p(5) = 7" 7 (Count.all 5);
  Alcotest.(check int) "at_most sums" (Count.all 12)
    (Count.at_most ~total:12 ~max_parts:12);
  Alcotest.(check int) "at most 2 of 10" (1 + 5)
    (Count.at_most ~total:10 ~max_parts:2)

let exact_overflow_is_an_error () =
  let contains msg needle =
    let n = String.length needle in
    List.exists
      (fun i -> String.sub msg i n = needle)
      (List.init (String.length msg - n + 1) Fun.id)
  in
  let overflows total parts =
    match Count.exact ~total ~parts with
    | n -> Alcotest.failf "p(%d, %d) = %d did not overflow" total parts n
    | exception Invalid_argument msg ->
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "%S names %S" msg needle)
              true (contains msg needle))
          [
            Printf.sprintf "total = %d" total; Printf.sprintf "parts = %d" parts;
          ]
  in
  overflows 512 27;
  overflows 1000 15;
  (* The memo stays sound after an overflowing query. *)
  Alcotest.(check int) "p(10,3) after overflow" 8 (Count.exact ~total:10 ~parts:3);
  Alcotest.(check bool) "p(300, 27) still fits" true
    (Count.exact ~total:300 ~parts:27 > 0);
  match Count.at_most ~total:1000 ~max_parts:1000 with
  | n -> Alcotest.failf "p(1000) = %d did not overflow" n
  | exception Invalid_argument _ -> ()

let closed_forms =
  QCheck.Test.make ~name:"p(n,2) and p(n,3) closed forms" ~count:200
    QCheck.(int_range 2 120)
    (fun n ->
      (* [Count.exact] answers two parts with [exact_two] itself, so
         that closed form is checked against the enumeration. *)
      Count.exact_two n = List.length (Enumerate.to_list ~total:n ~parts:2)
      && (n < 3 || Count.exact_three n = Count.exact ~total:n ~parts:3))

let recurrence_property =
  QCheck.Test.make ~name:"p(n,k) = p(n-1,k-1) + p(n-k,k)" ~count:200
    QCheck.(pair (int_range 4 80) (int_range 2 8))
    (fun (n, k) ->
      QCheck.assume (k < n);
      Count.exact ~total:n ~parts:k
      = Count.exact ~total:(n - 1) ~parts:(k - 1)
        + Count.exact ~total:(n - k) ~parts:k)

let estimate_matches_paper_table1 () =
  (* The paper's Table 1 header columns are W^(B-1)/(B!(B-1)!) for B = 6
     and B = 8; reproducing its printed values pins down the formula. *)
  let check w b expected =
    Alcotest.(check int)
      (Printf.sprintf "estimate W=%d B=%d" w b)
      expected
      (int_of_float (Count.estimate ~total:w ~parts:b))
  in
  check 44 6 1908;
  check 48 6 2949;
  check 64 6 12427;
  check 64 8 21642;
  check 60 8 13775

let estimate_monotone () =
  Alcotest.(check bool) "grows with W" true
    (Count.estimate ~total:64 ~parts:5 > Count.estimate ~total:44 ~parts:5)

(* -- enumeration --------------------------------------------------------- *)

let valid_partition ~total widths =
  Array.length widths > 0
  && Array.for_all (fun w -> w >= 1) widths
  && Soctam_util.Intutil.sum widths = total
  &&
  let ok = ref true in
  for i = 1 to Array.length widths - 1 do
    if widths.(i - 1) > widths.(i) then ok := false
  done;
  !ok

let fold_is_complete_and_unique =
  QCheck.Test.make ~name:"fold: valid, unique, counted" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 7))
    (fun (total, parts) ->
      let seen = Hashtbl.create 64 in
      let n =
        Enumerate.fold ~total ~parts ~init:0 ~f:(fun acc w ->
            if not (valid_partition ~total w) then
              QCheck.Test.fail_report "invalid partition";
            let key = Array.to_list w in
            if Hashtbl.mem seen key then
              QCheck.Test.fail_report "duplicate partition";
            Hashtbl.add seen key ();
            acc + 1)
      in
      n = Count.exact ~total ~parts)

let fold_reuses_buffer_safely () =
  (* to_list must return fresh arrays even though fold reuses one. *)
  let all = Enumerate.to_list ~total:8 ~parts:3 in
  let distinct = List.sort_uniq compare (List.map Array.to_list all) in
  Alcotest.(check int) "all distinct" (List.length all) (List.length distinct)

let fold_lexicographic () =
  let all = Enumerate.to_list ~total:12 ~parts:3 in
  let rec ordered = function
    | a :: (b :: _ as rest) -> compare a b < 0 && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "lexicographic order" true
    (ordered (List.map Array.to_list all))

let paper_example_sequence () =
  (* W = 8, B = 4: (1,1,1,5), (1,1,2,4), (1,1,3,3), then the bound stops
     (1,1,4,2) from appearing (paper, Section 3.1). *)
  let all = Enumerate.to_list ~total:8 ~parts:4 |> List.map Array.to_list in
  Alcotest.(check (list (list int)))
    "exact sequence"
    [ [ 1; 1; 1; 5 ]; [ 1; 1; 2; 4 ]; [ 1; 1; 3; 3 ]; [ 1; 2; 2; 3 ];
      [ 2; 2; 2; 2 ] ]
    all

let degenerate_enumerations () =
  Alcotest.(check int) "parts > total" 0
    (List.length (Enumerate.to_list ~total:3 ~parts:4));
  Alcotest.(check (list (list int)))
    "parts = total" [ [ 1; 1; 1 ] ]
    (Enumerate.to_list ~total:3 ~parts:3 |> List.map Array.to_list);
  Alcotest.(check (list (list int)))
    "single part" [ [ 9 ] ]
    (Enumerate.to_list ~total:9 ~parts:1 |> List.map Array.to_list)

let odometer_matches_fold =
  QCheck.Test.make ~name:"odometer enumerates the same sequence as fold"
    ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 7))
    (fun (total, parts) ->
      let from_fold =
        Enumerate.to_list ~total ~parts |> List.map Array.to_list
      in
      let from_odometer =
        match Enumerate.Odometer.create ~total ~parts with
        | None -> []
        | Some o ->
            let acc = ref [] in
            let continue = ref true in
            while !continue do
              acc := Array.to_list (Enumerate.Odometer.current o) :: !acc;
              continue := Enumerate.Odometer.advance o
            done;
            List.rev !acc
      in
      from_fold = from_odometer)

let compositions_match_fold =
  QCheck.Test.make
    ~name:"compositions baseline: same unique set, C(n-1,k-1) generated"
    ~count:60
    QCheck.(pair (int_range 1 18) (int_range 1 5))
    (fun (total, parts) ->
      let reference =
        Enumerate.to_list ~total ~parts
        |> List.map Array.to_list |> List.sort compare
      in
      let from_compositions, stats =
        Enumerate.Compositions.fold ~total ~parts ~init:[] ~f:(fun acc w ->
            Array.to_list w :: acc)
      in
      let binomial n k =
        let rec go acc i =
          if i > k then acc else go (acc * (n - k + i) / i) (i + 1)
        in
        if k < 0 || k > n then 0 else go 1 1
      in
      List.sort compare from_compositions = reference
      && stats.Enumerate.Compositions.unique = List.length reference
      && stats.Enumerate.Compositions.memory_entries
         = stats.Enumerate.Compositions.unique
      && (total < parts
         || stats.Enumerate.Compositions.compositions
            = binomial (total - 1) (parts - 1)))

let compositions_blowup_measured () =
  (* The paper's complaint in numbers: for W = 24, B = 6 the naive method
     touches 33649 compositions to find 199 partitions. *)
  let stats = Enumerate.Compositions.count ~total:24 ~parts:6 in
  Alcotest.(check int) "compositions" 33649
    stats.Enumerate.Compositions.compositions;
  Alcotest.(check int) "unique" (Count.exact ~total:24 ~parts:6)
    stats.Enumerate.Compositions.unique

let unrank_rank_round_trip =
  (* unrank must reproduce the exact lexicographic sequence position by
     position, and reject out-of-range ranks: rank is the implicit index
     of the enumeration order, so this is the unrank . rank = id law. *)
  QCheck.Test.make ~name:"unrank round-trips every enumeration rank"
    ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 7))
    (fun (total, parts) ->
      let all = Enumerate.to_list ~total ~parts in
      let n = Count.exact ~total ~parts in
      List.length all = n
      && List.for_all2
           (fun rank expected ->
             match Enumerate.unrank ~total ~parts ~rank with
             | Some got -> got = expected
             | None -> false)
           (List.init n Fun.id) all
      && Enumerate.unrank ~total ~parts ~rank:n = None
      && Enumerate.unrank ~total ~parts ~rank:(-1) = None)

let create_at_equals_sequential_advances =
  QCheck.Test.make
    ~name:"Odometer.create_at k = k advances from the first partition"
    ~count:100
    QCheck.(pair (int_range 1 26) (int_range 1 6))
    (fun (total, parts) ->
      let n = Count.exact ~total ~parts in
      QCheck.assume (n > 0);
      (* Walk one odometer forward while re-creating a fresh one at every
         rank; both must agree at each step, and create_at must refuse
         rank n. *)
      match Enumerate.Odometer.create ~total ~parts with
      | None -> false
      | Some walker ->
          let ok = ref true in
          for rank = 0 to n - 1 do
            (match Enumerate.Odometer.create_at ~total ~parts ~rank with
            | None -> ok := false
            | Some jumped ->
                if
                  Enumerate.Odometer.current jumped
                  <> Enumerate.Odometer.current walker
                then ok := false);
            let advanced = Enumerate.Odometer.advance walker in
            if advanced <> (rank < n - 1) then ok := false
          done;
          !ok && Enumerate.Odometer.create_at ~total ~parts ~rank:n = None)

(* The first of the trailing equal loop variables w_j = ... = w_(B-1). *)
let block_start widths parts =
  let j = ref (max 0 (parts - 2)) in
  while !j > 0 && widths.(!j - 1) = widths.(!j) do
    decr j
  done;
  !j

let skip_block_is_the_block =
  QCheck.Test.make
    ~name:
      "Odometer.skip_block crosses exactly the trailing block, up to its \
       limit"
    ~count:60
    QCheck.(pair (int_range 1 24) (int_range 1 6))
    (fun (total, parts) ->
      let count = Count.exact ~total ~parts in
      let at rank =
        Option.get (Enumerate.Odometer.create_at ~total ~parts ~rank)
      in
      let ok = ref true in
      for rank = 0 to count - 1 do
        (* From every rank: the block is the advances that keep the
           parts before the trailing equal block fixed. *)
        let stepped = at rank in
        let fixed = block_start (Enumerate.Odometer.current stepped) parts in
        let prefix o = Array.sub (Enumerate.Odometer.current o) 0 fixed in
        let start = prefix stepped in
        let inside = ref 0 in
        let last = ref (Array.copy (Enumerate.Odometer.current stepped)) in
        while
          Enumerate.Odometer.advance stepped && prefix stepped = start
        do
          incr inside;
          last := Array.copy (Enumerate.Odometer.current stepped)
        done;
        let whole = at rank in
        if Enumerate.Odometer.skip_block whole ~limit:max_int <> !inside then
          ok := false;
        if Enumerate.Odometer.current whole <> !last then ok := false;
        (* A limit inside the block stops there, like that many advances. *)
        let limit = !inside / 2 in
        let part = at rank and walked = at rank in
        for _ = 1 to limit do
          ignore (Enumerate.Odometer.advance walked)
        done;
        if Enumerate.Odometer.skip_block part ~limit <> limit then ok := false;
        if Enumerate.Odometer.current part <> Enumerate.Odometer.current walked
        then ok := false
      done;
      !ok)

let odometer_none_when_impossible () =
  Alcotest.(check bool) "none" true
    (Enumerate.Odometer.create ~total:2 ~parts:3 = None);
  Alcotest.(check bool) "none for 0 parts" true
    (Enumerate.Odometer.create ~total:5 ~parts:0 = None)

let suite =
  [
    test "count: small values" exact_small_values;
    test "count: at_most / all" exact_at_most_and_all;
    test "count: overflow is an error" exact_overflow_is_an_error;
    qtest closed_forms;
    qtest recurrence_property;
    test "count: estimate matches paper Table 1" estimate_matches_paper_table1;
    test "count: estimate monotone" estimate_monotone;
    qtest fold_is_complete_and_unique;
    test "enumerate: fresh arrays" fold_reuses_buffer_safely;
    test "enumerate: lexicographic" fold_lexicographic;
    test "enumerate: paper W=8 B=4 sequence" paper_example_sequence;
    test "enumerate: degenerate" degenerate_enumerations;
    qtest odometer_matches_fold;
    qtest unrank_rank_round_trip;
    qtest create_at_equals_sequential_advances;
    qtest skip_block_is_the_block;
    qtest compositions_match_fold;
    test "compositions: blow-up measured" compositions_blowup_measured;
    test "odometer: impossible inputs" odometer_none_when_impossible;
  ]
