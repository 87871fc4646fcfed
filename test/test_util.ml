(* Tests for Soctam_util: PRNG, selection, integer helpers, the shared
   incumbent's tie rule, timer. *)

module Prng = Soctam_util.Prng
module Select = Soctam_util.Select
module Intutil = Soctam_util.Intutil

let test case f = Alcotest.test_case case `Quick f
let qtest prop = QCheck_alcotest.to_alcotest prop

(* -- Prng ---------------------------------------------------------------- *)

let prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 7L and b = Prng.create 8L in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.next_int64 a = Prng.next_int64 b)

let prng_copy_independent () =
  let a = Prng.create 3L in
  let _ = Prng.next_int64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b);
  let _ = Prng.next_int64 a in
  (* advancing a does not advance b *)
  let a2 = Prng.next_int64 a and b2 = Prng.next_int64 b in
  Alcotest.(check bool) "diverged states" false (a2 = b2)

let prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prng_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in stays in [lo, hi]" ~count:500
    QCheck.(triple int64 (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Prng.create seed in
      let v = Prng.int_in rng lo (lo + span) in
      v >= lo && v <= lo + span)

let prng_float_bounds () =
  let rng = Prng.create 11L in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let prng_bool_mixes () =
  let rng = Prng.create 13L in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 350 && !trues < 650)

let prng_shuffle_permutes =
  QCheck.Test.make ~name:"Prng.shuffle preserves the multiset" ~count:200
    QCheck.(pair int64 (array small_int))
    (fun (seed, a) ->
      let rng = Prng.create seed in
      let b = Array.copy a in
      Prng.shuffle rng b;
      let sorted x =
        let y = Array.copy x in
        Array.sort compare y;
        y
      in
      sorted a = sorted b)

let prng_choose_member () =
  let rng = Prng.create 17L in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.choose rng a) a)
  done

(* -- Select -------------------------------------------------------------- *)

let select_min_max () =
  let a = [| 4; 2; 9; 2; 7 |] in
  Alcotest.(check int) "min" 1 (Select.argmin a);
  Alcotest.(check int) "max" 2 (Select.argmax a);
  Alcotest.(check int) "single element" 0 (Select.argmin [| max_int |]);
  Alcotest.(check int) "single element, max" 0 (Select.argmax [| min_int |])

let select_tie_lowest_index () =
  let a = [| 5; 1; 1; 5 |] in
  Alcotest.(check int) "first minimal wins" 1 (Select.argmin a);
  Alcotest.(check int) "first maximal wins" 0 (Select.argmax a);
  let b = [| 7; 7; 7 |] in
  Alcotest.(check int) "all tied" 0 (Select.argmin b);
  Alcotest.(check int) "all tied, max" 0 (Select.argmax b)

let select_empty_raises () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument "Select: empty array")
        (fun () -> ignore (f [||])))
    [ ("argmin", Select.argmin); ("argmax", Select.argmax) ]

(* argmin / argmax against a reference fold that keeps the first index
   whose element is strictly better, on arrays with duplicates, negatives
   and both ends of the int range, plus the same arrays cut to their low
   three bits (ties on nearly every element). *)
let select_matches_fold =
  let first_best better a =
    snd
      (Array.fold_left
         (fun (i, best) x ->
           (i + 1, if better (Int.compare x a.(best)) then i else best))
         (0, 0) a)
  in
  let element =
    QCheck.Gen.(
      frequency
        [
          (6, int_range (-4) 4);
          (1, return min_int);
          (1, return max_int);
          (1, return (min_int + 1));
          (1, return (max_int - 1));
          (2, int);
        ])
  in
  QCheck.Test.make ~name:"Select.argmin/argmax: first-wins fold"
    ~count:500
    QCheck.(
      make
        ~print:Print.(array int)
        Gen.(array_size (int_range 1 24) element))
    (fun a ->
      List.for_all
        (fun a ->
          Select.argmin a = first_best (fun c -> c < 0) a
          && Select.argmax a = first_best (fun c -> c > 0) a)
        [ a; Array.map (fun x -> x land 7) a ])

(* A derived key is an [int array] of keys: distinct elements with equal
   keys tie, and the index decides. *)
let select_key_transform () =
  let a = [| 1; -5; 3 |] in
  Alcotest.(check int) "abs key" 0 (Select.argmin (Array.map abs a));
  Alcotest.(check int) "abs max" 1 (Select.argmax (Array.map abs a));
  let b = Array.map abs [| 3; -3; 1; -1 |] in
  Alcotest.(check int) "first of the tied least keys" 2 (Select.argmin b);
  Alcotest.(check int) "first of the tied greatest keys" 0 (Select.argmax b)

let select_filter_indices () =
  let a = [| 10; 11; 12; 13 |] in
  Alcotest.(check (list int)) "evens" [ 0; 2 ]
    (Select.filter_indices (fun _ v -> v mod 2 = 0) a);
  Alcotest.(check (list int)) "by index" [ 3 ]
    (Select.filter_indices (fun i _ -> i = 3) a);
  Alcotest.(check (list int)) "none" [] (Select.filter_indices (fun _ _ -> false) a)

(* -- Intutil ------------------------------------------------------------- *)

let ceil_div_cases () =
  Alcotest.(check int) "exact" 3 (Intutil.ceil_div 9 3);
  Alcotest.(check int) "round up" 4 (Intutil.ceil_div 10 3);
  Alcotest.(check int) "zero" 0 (Intutil.ceil_div 0 5);
  Alcotest.(check int) "one" 1 (Intutil.ceil_div 1 5)

let ceil_div_property =
  QCheck.Test.make ~name:"ceil_div is ceiling division" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (a, b) ->
      let c = Intutil.ceil_div a b in
      (c * b >= a) && ((c - 1) * b < a))

let sum_cases () =
  Alcotest.(check int) "array" 10 (Intutil.sum [| 1; 2; 3; 4 |]);
  Alcotest.(check int) "empty array" 0 (Intutil.sum [||]);
  Alcotest.(check int) "list" 6 (Intutil.sum_list [ 1; 2; 3 ]);
  Alcotest.(check int) "empty list" 0 (Intutil.sum_list [])

let extrema_cases () =
  Alcotest.(check int) "max" 9 (Intutil.max_element [| 4; 9; 1 |]);
  Alcotest.(check int) "min" 1 (Intutil.min_element [| 4; 9; 1 |]);
  Alcotest.(check int) "singleton" 5 (Intutil.max_element [| 5 |]);
  Alcotest.check_raises "empty max"
    (Invalid_argument "Intutil.max_element: empty array") (fun () ->
      ignore (Intutil.max_element [||]))

let range_cases () =
  Alcotest.(check (list int)) "basic" [ 2; 3; 4 ] (Intutil.range 2 4);
  Alcotest.(check (list int)) "single" [ 7 ] (Intutil.range 7 7);
  Alcotest.(check (list int)) "empty" [] (Intutil.range 5 4)

let pow_factorial () =
  Alcotest.(check int) "2^10" 1024 (Intutil.pow 2 10);
  Alcotest.(check int) "x^0" 1 (Intutil.pow 99 0);
  Alcotest.(check int) "0!" 1 (Intutil.factorial 0);
  Alcotest.(check int) "6!" 720 (Intutil.factorial 6)

(* -- Shared_min ---------------------------------------------------------- *)

module Shared_min = Soctam_util.Pool.Shared_min

(* The one tie rule: a candidate whose rank is below the incumbent's may
   complete on a tie ([tau + 1]); at or above it, a tie is pruned
   ([tau]). The seed key (tau, -1) prunes ties at every rank. *)
let shared_min_tie_threshold () =
  let t = Shared_min.create 100 in
  let at rank = Shared_min.mirror_threshold (Shared_min.mirror t) ~rank in
  Alcotest.(check int) "seed, rank 0" 100 (at 0);
  Alcotest.(check (option string)) "seed has no payload" None
    (Shared_min.winner t);
  Shared_min.improve t ~time:90 ~rank:7 "r7";
  Alcotest.(check int) "below the incumbent's rank" 91 (at 6);
  Alcotest.(check int) "at the incumbent's rank" 90 (at 7);
  Alcotest.(check int) "above the incumbent's rank" 90 (at 8);
  Shared_min.improve t ~time:90 ~rank:3 "r3";
  Shared_min.improve t ~time:90 ~rank:5 "r5";
  Alcotest.(check int) "tie at a lower rank wins" 90 (Shared_min.get t);
  Alcotest.(check (option string)) "its payload" (Some "r3")
    (Shared_min.winner t);
  Alcotest.(check int) "two publications" 2 (Shared_min.publications t);
  Alcotest.(check int) "no bound stays unbounded" max_int
    (Shared_min.mirror_threshold
       (Shared_min.mirror (Shared_min.create max_int))
       ~rank:0)

(* -- Timer --------------------------------------------------------------- *)

let timer_returns_result () =
  let v, secs = Soctam_util.Timer.time (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "non-negative" true (secs >= 0.)

let timer_ms_scales () =
  let (), ms = Soctam_util.Timer.time_ms (fun () -> ()) in
  Alcotest.(check bool) "small" true (ms >= 0. && ms < 10_000.)

let suite =
  [
    test "prng: determinism" prng_deterministic;
    test "prng: seed sensitivity" prng_seed_sensitivity;
    test "prng: copy independence" prng_copy_independent;
    qtest prng_int_bounds;
    qtest prng_int_in_bounds;
    test "prng: float bounds" prng_float_bounds;
    test "prng: bool mixes" prng_bool_mixes;
    qtest prng_shuffle_permutes;
    test "prng: choose member" prng_choose_member;
    test "select: min/max" select_min_max;
    test "select: tie lowest index" select_tie_lowest_index;
    test "select: empty raises" select_empty_raises;
    qtest select_matches_fold;
    test "select: key transform" select_key_transform;
    test "select: filter_indices" select_filter_indices;
    test "intutil: ceil_div cases" ceil_div_cases;
    qtest ceil_div_property;
    test "intutil: sums" sum_cases;
    test "intutil: extrema" extrema_cases;
    test "intutil: range" range_cases;
    test "intutil: pow/factorial" pow_factorial;
    test "timer: result" timer_returns_result;
    test "timer: ms" timer_ms_scales;
    test "shared_min: tie threshold by rank" shared_min_tie_threshold;
  ]
