(** Reference numbers transcribed from the paper's tables.

    Used by the experiment harness to print paper-vs-measured rows and by
    EXPERIMENTS.md. CPU seconds are as published: the paper normalized
    the Sun Ultra 80 times of the earlier exhaustive work by a factor of
    five to its Sun Ultra 10; they are reproduced only to exhibit the
    heuristic/exhaustive {e ratio}. *)

type fixed_row = {
  w : int;  (** total TAM width *)
  time : int;  (** SOC testing time, clock cycles *)
  cpu : float;  (** seconds as published *)
}

type npaw_row = {
  w : int;
  tams : int;  (** number of TAMs of the best design *)
  partition : string;  (** e.g. "5+3+8" *)
  time : int;
  delta_pct : float;  (** change vs the best exhaustive B <= 3 result *)
}

val widths : int list
(** The sweep used throughout the paper: 16, 24, ..., 64. *)

val fixed : soc:string -> tams:int -> method_:[ `Exhaustive | `New ] ->
  fixed_row list
(** Rows of the B = 2 / B = 3 tables (Tables 2, 5, 6, 9-12, 15-18).
    Returns [] for combinations the paper does not report (e.g. the
    exhaustive method with [B = 3] on p21241, which "did not run to
    completion even after two days"). *)

val npaw : soc:string -> npaw_row list
(** Rows of the P_NPAW tables (Tables 3, 7, 13, 19). *)

type t1_row = {
  w1 : int;
  p_est_b6 : int;  (** paper's p(W, B) estimate column, B = 6 *)
  eval_b6 : int;
  p_est_b8 : int;  (** same, B = 8 *)
  eval_b8 : int;
}

val table1 : t1_row list
(** Table 1 (p21241): partition-count estimates vs partitions evaluated
    to completion. The estimate columns match [W^(B-1)/(B!(B-1)!)] for
    B = 6 and B = 8. *)

val p31108_saturation_time : int
(** 544579: the testing-time floor of p31108, set by its core 18 once its
    TAM is at least 10 bits wide. *)

type architecture_row = {
  aw : int;  (** total width *)
  widths : int array;  (** published TAM width partition *)
  assignment : int array;  (** published core -> TAM (0-based) *)
  published_time : int;
}

val d695_architectures :
  method_:[ `Exhaustive | `New | `Npaw ] -> tams:int option ->
  architecture_row list
(** The complete d695 architectures printed in the paper — partition and
    core-assignment vector of Tables 2(a-d) and 3. Because d695's data is
    public, these can be re-evaluated on our reconstruction: the test
    suite builds each architecture verbatim, certifies it, and checks
    that its testing time here never implausibly beats the published
    number. [tams] selects the B = 2 or B = 3 block for
    [`Exhaustive]/[`New]; pass [None] for [`Npaw]. *)
