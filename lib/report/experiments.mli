(** Experiment harness: regenerates every table of the paper's evaluation
    section on this machine and prints the published values alongside,
    plus the ablations behind the paper's design arguments (the §3.1
    enumeration strawman, Figure 3's tau pruning, the §4.2 final-step
    anomaly).

    Computation is memoized inside a {!context}, so rendering several
    tables that share cells (e.g. the exhaustive baseline reused as the
    reference of a P_NPAW table) costs each experiment once. *)

type context

val context : ?exhaustive_budget:float -> ?widths:int list -> unit -> context
(** [exhaustive_budget] is the wall-clock budget in seconds granted to
    the exhaustive baseline per (SOC, B, W) cell, default 20 s; cells
    that exhaust it are reported incomplete, mirroring the paper's "did
    not complete" entries. [widths] defaults to the paper's sweep
    16, 24, ..., 64. *)

val table_ids : string list
(** Canonical ids, in print order: the paper's tables ["t1"], ["t2"]
    (covers Table 2a-d), ["t3"], ["t4"], ["t5_6"], ["t7"], ["t8"],
    ["t9_10"], ["t11_12"], ["t13"], ["t14"], ["t15_16"], ["t17_18"],
    ["t19"]; then the ablations ["ab_tau"], ["ab_enum"], ["ab_ties"],
    ["ab_final"], ["ab_tams"]. The ablations fix their own SOCs and
    widths (up to W = 64) whatever the context's sweep. *)

val description : string -> string
(** Human-readable description of a table id.
    @raise Not_found for an unknown id. *)

val run : context -> string -> Texttable.t
(** Compute (or reuse) the experiments behind a table id and render it.
    @raise Not_found for an unknown id. *)

(** Raw access for tests. *)

type cell = {
  partition : int array;
  time : int;
  cpu : float;  (** wall-clock seconds on this machine *)
  complete : bool;  (** solved to proven optimality within budgets *)
}

val exhaustive_cell : context -> soc:string -> tams:int -> w:int -> cell
val new_fixed_cell : context -> soc:string -> tams:int -> w:int -> cell
val npaw_cell : context -> soc:string -> w:int -> cell
val soc : context -> string -> Soctam_model.Soc.t
val time_table : context -> string -> Soctam_core.Time_table.t
