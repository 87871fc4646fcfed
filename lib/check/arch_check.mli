(** Independent certifier for test access architectures.

    The certifier re-derives every number in an optimizer result from
    first principles — wrapper designs via {!Soctam_wrapper.Design} for
    the per-core times, plain sums and maxima for the TAM and SOC times,
    {!Soctam_core.Bounds} for admissibility, optionally an exact
    {!Soctam_ilp.Exact} solve and the {!Soctam_core.Exhaustive} baseline
    as ground truth, and the cycle-level {!Soctam_sim.Soc_sim} — without
    trusting any intermediate value of the optimizer under scrutiny. It
    never raises on malformed input; every broken invariant becomes a
    {!Violation.t}. *)

type claim = {
  total_width : int option;
      (** the total TAM width W the optimizer was asked for, when known *)
  widths : int array;  (** claimed TAM width partition *)
  assignment : int array;  (** claimed core (0-based) -> TAM (0-based) *)
  core_times : int array option;  (** claimed per-core times, if reported *)
  tam_times : int array option;  (** claimed per-TAM times, if reported *)
  time : int;  (** claimed SOC testing time *)
}
(** What an optimizer asserts about its result. Optional fields are only
    checked when present, so results that report just a partition,
    assignment and makespan (e.g. {!Soctam_anneal.Annealer}) certify with
    the same code path as full {!Soctam_tam.Architecture.t} values. *)

val claim_of_architecture :
  ?total_width:int -> Soctam_tam.Architecture.t -> claim

val certify_claim :
  ?table:Soctam_core.Time_table.t ->
  ?check_bounds:bool ->
  ?check_exact:bool ->
  ?check_exhaustive:bool ->
  ?check_simulation:bool ->
  soc:Soctam_model.Soc.t ->
  claim ->
  Violation.t list
(** Structural checks (non-empty positive partition summing to W, total
    in-range assignment) always run. When the structure is sound the
    per-core, per-TAM and SOC times are recomputed exactly. Optional
    passes:
    - [check_bounds] (default [true]): the claimed time must not beat the
      combined {!Soctam_core.Bounds} lower bound;
    - [check_exact] (default [false]): exact P_AW solve on the claimed
      partition; the claimed time must not beat the proven optimum;
    - [check_exhaustive] (default [false]): full exhaustive baseline over
      every partition with the same TAM count — intended for small SOCs
      only (cost grows with the partition count);
    - [check_simulation] (default [false]): cycle-level simulation must
      reproduce the recomputed SOC time.

    [table] reuses a precomputed time table; it is ignored (and rebuilt)
    when it was built for another SOC value (physical equality with
    [soc]) or does not cover the required width. *)

val certify :
  ?table:Soctam_core.Time_table.t ->
  ?check_bounds:bool ->
  ?check_exact:bool ->
  ?check_exhaustive:bool ->
  ?check_simulation:bool ->
  ?total_width:int ->
  soc:Soctam_model.Soc.t ->
  Soctam_tam.Architecture.t ->
  Violation.t list
(** {!certify_claim} over {!claim_of_architecture}. *)
