(** The rectangle-packing co-optimization engine.

    The ROADMAP's strip-packing recast of P_PAW/P_NPAW, made sound for
    this repo's test-bus model. The search space is a deterministic
    rank sequence of candidate generators:

    - the {e even-split ranks}: one per permitted TAM count, the
      trivial balanced partition (they seed the pruning bound and
      guarantee the engine never loses to the naive design);
    - the {e packing ranks}: one per (width cap, heuristic) pair —
      rectangles are drawn from the per-core Pareto fronts at every
      cap in [1 .. W] ({!Rect_build.rects}) and packed into the
      W-wide strip by each {!Level_pack.order};
    - the {e express ranks}: one per width [e] in [1 .. W - 1], the
      distillation of a degenerate two-column packing — a full-height
      express column of width [e] with the remaining wires split
      evenly — which reaches the one-bottleneck-core lane shapes the
      level packers rarely produce.

    A raw level packing is {e not} reported as a SOC time. Under the
    test-bus model a lane structure holds for the whole session, while
    consecutive levels of a packing may disagree — and a genuine
    two-dimensional packing can even beat the certified partition
    optimum (DESIGN.md §14 constructs a 3-core example where level
    packing reaches height 4 against a provable test-bus optimum
    of 5), so "pack height >= exhaustive optimum" would be a false
    invariant. Instead each level's lane widths are {e distilled} into
    a full-width partition (pad the unused wires round-robin, then
    merge the narrowest lanes down to the TAM-count limit — or adjust
    to exactly B for P_PAW) and evaluated with the paper's
    [Core_assign] under a shared pruning bound. The reported time is
    therefore always a genuine test-bus architecture time: certified
    by [lib/check] like any other engine's, and never below the
    exhaustive optimum — which is exactly what the differential suite
    pins. The raw packing heights survive as diagnostics
    ([best_makespan], and the packing schedules the qcheck geometry
    properties certify).

    The engine runs behind the same [Run_config]/[Outcome] lifecycle
    as every other solver: budget-aware slices over the rank sequence,
    each run by [Slice_search.round], checkpoint/resume (solver tag
    ["pack"]), [-j] parallel rank evaluation with the jobs-independent
    (time, rank) incumbent, and
    [?stats] counters ([pack/packings], [pack/candidates],
    [pack/evaluated], [pack/pruned]) via [lib/obs].

    Work already done is skipped (DESIGN.md §14). The rectangles come
    from a step table built once per run ({!Rect_build.make}). Each
    worker remembers, for one slice, the lowest rank at which it met
    each distilled partition: a repeat is counted as a candidate and
    as pruned but never reaches [Core_assign]'s greedy loop, since its
    (time, rank) key cannot beat the lower rank's. A packing rank whose
    cap repeats a lower cap's rectangles replays the worker's earlier
    packing of them (count and height) without packing again. The
    [pack/*] counters, [pool/tau_publications] and the answer are the
    ones an evaluation of every candidate gives at [-j 1], whatever the
    slicing; the [core_assign/*] counters are lower. *)

type result = {
  widths : int array;  (** chosen partition, sorted widest first *)
  time : int;  (** SOC testing time of the chosen architecture *)
  assignment : int array;  (** core index -> TAM index *)
  ranks : int;  (** rank-space size of this instance *)
  packings : int;  (** level packings constructed *)
  candidates : int;  (** distilled partitions handed to [Core_assign] *)
  completed : int;  (** candidates evaluated to completion *)
  pruned : int;  (** candidates cut by the tau early exit *)
  best_makespan : int option;
      (** smallest raw level-packing height over all packing ranks:
          the geometric signal before distillation. May be below
          {!time} (see the module preamble); never below the trivial
          packing lower bound. *)
  outcome : Soctam_core.Outcome.t;
}

val run_with :
  Soctam_core.Run_config.t ->
  table:Soctam_core.Time_table.t ->
  total_width:int ->
  result
(** Run the engine. [Run_config.tams] fixes the TAM count (P_PAW);
    otherwise TAM counts up to [max_tams] are permitted (P_NPAW).
    Respects [jobs], [stats], [time_budget],
    [checkpoint_path]/[checkpoint_every], [resume] and [cancel]; the
    reported architecture is byte-identical at every job count, and a
    run resumed from any slice boundary agrees with an uninterrupted
    one. [carry_tau] is irrelevant here (the rank sequence is a
    single pass, so the bound always carries).

    [tau_import] caps every candidate's pruning threshold at the
    imported bound — at any job count — so candidates at or above it
    are cut and foreign times never enter the (time, rank) reduction;
    when nothing beats the import the result falls back to the even
    split (whose time then fails the racer's strict-improvement
    check). [slice_limit] stops the run resumably
    ([Outcome.Budget_exhausted]) after that many rank slices.
    @raise Invalid_argument when [Run_config.tam_plan] rejects the
    instance, or a resume checkpoint does not match it. *)

val architecture :
  table:Soctam_core.Time_table.t -> result -> Soctam_tam.Architecture.t
(** The chosen architecture as a full [Soctam_tam.Architecture.t],
    with core and TAM times re-derived from the table. *)

val schedule : table:Soctam_core.Time_table.t -> result -> Pack_schedule.t
(** The chosen architecture rendered as a rectangle schedule
    ({!Pack_schedule.of_architecture}) for the packing certifier. *)

val engine : Soctam_core.Engine.t
(** This solver as a first-class engine (registry name ["pack"]):
    parallel, imports tau, handles both P_PAW and P_NPAW, proves
    nothing; admits both the exact and the packing certificates. *)
