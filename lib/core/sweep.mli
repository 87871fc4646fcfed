(** TAM width design-space exploration: run the co-optimization pipeline
    across a sweep of total widths and report, for each, the architecture,
    the lower-bound gap and whether the SOC has saturated (more wires
    cannot help). Answers the designer's question behind the paper's
    W = 16..64 sweeps: how many test pins does this SOC actually need? *)

type point = {
  width : int;  (** total TAM width *)
  tams : int;  (** TAM count of the best architecture found *)
  widths : int array;  (** its partition *)
  time : int;  (** its SOC testing time *)
  lower_bound : int;  (** {!Bounds.t.combined} at this width *)
  gap_pct : float;  (** optimality gap certificate *)
  saturated : bool;  (** time equals the bottleneck bound *)
}

type result = {
  points : point list;  (** one per completed width, in sweep order *)
  outcome : Outcome.t;
      (** [Complete] when every width ran; a truncated sweep's
          checkpoint resumes at the first width not completed —
          mid-search when the truncation left that width's own [pe]
          token embedded in the sweep token *)
}

val run_with : Run_config.t -> Soctam_model.Soc.t -> widths:int list -> result
(** [run_with cfg soc ~widths] runs the [pe] engine ({!Engine.pe}: the
    partition search, then the exact finish once the search completes)
    per width, in the given order, each under [cfg]. The time
    table is [cfg.table] when present (it must cover the widest point),
    else built once at the largest width and shared.

    The sweep is the checkpointed unit: the per-width runs never write
    checkpoints of their own, and a budget expiry or cancellation
    {e inside} a width embeds that width's resume token (partial
    incumbent, cursor and counters) in the sweep checkpoint, so a
    resume continues the width mid-search instead of re-running it
    whole. [cfg.time_budget] spans the whole sweep — each width's
    search receives the remaining budget. A sweep checkpoint carries no
    counters of its own; the interrupted width's partial counters
    travel inside its embedded token.

    @raise Invalid_argument on an empty or non-positive width list, a
    too-narrow supplied table, or a resume checkpoint that does not
    match this sweep's [max_tams], width list or SOC name.
    @raise Failure when a checkpoint write fails. *)

val knee : ?tolerance_pct:float -> point list -> point option
(** The narrowest width whose time is within [tolerance_pct] (default 5%)
    of the best time in the sweep — the economic choice of pin budget.
    [None] on an empty list. *)

val pp : Format.formatter -> point list -> unit
(** Aligned textual rendering of a sweep. *)
