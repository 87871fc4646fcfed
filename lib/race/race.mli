(** The portfolio racer: several engines attack one instance, sharing
    one pruning bound (tau).

    The race multiplexes its portfolio over a fixed round-robin slice
    schedule: each live engine is granted one resumable slice per round
    ([Run_config.checkpoint_every] work units — ranks, partitions or
    iterations, in the engine's own currency), carrying its state
    between grants as an ordinary {!Soctam_core.Checkpoint.t} token.
    Before every grant the current incumbent time is handed to the
    engine as [Run_config.tau_import] (when its caps say it can use
    one), so a find by any engine immediately tightens every other
    engine's pruning; after every grant a strict improvement is pulled
    back into the shared incumbent. The first [Outcome.Complete] from
    an engine whose caps claim proof power ends the race with
    [proven_optimal = true] — including the "nothing of this instance
    beats the imported bound" degenerate completion, which certifies
    the incumbent found by {e another} engine.

    Determinism: the schedule is a pure function of the slot slice
    counts, every engine's slice is byte-identical at every job count,
    and the bound only moves between slices — so the race result is
    byte-identical for every [-j], and a race killed at any slice
    boundary and resumed from its checkpoint (the race's whole state,
    one {!Soctam_core.Checkpoint.race_state} replaced after every grant,
    embedding the per-engine tokens) finishes with the same architecture, winner and
    counters as an uninterrupted one. With a complete portfolio run the
    final time is never worse than the best engine run solo at the same
    width, because each engine's own search space is still fully
    enumerated (candidates cut by an imported bound could not have
    beaten it). *)

type result = {
  widths : int array;
  time : int;
  assignment : int array;
  winner : string option;
      (** engine that set the final incumbent; [None] when nothing beat
          the even-split fallback *)
  proven_optimal : bool;
  rounds : int;
  slices : int;
  tau_imports : int;  (** slices entered with a foreign bound *)
  tau_exports : int;  (** strict improvements published to the bound *)
  engines : Soctam_core.Checkpoint.race_slot list;
      (** the race state's slots, in portfolio order *)
  outcome : Soctam_core.Outcome.t;
}

val run :
  Soctam_core.Run_config.t ->
  engines:Soctam_core.Engine.t list ->
  table:Soctam_core.Time_table.t ->
  total_width:int ->
  result
(** [run cfg ~engines ~table ~total_width] races the portfolio.

    Policy read from [cfg]: [jobs] is handed to every parallel-capable
    engine (sequential ones run at [jobs = 1] — the racer downgrades
    rather than errors); [tams]/[max_tams] define the problem exactly
    as for the solo engines, and are validated against every member's
    caps up front ([needs_fixed_tams] without [tams], or
    [free_tams_only] with it, is an error); the shared bound starts at
    [max_int]; [time_budget], [cancel] and [slice_limit] (counting
    race grants) stop the race resumably between slices;
    [checkpoint_path]/[resume] checkpoint the race itself, with every
    live engine's resume token embedded in the race document. [stats]
    records [race/slices], [race/tau_imports], [race/tau_exports] and
    [race/improvements/<engine>] counters plus [race/tau] /
    [race/proof] / [race/winner] events, alongside whatever the member
    engines record.

    A deadline is only checked between grants: a slice that overruns
    it finishes first (engines never see the race's budget).

    @raise Invalid_argument on an empty portfolio, duplicate engines,
    a caps/config mismatch, a table narrower than [total_width], or a
    resume checkpoint that does not match this race.
    @raise Failure when a checkpoint write to [checkpoint_path]
    fails. *)
