(** One configuration value for the whole search core.

    The solver entry points used to accumulate optional labelled
    arguments ([?stats] [?jobs] [?table] [?node_limit] [?max_tams] ...)
    with per-module defaults and inconsistent exit behavior. A
    {!t} is the single surface that replaces them: build one with
    {!default} and the [with_*] setters, hand the same value to
    [Co_optimize.run_with], [Partition_evaluate.run_with],
    [Exhaustive.run_with] or [Sweep.run_with], and every run policy —
    parallelism, observability, budgets, checkpointing, resume,
    cancellation — travels together. The checkpoint lifecycle every
    engine shares (resume, publish at boundaries, retire on completion)
    lives here too, next to the fields it reads.

    Instance data (which SOC, which time table width, which fixed TAM
    count for the exhaustive baseline) stays an explicit argument of
    each solver; {!t} carries run policy only. *)

type t = {
  jobs : int;  (** parallel domains for partition evaluation (>= 1) *)
  oversubscribe : bool;
      (** spawn all [jobs] workers even past the host core count;
          default [false] caps the team at
          [Soctam_util.Pool.recommended_jobs ()] (results are identical
          either way — see [Pool.Team.with_team]) *)
  stats : Soctam_obs.Obs.t;  (** observability collector; [Obs.null] = off *)
  soc_name : string option;
      (** stamped into checkpoint documents; resuming a checkpoint whose
          SOC name differs is rejected *)
  table : Time_table.t option;
      (** precomputed time table for the pipeline entry points; built on
          demand when absent *)
  node_limit : int;  (** branch & bound node budget for exact solves *)
  max_tams : int;  (** TAM count ceiling for P_NPAW *)
  tams : int option;  (** fix the TAM count (P_PAW); [None] = P_NPAW *)
  initial_best : int option;  (** seed for the pruning threshold *)
  carry_tau : bool;  (** keep tau monotone across TAM counts *)
  time_budget : float option;
      (** elapsed-seconds budget on the monotonic clock; on expiry the
          solvers return [Outcome.Budget_exhausted] with a resume token *)
  checkpoint_path : string option;
      (** write a checkpoint document here at every boundary *)
  checkpoint_every : int;
      (** ranks per checkpoint slice: the granularity at which budgets,
          cancellation and checkpoint writes are honored *)
  resume : Checkpoint.t option;  (** continue a previous run *)
  resume_replay : bool;
      (** replay the resume token's counters into [stats] (default
          [true]). The racer resumes the same engine many times inside
          one process and one collector; it replays each token exactly
          once and passes [false] afterwards so counters are not
          multiplied by the slice count. *)
  cancel : unit -> bool;
      (** polled at slice boundaries; [true] stops the run with
          [Outcome.Interrupted] (see [Soctam_util.Cancel]) *)
  slice_limit : int option;
      (** stop after this many slices with [Outcome.Budget_exhausted]
          and a resume token — the racer's unit of engine time. [None]
          = run to another stopping condition. Setting it turns
          {!checkpointing} on (boundaries must exist to stop at). *)
  tau_import : int option;
      (** a foreign upper bound (some other engine's architecture time)
          folded into the pruning threshold, at every job count. The
          bound itself is never reported as the engine's own result —
          anything the engine claims it found in its own space, though
          {!Partition_evaluate} deliberately completes candidates that
          {e tie} the import so its final exact polish has an incumbent
          to improve (the never-worse-than-solo rule of the racer needs
          exactly that tie). Excluded from resume-compatibility checks —
          unlike [initial_best], it may differ on every resumed
          slice. *)
}

val default : t
(** [jobs = 1], stats off, no table, [node_limit = 2_000_000],
    [max_tams = 10], free TAM count, no seed, [carry_tau = true], no
    budget, no checkpointing, [checkpoint_every = 50_000], no resume,
    never cancelled — the historical defaults of every entry point. *)

(** {1 Setters}

    All pipeline-composable: [default |> with_jobs 4 |> with_stats s].
    Setters validate their argument ([Invalid_argument] on a
    non-positive count or a negative budget). *)

val with_jobs : int -> t -> t

val with_oversubscribe : bool -> t -> t
(** Allow more worker domains than host cores (the test suite's
    multi-worker interleavings; production leaves the cap on). *)

val with_stats : Soctam_obs.Obs.t -> t -> t
val with_soc_name : string -> t -> t
val with_table : Time_table.t -> t -> t
val without_table : t -> t
val with_node_limit : int -> t -> t
val with_max_tams : int -> t -> t

val with_tams : int -> t -> t
(** Fix the TAM count (P_PAW). *)

val with_any_tams : t -> t
(** Back to P_NPAW (clear {!with_tams}). *)

val with_initial_best : int -> t -> t
val with_carry_tau : bool -> t -> t
val with_time_budget : float -> t -> t
val with_checkpoint : string -> t -> t
val with_checkpoint_every : int -> t -> t
val with_resume : Checkpoint.t -> t -> t
val with_resume_replay : bool -> t -> t
val with_cancel : (unit -> bool) -> t -> t

val with_slice_limit : int -> t -> t
(** Stop (resumably) after this many slices. *)

val without_slice_limit : t -> t

val with_tau_import : int -> t -> t
(** Import a foreign pruning bound (see the field above). *)

(** {1 Derived} *)

val checkpointing : t -> bool
(** Does this run need slice boundaries (a checkpoint path, a resume
    token, a time budget or a slice limit)? *)

val slice_size : t -> length:int -> int
(** Ranks per engine slice for a range of [length]: [checkpoint_every]
    when {!checkpointing}, else the whole range (single slice — the
    non-checkpointed run takes the same code path with one boundary). *)

(** {1 Checkpoint lifecycle}

    The resume, publish and retire steps every engine shares. Engines
    own their token bodies; these helpers own everything around them. *)

val resumed : t -> engine:string -> (Soctam_util.Json.t -> 'a) -> 'a option
(** [resumed cfg ~engine decode] is [None] without a resume token.
    Otherwise the token must carry the tag [engine] and, when both are
    known, the configured SOC name; its body is decoded by [decode] (see
    {!Checkpoint.decode}) and its counters are replayed into [stats]
    unless [resume_replay] is off.
    @raise Invalid_argument on a foreign tag, a different SOC, or a body
    [decode] rejects. *)

val resumed_race : t -> Checkpoint.race_state option
(** {!resumed} for the race state, which the envelope itself decodes. *)

val deadline : t -> float option
(** [time_budget] seconds from now, on the monotonic clock. *)

val publish : t -> Checkpoint.t -> unit
(** Write the checkpoint to [checkpoint_path], when one is set.
    @raise Failure when the write fails. *)

val boundary :
  t -> deadline:float option -> slices:int -> (unit -> Checkpoint.t) ->
  Outcome.t option
(** The slice-boundary policy: after [slices] completed slices, stop
    with [Budget_exhausted] at the slice limit, with [Interrupted] when
    [cancel] fires, or with [Budget_exhausted] past [deadline] — in that
    order — carrying (and publishing) the checkpoint [now ()]. [None]
    means continue, after publishing the checkpoint when a path is set.
    @raise Failure when the write fails. *)

val retire : t -> unit
(** Remove the checkpoint file: a finished run leaves no stale resume
    bait behind. *)
