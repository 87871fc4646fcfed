(** One configuration value for the whole search core.

    A {!t} is the single policy surface of every solver entry point:
    build one with {!default} and the [with_*] setters, hand the same
    value to [Co_optimize.run], [Partition_evaluate.run_with],
    [Exhaustive.run_with] or [Sweep.run_with], and every run policy —
    parallelism, observability, budgets, checkpointing, resume,
    cancellation — travels together. The checkpoint lifecycle every
    engine shares lives here too, next to the fields it reads: {!resumed}
    restores a run, and {!slices} drives its slice loop — the stop
    policy at every boundary, the checkpoint writes, and the removal of
    the file once the run completes.

    Instance data (which SOC, which time table, which fixed TAM count
    for the exhaustive baseline) stays an explicit argument of each
    solver; {!t} carries run policy only. *)

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
  node_limit : int;  (** branch & bound node budget for exact solves *)
  max_tams : int;  (** TAM count ceiling for P_NPAW *)
  tams : int option;  (** fix the TAM count (P_PAW); [None] = P_NPAW *)
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
          folded into the pruning threshold, at every job count: the
          only outside bound a search takes (without it every
          rank-space engine starts at tau = [max_int]). The bound
          itself is never reported as the engine's own result —
          anything the engine claims it found in its own space, though
          {!Partition_evaluate} deliberately completes candidates that
          {e tie} the import so its final exact polish has an incumbent
          to improve (the never-worse-than-solo rule of the racer needs
          exactly that tie). Excluded from resume-compatibility checks: it
          may differ on every resumed slice. *)
}

val default : t
(** [jobs = 1], stats off, [node_limit = 2_000_000],
    [max_tams = 10], free TAM count, [carry_tau = true], no
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
val with_node_limit : int -> t -> t
val with_max_tams : int -> t -> t

val with_tams : int -> t -> t
(** Fix the TAM count (P_PAW). *)

val with_carry_tau : bool -> t -> t
val with_time_budget : float -> t -> t
val with_checkpoint : string -> t -> t
val with_checkpoint_every : int -> t -> t
val with_resume : Checkpoint.t -> t -> t
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

val tam_ceiling : t -> int
(** The most TAMs a run may use: the fixed [tams], else [max_tams]. *)

val tam_plan : t -> table:Time_table.t -> total_width:int -> int list
(** The TAM counts a partition-space engine enumerates: [[b]] for
    [tams = Some b], else [1 .. min max_tams total_width].
    @raise Invalid_argument on a count below 1, a table narrower than
    [total_width], or a fixed count above it. *)

val import_cap : t -> int
(** [tau_import], with [max_int] for none. *)

(** {1 Checkpoint lifecycle} *)

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

val publish : t -> Checkpoint.t -> unit
(** Write the checkpoint to [checkpoint_path], when one is set.
    @raise Failure when the write fails. *)

(** What {!slices} hands the engine's loop. *)
type control = {
  before_slice : unit -> unit;
      (** The slice boundary. After [n] earlier calls, stop at the slice
          limit ([n] slices done), on [cancel] or past the deadline, in
          that order; otherwise publish the checkpoint when a path is
          set. *)
  checkpoint : unit -> Checkpoint.t;  (** the run's checkpoint now *)
  stop : 'a. Outcome.t -> 'a;
      (** End the run with a truncated outcome, publishing its token. *)
  deadline : float option;  (** [time_budget] from the start, monotonic *)
}

val slices :
  t ->
  ?grant_first:bool ->
  snapshot:(unit -> (string * int) list * Checkpoint.state) ->
  (control -> unit) ->
  Outcome.t
(** [slices cfg ~snapshot body] runs an engine's slice loop. A
    checkpoint wraps [snapshot ()] (counters, state) with [cfg]'s SOC
    name. [body] returning completes the run and removes the checkpoint
    file; a stop keeps it. With [grant_first] the first [before_slice] does
    nothing, so a zero budget still returns a solved incumbent.
    @raise Failure when a checkpoint write fails. *)
