(** First-class solver engines.

    The repo grew five independent solvers for the same wrapper/TAM
    co-optimization problem — the paper's heuristic pipeline
    ({!Partition_evaluate} + exact finish), the exhaustive baseline,
    the ILP cross-check, the rectangle packer and the simulated
    annealer — each with its own [run_with] entry point and ad-hoc CLI
    plumbing. An {!S} packages one solver behind a uniform surface:
    a registry name, a {!caps} record the callers use to validate
    flag/engine combinations, a slice-aware [run] on the shared
    {!Run_config.t} policy, and the decoder of the resume-token body it
    owns. The racing portfolio ([Soctam_race.Race]) and the CLI
    subcommands both drive engines only through this interface; the CLI
    certifies every report it prints with [lib/check].

    The adapters for the solvers living in [lib/core] are defined here
    ({!pe}, {!exhaustive}, {!ilp}); [lib/pack] and [lib/anneal] export
    theirs from their own libraries, and [Soctam_race.Registry] collects
    all five. *)

type instance = {
  table : Time_table.t;
  total_width : int;
}
(** What an engine optimizes over: the per-core time table and the
    total TAM width. Everything else — TAM-count plan, budgets, slices,
    resume tokens, imported bounds — travels in the {!Run_config.t}. *)

type caps = {
  parallel : bool;
      (** honors [Run_config.jobs]; the racer downgrades sequential
          engines to [jobs = 1] instead of erroring *)
  imports_tau : bool;  (** honors [Run_config.tau_import] *)
  needs_fixed_tams : bool;
      (** requires [Run_config.tams] (P_PAW only — the exhaustive and
          ILP baselines enumerate one TAM count) *)
  free_tams_only : bool;
      (** rejects [Run_config.tams] (the annealer walks TAM counts
          freely and cannot hold one fixed) *)
  proves : bool;
      (** an [Outcome.Complete] run proves its reported time optimal
          for the instance (under the engine's fixed TAM count, if
          any); the racer terminates the portfolio on such a proof *)
}

type report = {
  r_widths : int array;
      (** chosen partition; empty when the engine ran entirely under an
          imported bound and nothing beat it (see
          {!Exhaustive.run_with}) *)
  r_time : int;
  r_assignment : int array;
  r_outcome : Outcome.t;
  r_notes : string list;  (** human-readable one-liners for the CLI *)
}

module type S = sig
  val name : string
  (** Registry name ([pe], [pack], [anneal], ...). *)

  val caps : caps

  val check_body : Run_config.t -> instance -> Soctam_util.Json.t -> unit
  (** Decode and validate a resume-token body this engine wrote, and
      check its incumbent against the instance with
      {!Checkpoint.check_best} under the engine's own TAM-count and
      bound rules for [cfg], raising [Invalid_argument] on a body [run]
      would reject. The token itself is tagged with {!name} (see
      {!check_token}). *)

  val run : Run_config.t -> instance -> report
  (** One (possibly sliced) run under the shared policy: respects
      [jobs], [stats], [tams]/[max_tams], budgets, [slice_limit],
      [tau_import], [resume]/[resume_replay] and [cancel] exactly as
      the underlying [run_with] documents them.
      Reports are byte-identical at every job count. *)
end

type t = (module S)

val name : t -> string
val caps : t -> caps

val check_token : t -> Run_config.t -> instance -> Checkpoint.t -> unit
(** The token check the racer runs on every embedded slot token before
    the race's first grant: the tag must be the engine's {!S.name}, and
    the body must pass the engine's {!S.check_body} for [cfg] and the
    instance.
    @raise Invalid_argument otherwise. *)

val run : t -> Run_config.t -> instance -> report

(** {1 Adapters for the solvers in this library} *)

val pe : t
(** The paper's pipeline, {!Co_optimize.run}: {!Partition_evaluate}
    over the configured TAM-count plan, plus the final exact step once
    the search ran to [Outcome.Complete]. A truncated slice reports the
    raw heuristic incumbent and no notes. *)

val exhaustive : t
(** The exhaustive baseline (fixed TAM count, B&B per partition).
    Complete ⇒ proven optimal for that TAM count. *)

val ilp : t
(** The exhaustive machinery with the paper's §3.2 ILP model per
    partition ({!Exhaustive.Milp}) — the cross-checking engine. *)
