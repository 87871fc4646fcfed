(** The closed catalog of source-level rules enforced by
    [Soctam_analysis.Analyze].

    Each rule family guards one of the repo's machine-checked invariants
    (DESIGN.md §13): determinism of the parallel search core, safety of
    state shared across [Soctam_util.Pool] domains, and hygiene of the
    public API surface. Rule identifiers are the stable uppercase names
    used in [\[@soctam.allow "RULE-ID"\]] suppressions and baseline
    entries. *)

type id =
  | Det_poly
      (** DET-POLY: no polymorphic [=] / [<] / [compare] /
          [Hashtbl.hash] in the solver layers (lib/core, lib/partition,
          lib/wrapper, lib/tam) — polymorphic comparison on solver types
          silently depends on representation, which breaks
          byte-identical results across refactors — and no ordering,
          [compare], [min] or [max] at a type variable anywhere under
          lib/, where every call is the C runtime's compare. *)
  | Det_entropy
      (** DET-ENTROPY: no [Random], [Sys.time] or [Unix.gettimeofday]
          outside [lib/util/prng] and [lib/util/timer] — all entropy
          and wall-clock reads go through the seeded PRNG and the
          monotonic timer. *)
  | Dom_shared
      (** DOM-SHARED: top-level [ref] / [Hashtbl.t] / [Queue.t] /
          [Stack.t] / [Buffer.t] bindings in modules whose code runs on
          [Soctam_util.Pool] domains must be [Atomic], mutex-guarded
          (the [Count] memo exemplar) or explicitly allowed. *)
  | Iface
      (** IFACE: every module under [lib/] has an [.mli]. *)
  | Dom_escape
      (** DOM-ESCAPE: a mutable value — [ref], mutable
          record field, [Buffer.t], [Hashtbl.t], array — created outside
          a worker closure ([Pool.map_chunks] / [Slice_search.round]
          / [Domain.spawn] argument) but captured and mutated inside one,
          or mutated from a function the call graph shows is reachable
          from worker closures, without a guarding [Mutex] in scope. *)
  | Lock_raise
      (** LOCK-RAISE: between [Mutex.lock m] and
          [Mutex.unlock m] without an intervening [Fun.protect] /
          [Mutex.protect], a [raise] / [failwith] / known-partial stdlib
          call may leave [m] locked forever; also two mutexes acquired
          in inconsistent order at different sites. *)
  | Alloc_hot
      (** ALLOC-HOT: an allocation form — closure, tuple,
          record, [Some _] / list cons, array or string building,
          boxed-float result — inside a function or loop annotated
          [\[@soctam.hot\]]. *)
  | Effect_worker
      (** EFFECT-WORKER (effect inference): a function with
          an inferred write effect on mutable state it did not create —
          a capture of an enclosing scope's value or a top-level binding
          — is reachable from a [Pool] / [Domain.spawn] worker closure
          and the write is neither atomic nor mutex-guarded. Subsumes
          and sharpens the interprocedural half of DOM-ESCAPE: the write
          is flagged wherever the call graph can carry a worker to it,
          not only when the binder itself hands closures to the pool. *)
  | Outcome_drop
      (** OUTCOME-DROP: a [match] / [function] case on
          [Outcome.t] whose [Budget_exhausted _] / [Interrupted _]
          payload — the resume checkpoint — is a wildcard, or an
          [Outcome.t] value dropped whole via [ignore] / [let _ = ...].
          The defining module itself (its accessors must destructure) is
          exempt. *)
  | Engine_caps
      (** ENGINE-CAPS: an [Engine.S] implementation whose
          [caps] record contradicts its body — [run] reaches
          [Pool.map_chunks] / [Slice_search.round] / [Team.round] /
          [Domain.spawn] while [caps.parallel] is [false]. *)
  | Tau_discipline
      (** TAU-DISCIPLINE: a direct [Shared_min.get] inside
          a [\[@soctam.hot\]] scope (the mirror exists precisely so hot
          loops avoid the atomic read), or [Shared_min.improve] called
          from worker-reachable code (bypassing [mirror_improve]'s
          strict-improvement export filter). *)

val all : id list
(** Every rule, in catalog order. *)

val name : id -> string
(** Stable uppercase identifier: ["DET-POLY"], ["DET-ENTROPY"],
    ["DOM-SHARED"], ["IFACE"], ["DOM-ESCAPE"], ["LOCK-RAISE"],
    ["ALLOC-HOT"], ["EFFECT-WORKER"], ["OUTCOME-DROP"], ["ENGINE-CAPS"],
    ["TAU-DISCIPLINE"]. *)

val of_name : string -> id option
(** Inverse of {!name}; [None] for anything else. *)

val kind : id -> Soctam_check.Violation.kind
(** The violation-taxonomy constructor findings of this rule carry. *)

val synopsis : id -> string
(** One-line human description used in listings. *)
