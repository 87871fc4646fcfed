(** Typed diagnostics emitted by the [Soctam_check] certifiers and linters.

    Every finding is a {!t}: a severity, a machine-readable {!kind}, a
    {!location} inside the artifact under analysis, and a human-readable
    message. Checkers never raise on bad input — they return the complete
    list of violations they can establish, so a single pass surfaces every
    problem at once (unlike the raise-on-first-error smart constructors
    the optimizers use internally). *)

type severity =
  | Error  (** the artifact is wrong: a certified claim does not hold *)
  | Warning  (** suspicious but not provably wrong *)
  | Info  (** observation worth reporting, no action needed *)

type location =
  | Soc  (** the SOC / architecture / schedule as a whole *)
  | Core of int  (** 1-based core id *)
  | Tam of int  (** 1-based TAM number *)
  | Line of int  (** 1-based line of an input file *)
  | File of string * int
      (** source file and 1-based line, for the source-level analyzer *)

(** The closed violation taxonomy. Each constructor names one invariant;
    {!kind_name} gives its stable kebab-case identifier used in the JSON
    rendering and the CLI output. *)
type kind =
  (* Architecture certifier. *)
  | Empty_partition  (** no TAM at all *)
  | Nonpositive_width  (** some TAM width < 1 *)
  | Width_sum_mismatch  (** widths do not sum to the requested total W *)
  | Assignment_length_mismatch  (** dropped or surplus core *)
  | Assignment_out_of_range  (** core assigned to a non-existent TAM *)
  | Core_time_mismatch  (** claimed core time <> wrapper-design recompute *)
  | Tam_time_mismatch  (** claimed TAM time <> sum of its core times *)
  | Soc_time_mismatch  (** claimed SOC time <> max over TAM times *)
  | Lower_bound_violated  (** claimed time beats an admissible lower bound *)
  | Beats_exhaustive_optimum  (** claimed time beats the exact optimum *)
  | Simulation_mismatch  (** cycle-level simulation disagrees *)
  | Soc_name_mismatch  (** artifact recorded for a different SOC *)
  (* Schedule / power certifier. *)
  | Schedule_core_missing
  | Schedule_core_duplicated
  | Schedule_wrong_tam  (** slot on a TAM other than the core's *)
  | Schedule_duration_mismatch
  | Schedule_overlap  (** two sessions overlap on one TAM *)
  | Schedule_negative_start
  | Rect_out_of_strip
      (** a rectangle schedule slot sticks out of the [0, W) strip *)
  | Makespan_mismatch
  | Peak_power_mismatch  (** reported peak <> recomputed peak *)
  | Power_budget_exceeded
  (* Input lint. *)
  | Syntax_error
  | Duplicate_core_id
  | Nonconsecutive_core_ids
  | Zero_patterns
  | No_test_data  (** file or SOC without any core *)
  | Scan_chain_mismatch  (** declared chain count <> lengths listed *)
  | Module_count_mismatch  (** TotalModules disagrees with modules found *)
  | Name_complexity_mismatch
      (** SOC named like p93791 whose test-complexity number is far off *)
  | Degenerate_core  (** no terminals and no scan: nothing to test *)
  (* Source-level analyzer ([Soctam_analysis]). *)
  | Polymorphic_comparison
      (** DET-POLY: polymorphic [=]/[<]/[compare]/[Hashtbl.hash] in a
          solver layer, or an ordering/[compare]/[min]/[max] at a type
          variable under lib/ *)
  | Entropy_source
      (** DET-ENTROPY: wall clock or [Random] outside the sanctioned
          wrappers *)
  | Unguarded_shared_state
      (** DOM-SHARED: unsynchronized top-level mutable state reachable
          from pool domains *)
  | Domain_escape
      (** DOM-ESCAPE: mutable value created outside a worker closure but
          mutated inside one without a guarding mutex *)
  | Lock_discipline
      (** LOCK-RAISE: possible raise while a mutex is held without
          [Fun.protect], or inconsistent lock acquisition order *)
  | Hot_allocation
      (** ALLOC-HOT: allocation form inside a function or loop marked
          [\[@soctam.hot\]] *)
  | Missing_interface  (** IFACE: a [lib/] module without an [.mli] *)
  | Worker_effect
      (** EFFECT-WORKER: a write effect on non-worker-local mutable state
          reachable from a pool/domain worker closure without an atomic
          or mutex guard *)
  | Outcome_dropped
      (** OUTCOME-DROP: an [Outcome.t] match or binding that discards the
          [Budget_exhausted] / [Interrupted] resume checkpoint *)
  | Engine_caps_mismatch
      (** ENGINE-CAPS: an [Engine.S] caps record contradicted by the
          implementation (undeclared parallelism, [proves] without a
          certificate) *)
  | Tau_discipline
      (** TAU-DISCIPLINE: a [Shared_min] read in a [\[@soctam.hot\]]
          scope bypassing the worker mirror, or a tau export skipping the
          mirror's strict-improvement filter *)
  | Analysis_error
      (** the analyzer itself could not proceed: unparseable source, bad
          suppression payload, malformed baseline line *)

type t = {
  severity : severity;
  kind : kind;
  location : location;
  message : string;
}

val make : severity -> kind -> location -> string -> t

val errorf :
  kind -> location -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [errorf kind loc fmt ...] builds an [Error]-severity violation with a
    formatted message. *)

val warningf :
  kind -> location -> ('a, Format.formatter, unit, t) format4 -> 'a

val infof : kind -> location -> ('a, Format.formatter, unit, t) format4 -> 'a

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val kind_name : kind -> string
(** Stable kebab-case identifier, e.g. ["width-sum-mismatch"]. *)

val compare_severity : severity -> severity -> int
(** [Error] orders before [Warning] orders before [Info]. *)

val pp : Format.formatter -> t -> unit
(** One line: ["error[width-sum-mismatch] at TAM 2: ..."]. *)
