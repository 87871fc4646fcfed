(** Versioned, checksummed checkpoint envelopes for the search engines.

    The exhaustive P_PAW enumeration runs for hours-to-days on the large
    benchmarks, and even the heuristic [Partition_evaluate] grows with
    p(W, B). A checkpoint captures everything an engine needs to
    continue a run in a later process. The resume invariant is
    {e byte-identical results}: a run interrupted at a checkpoint
    boundary and resumed from the document produces the same
    architecture and the same counter totals as an uninterrupted run, at
    any job count (see DESIGN.md §12 for the argument).

    This module owns only the envelope: the schema {!version}, an FNV-1a
    checksum over the canonical body rendering, the SOC name, the
    solver-owned observability counters, and the engine tag. Each leaf
    engine ([pe], [exhaustive]/[ilp], [sweep], [pack], [anneal]) encodes
    its own state as an opaque JSON body and decodes and validates it at
    the start of a resume, with the readers below, and checks a restored
    incumbent against its instance with {!check_best}. The race state
    stays here, because it nests the other engines' tokens.

    Documents are serialized with the strict {!Soctam_util.Json}
    parser/printer and written atomically (temporary file + rename).
    Loading validates the envelope and reports every failure as a clean
    [Error]; a body the owning engine rejects raises [Invalid_argument]
    before any search work. A truncated, corrupted or stale-version file
    can never resume into a silently wrong run. *)

val version : int
(** Schema version written by this build; documents with any other
    version are rejected on load. *)

type best_arch = {
  ba_widths : int array;
  ba_time : int;
  ba_assignment : int array;
}
(** An incumbent architecture, as the engines and the race carry it. *)

type state =
  | Token of { engine : string; body : Soctam_util.Json.t }
      (** a leaf engine's state: its registry name and its own body *)
  | Race of race_state

and race_slot = {
  rs_engine : string;  (** registry name ([pe], [pack], [anneal], ...) *)
  rs_done : bool;  (** engine finished its search space *)
  rs_proved : bool;  (** engine finished {e and} proves optimality *)
  rs_improvements : int;  (** strict tau improvements it exported *)
  rs_slices : int;  (** slices it has been granted *)
  rs_token : t option;
      (** the engine's own resume token, embedded as a complete
          versioned + checksummed document; [None] before the first
          slice and after the engine completes *)
}

and race_state = {
  ra_total_width : int;
  ra_tams : int option;
  ra_max_tams : int;
  ra_tau : int;
      (** cross-engine bound: the incumbent's time, [max_int] without
          one *)
  ra_best : best_arch option;  (** incumbent across all engines *)
  ra_winner : string option;
      (** engine that set the incumbent; set exactly when [ra_best] is *)
  ra_rounds : int;
  ra_slices : int;  (** total slices granted; equals the slot sum *)
  ra_imports : int;  (** slices entered with a foreign bound *)
  ra_exports : int;
      (** strict improvements published to the bound; equals the slot
          sum *)
  ra_slots : race_slot list;  (** portfolio in configured order *)
}
(** Progress of a portfolio race ([Soctam_race.Race]): the shared
    incumbent plus one slot per engine, each embedding that engine's
    own resume token. Restoring a race is therefore restoring every
    engine at once. The racer keeps its whole state in this record. *)

and t = {
  soc : string option;
      (** SOC name the run was started on; a resume whose configured
          SOC name differs is rejected *)
  counters : (string * int) list;
      (** solver-owned observability counters accumulated before the
          checkpoint ([core_assign/*], [pool/tau_publications], ...);
          replayed into the collector on resume so final totals match an
          uninterrupted run *)
  state : state;
}

(** {1 Serialization} *)

val to_json : t -> Soctam_util.Json.t
(** The full document: [{"version", "checksum", "body"}], the body
    holding the tag as ["solver"] and the engine state as ["state"]. *)

val to_string : t -> string

val of_json : Soctam_util.Json.t -> (t, string) result
(** Strict envelope validation: version, checksum, SOC, counters, and
    the race state — its slice and export totals against the slots,
    imports at most its slices, a winner set exactly with the incumbent
    and naming a slot's engine, the bound at the incumbent's time, a
    proved slot done, a done slot without a token. Never raises. *)

val of_string : string -> (t, string) result

val save : string -> t -> (unit, string) result
(** Atomic write: the document goes to [path ^ ".tmp"] and is renamed
    over [path], so a crash mid-write leaves the previous checkpoint
    intact. *)

val load : string -> (t, string) result

val describe : t -> string
(** One human-readable line (engine and SOC; position for a race) for
    CLI messages. *)

val decode : engine:string -> (Soctam_util.Json.t -> 'a) -> t -> 'a
(** [decode ~engine f t] applies [f], the engine's body decoder, to the
    body of a token tagged [engine].
    @raise Invalid_argument on any other tag, or on a body [f] rejects
    (the message then names [engine]). *)

(** {1 Body codecs}

    Readers and writers for the engine-owned bodies. Every reader
    raises [Invalid_argument] naming the missing or mistyped field. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [Invalid_argument] with a formatted message. *)

val require : bool -> string -> unit
(** [require cond msg] raises [Invalid_argument msg] unless [cond]. *)

val field : string -> Soctam_util.Json.t -> Soctam_util.Json.t
val int_field : string -> Soctam_util.Json.t -> int

val count_field : string -> Soctam_util.Json.t -> int
(** A non-negative integer. *)

val bool_field : string -> Soctam_util.Json.t -> bool
val float_field : string -> Soctam_util.Json.t -> float
val list_field : string -> Soctam_util.Json.t -> Soctam_util.Json.t list
val int_opt_field : string -> Soctam_util.Json.t -> int option
val ints_field : string -> Soctam_util.Json.t -> int array

val json_ints : int array -> Soctam_util.Json.t
val json_int_opt : int option -> Soctam_util.Json.t
val best_to_json : best_arch option -> Soctam_util.Json.t
val best_of_json : Soctam_util.Json.t -> best_arch option

(** {1 Restored architectures} *)

val makespan :
  table:Time_table.t ->
  total_width:int ->
  max_tams:int ->
  widths:int array ->
  assignment:int array ->
  int
(** [makespan ~table ~total_width ~max_tams ~widths ~assignment] is the
    test time of a restored architecture, after checking its shape
    against the instance: 1 to [max_tams] widths, each [>= 1], summing
    to [total_width], and one TAM index in range for every core of
    [table].
    @raise Invalid_argument naming what does not fit. *)

val check_best :
  table:Time_table.t ->
  total_width:int ->
  max_tams:int ->
  ?tau:int ->
  best_arch ->
  unit
(** The check every restore path runs on a checkpointed incumbent
    before trusting it: the shape checks of {!makespan}, [ba_time]
    equal to the recomputed test time, and the restored bound [tau],
    when the engine carries one, not below it.
    @raise Invalid_argument naming what does not fit. *)
