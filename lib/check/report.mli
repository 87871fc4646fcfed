(** A structured diagnostic report: the outcome of one certifier or lint
    pass over one artifact.

    A report is [ok] when it contains no [Error]-severity violation; it
    may still carry warnings and infos. Render with {!pp} for humans or
    with [Soctam_report.Check_json] for machines. *)

type t = private {
  subject : string;  (** what was analyzed, e.g. ["d695 architecture"] *)
  violations : Violation.t list;  (** sorted by severity, then input order *)
}

val make : subject:string -> Violation.t list -> t
(** Sorts the violations by severity (stable). *)

val ok : t -> bool
(** No [Error]-severity violations. *)

val errors : t -> Violation.t list
val warnings : t -> Violation.t list
val infos : t -> Violation.t list

val has_kind : t -> Violation.kind -> bool

val pp : Format.formatter -> t -> unit
(** ["OK: subject"] / ["OK: subject (n warnings)"] on success, otherwise
    the subject followed by one line per violation. *)
