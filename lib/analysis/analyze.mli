(** Whole-repository source analysis: the Typedtree walk ({!Typed}) over
    every compiled source, the IFACE file-set check, the baseline, and
    the merged report.

    Every rule but IFACE runs on the [.cmt] files of the last build, so
    a source with no [.cmt] is an error: run [dune build @check] first.
    DESIGN.md §13 documents what every family does and does not catch.
    Suppression is scoped with attributes: [\[@soctam.allow "RULE-ID"\]]
    on an expression or a structure item silences that rule inside it,
    and a floating [\[@@@soctam.allow "RULE-ID"\]] silences it for the
    whole file. A suppression without a valid rule ID is itself an
    error. *)

type finding = Finding.t = {
  rule : Rule.id;
  path : string;  (** root-relative source path *)
  line : int;  (** 1-based *)
  message : string;
}

type result = {
  report : Soctam_check.Report.t;
      (** the final merged report: every non-baselined finding as an
          [Error], analyzer problems (missing [.cmt], malformed
          suppressions) as [Error]s, stale baseline entries as [Info]s *)
  findings : finding list;  (** non-baselined findings, all files *)
  files : int;  (** sources analyzed (both [.ml] and [.mli]) *)
  suppressed : int;
  baselined : int;
  typed_files : int;  (** [.ml] sources with a matching [.cmt] *)
  graph : Typed.graph;
  stale : Baseline.entry list;
      (** baseline entries matching no finding — reported as [Info]s,
          and what [soctam analyze --prune-baseline] rewrites away *)
}

val tree : ?baseline:Baseline.t -> root:string -> unit -> result
(** Analyze the whole repository at [root]: every source under
    {!Source.scan_dirs}, the IFACE pairing check over [lib/], and the
    Typedtree pass over every [.cmt] under [root/_build/default] (or
    [root] itself when analyzing from inside the build directory).
    [baseline] (default {!Baseline.empty}) acknowledges findings by
    (rule, path); the run is clean when [Report.ok report]. *)

val summary : result -> string
(** One line: files analyzed, findings, suppressed and baselined
    counts. *)
