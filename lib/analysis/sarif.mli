(** SARIF 2.1.0 rendering of an analyzer run, for CI diff annotation
    ([soctam analyze --sarif FILE], [make analyze-sarif]).

    The minimal profile: one run whose [tool.driver.rules] is the
    {!Rule.all} catalog (with synopses as [shortDescription]), and one
    [result] per surviving finding — [ruleId] / [ruleIndex] into the
    catalog, level ["error"], one physical location with the
    root-relative [uri] and [startLine]. Analyzer problems (unreadable
    or missing [.cmt]s, malformed suppressions, stale baseline entries)
    are appended as catalog-less results under their violation kind
    name, with severity mapped to ["error"] / ["warning"] / ["note"].

    Member order is fixed and {!Soctam_util.Json.to_string} preserves
    it, so the output is byte-deterministic — the test suite pins a
    golden file for the seeded violation tree. *)

val to_string : Analyze.result -> string
(** Compact one-line JSON plus a trailing newline. *)
