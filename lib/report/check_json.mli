(** Machine-readable rendering of {!Soctam_check.Report.t} diagnostics.

    Hand-rolled JSON (the project carries no JSON dependency): an object
    with the analyzed subject, the overall verdict, per-severity counts
    and one entry per violation, e.g.

    {v
    {"subject": "d695 architecture", "ok": false,
     "errors": 1, "warnings": 0, "infos": 0,
     "violations": [
       {"severity": "error", "kind": "width-sum-mismatch",
        "location": {"type": "soc"},
        "message": "widths sum to 15 but the optimizer was given W = 16"}]}
    v} *)

val render : Soctam_check.Report.t -> string
(** Single-line JSON, UTF-8 passed through, control characters and
    quotes escaped. *)
