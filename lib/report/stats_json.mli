(** Stable JSON rendering of an {!Soctam_obs.Obs} snapshot.

    This is the machine-readable side of the CLI's [--stats] flag and
    of the bench harness. The schema is versioned and stable:

    {v
    { "version": 1,
      "elapsed_ns": <int>,
      "counters": { "<name>": <int>, ... },              (sorted by name)
      "workers": [ { "worker": <id>,
                     "counters": { "<name>": <int>, ... } }, ... ],
      "histograms": { "<name>": { "count": <int>, "sum": <int>,
                                  "min": <int>, "max": <int> }, ... },
      "spans": { "<name>": { "count": <int>, "total_ns": <int>,
                             "min_ns": <int>, "max_ns": <int> }, ... },
      "events": [ { "t_ns": <int>, "worker": <int>, "name": <str>,
                    "value": <int> | null }, ... ],      (recording order)
      "dropped_events": <int> }
    v}

    With one worker the [counters] object is exactly reproducible run
    to run; [elapsed_ns], histogram/span timings and event timestamps
    are wall-clock readings and are not. The document always parses
    with {!Soctam_util.Json.parse} and round-trips through
    {!Soctam_util.Json.to_string}. *)

val render : Soctam_obs.Obs.snapshot -> Soctam_util.Json.t
val render_string : Soctam_obs.Obs.snapshot -> string

val summary : Soctam_obs.Obs.snapshot -> string
(** One human-readable line: elapsed time, the partition pruning
    triple when present, and total counter/span/event volumes.
    Intended for stderr next to the JSON document. *)
