(** Optimizer observability: a zero-dependency metrics/tracing kernel.

    The optimization pipeline prunes most of its search space
    ([Core_assign] early exits, shared-tau partition pruning) and fans
    out over domains, yet none of that used to be reportable: benches
    carried wall times with no explanation. This module is the missing
    measurement layer — monotone counters, summary histograms, span timers
    and a bounded trace-event sink behind one collector value.

    Design constraints, in order:

    - {b Disabled must be free.} {!null} is a constant constructor;
      every operation starts with a single [match] on it and returns
      immediately, so threading a collector through the hot path costs
      one branch when observability is off. Results are never affected
      either way: the collector is write-only for the optimizer.
    - {b The hot loop stays unobserved.} Inner loops accumulate into
      plain local state (e.g. [Core_assign.stats] records) and flush
      into the collector at chunk or phase granularity. The mutex here
      therefore sees tens to hundreds of operations per optimization,
      not one per partition, and contention is irrelevant.
    - {b Per-worker attribution is ambient.} {!set_worker} stores the
      worker id in domain-local storage ([Pool.Team] sets it when it
      spawns); {!add} and {!event} read it back, so library code does
      not thread worker ids explicitly. Counters are kept per worker
      and aggregated at {!snapshot} time.

    Determinism contract: with one worker every counter is exactly
    reproducible run to run. With [N] workers the per-worker split of a
    counter may vary with scheduling, but documented aggregate
    invariants (e.g. enumerated = pruned + evaluated in
    [Partition_evaluate]) hold at any worker count. Histogram, span and
    event {e timestamps} are wall-clock readings and never
    deterministic; only their counts are. *)

type t
(** A collector: either the no-op {!null} or an active recorder. *)

val null : t
(** The disabled collector: every operation is a no-op after one
    branch. This is the default everywhere a [?stats] parameter is
    offered. *)

val create : unit -> t
(** A fresh active collector. Safe to share across domains. *)

val enabled : t -> bool
(** [false] exactly for {!null}. Use to skip observation-only work
    (string formatting, snapshotting) when disabled. *)

(** {1 Worker attribution} *)

val set_worker : int -> unit
(** Tag the calling domain with a worker id (domain-local). Recording
    operations attribute to the current domain's id; a domain that
    never called this records as worker 0. *)

val current_worker : unit -> int

(** {1 Recording} *)

val add : t -> ?n:int -> string -> unit
(** [add t name] bumps the monotone counter [name] by [n] (default 1)
    for the current worker. Negative [n] is rejected with
    [Invalid_argument]: counters are monotone by contract. *)

val observe : t -> string -> int -> unit
(** [observe t name v] records sample [v >= 0] into histogram [name]
    (count, sum, min, max). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()], recording its monotonic duration into
    the span table under [name] (count + total/min/max nanoseconds).
    The result (or exception) of [f] passes through unchanged; the
    duration is recorded in both cases. *)

val event : t -> ?value:int -> string -> unit
(** Append a trace event (relative timestamp, worker, name, optional
    value) to the sink. The sink is bounded: beyond {!val-event_capacity}
    events are counted as dropped rather than retained, so a runaway
    event source cannot exhaust memory. *)

val event_v : t -> int -> string -> unit
(** [event_v t v name] is [event t ~value:v name], but the value is a
    required plain [int]: a disabled ({!null}) collector costs one
    branch and zero allocation at the call site, which is the form hot
    loops use to publish e.g. tau improvements. *)

val event_capacity : int

(** {1 Snapshots} *)

type hist = { h_count : int; h_sum : int; h_min : int; h_max : int }
(** Histogram summary; [h_min]/[h_max] are 0 when [h_count = 0]. *)

type span_stat = {
  s_count : int;
  s_total_ns : int;
  s_min_ns : int;
  s_max_ns : int;
}

type ev = { e_t_ns : int; e_worker : int; e_name : string; e_value : int option }

type snapshot = {
  counters : (string * int) list;  (** aggregate over workers, sorted *)
  worker_counters : (int * (string * int) list) list;
      (** per worker id (sorted), each list sorted by name *)
  histograms : (string * hist) list;  (** sorted by name *)
  spans : (string * span_stat) list;  (** sorted by name *)
  events : ev list;  (** in recording order *)
  dropped_events : int;
  elapsed_ns : int;  (** from collector creation to this snapshot *)
}

val snapshot : t -> snapshot
(** A consistent copy of everything recorded so far. {!null} snapshots
    as all-empty. *)

val counter_value : snapshot -> string -> int
(** Aggregate value of a counter; 0 when never recorded. *)
