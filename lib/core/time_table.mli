(** Precomputed core testing times, [T_i(w)] for every core [i] and TAM
    width [w].

    All of the paper's algorithms consume core testing times through this
    table: it is filled once per (SOC, total width) through the
    process-wide {!Soctam_wrapper.Front} memo cache (byte-identical to
    calling {!Soctam_wrapper.Design.time_table} per core, but repeat
    builds over the same cores are served from the cache) and then read
    in O(1), which is what makes evaluating hundreds of thousands of
    partitions cheap. *)

type t

val build :
  ?stats:Soctam_obs.Obs.t -> Soctam_model.Soc.t -> max_width:int -> t
(** [build soc ~max_width] computes [T_i(w)] for all cores and
    [w = 1 .. max_width], each width's core {!orders}, and the {!peak},
    {!peak_core} and {!runner_up} rows, read from the first two cores of
    each order. Past the first width, which is sorted outright, each
    order is an insertion pass over the previous width's, close to
    O(cores) because the orders barely change between widths. [stats]
    (default disabled) times the build into a [time_table/build] span
    and counts the table size into the [time_table/entries] counter.
    @raise Invalid_argument when [max_width < 1]. *)

val core_count : t -> int
val max_width : t -> int
val soc : t -> Soctam_model.Soc.t

val time : t -> core:int -> width:int -> int
(** [time t ~core ~width] with 0-based [core] and [width >= 1]. *)

val peak : t -> width:int -> int
(** [peak t ~width] is [max_i T_i(width)], the largest single-core time
    at that width, read from a row precomputed by {!build} (O(1)). Every
    core's row is a running minimum over wrapper chain counts, so it is
    non-increasing in the width, and so is [peak]: a narrower width
    never has a smaller peak. [Core_assign.cut] and the partition
    search's block skip rely on both facts.
    @raise Invalid_argument when [width] is outside [1 .. max_width t]. *)

val peak_core : t -> width:int -> int
(** The 0-based core whose time at [width] is {!peak}, or [-1] when two
    or more cores share that time (O(1)).
    @raise Invalid_argument when [width] is outside [1 .. max_width t]. *)

val runner_up : t -> width:int -> int
(** The largest time at [width] among every core but {!peak_core}: equal
    to {!peak} when the peak is tied, 0 for a one-core SOC (O(1)).
    [Core_assign.cut] reads it as the second step's load when the first
    step took the peak core.
    @raise Invalid_argument when [width] is outside [1 .. max_width t]. *)

val rows : t -> int array array
(** The table's backing storage: [rows t].(i).(w - 1) is
    [time t ~core:i ~width:w] without the bounds check. This is the
    zero-allocation read path of the partition hot loop
    ([Core_assign.run_table_direct]); rows may alias the {!
    Soctam_wrapper.Front} cache and other tables — callers must treat
    them as immutable. *)

val orders : t -> int array array
(** [orders t].(w - 1) lists every 0-based core once, by descending
    [time t ~core ~width:w], equal times by ascending core index: the
    per-width core ordering that Figure 1's core pick walks
    ([Core_assign.run_table_direct]). Like {!rows}, the arrays are the
    table's own: callers must treat them as immutable. *)

val matrix : t -> widths:int array -> int array array
(** [matrix t ~widths] is the core-by-TAM time matrix for a concrete
    partition: element [(i, j)] is [time t ~core:i ~width:widths.(j)]. *)

val bottleneck_bound : t -> width:int -> int
(** Lower bound on the SOC testing time at total width [width]: the
    largest single-core time when that core enjoys the full width alone,
    i.e. {!peak} at [width]. The paper's p31108 saturates at exactly
    this bound. *)

val bottleneck_core : t -> width:int -> int
(** The 0-based core achieving {!bottleneck_bound}, the lowest index on
    a tie.
    @raise Invalid_argument when [width] is outside [1..max_width]. *)
