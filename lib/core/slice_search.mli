(** The slice search of the rank-space engines ([Partition_evaluate],
    [Pack_engine], [Exhaustive]), which walk a rank space in slices
    pruned against the best-known time tau (the paper's §3). Each keeps
    its chunk evaluator, token body and plan loop; the round, the
    incumbent, the work counters and the fallback live here. *)

type best = {
  mutable b_widths : int array;  (** empty until a candidate wins *)
  mutable b_time : int;
  mutable b_assignment : int array;
  mutable b_rank : int;  (** the winner's rank *)
}
(** The run's incumbent architecture. *)

val best :
  table:Time_table.t ->
  total_width:int ->
  max_tams:int ->
  ?tau:int ->
  ?rank:int ->
  Checkpoint.best_arch option ->
  best
(** Restored from a checkpoint (with its [rank], default [-1]) once
    {!Checkpoint.check_best} accepts it against the instance, its TAM
    limit and the restored bound [tau]; or empty at time [max_int].
    @raise Invalid_argument when the check fails. *)

val best_arch : best -> Checkpoint.best_arch option

type work
(** The [core_assign/*] and [pool/tau_publications] counters a
    checkpoint carries, so a resumed run's totals equal an
    uninterrupted run's. *)

val work : Run_config.t -> work
(** As carried by the resume token; zeros without one. *)

val counters : work -> (string * int) list -> (string * int) list
(** [counters work own]: a checkpoint's counter list, the engine's
    [own] first, zeros dropped. *)

val merge_min : int option -> int option -> int option

type 'l worker = {
  local : 'l;  (** the engine's own per-worker state *)
  scratch : Core_assign.scratch;
  mirror : (int array * int array) Soctam_util.Pool.Shared_min.mirror;
      (** the slice incumbent; payload (widths, assignment) *)
  mutable ca : Core_assign.stats option;
      (** this chunk's counters; [None] when [stats] is off *)
}
(** One worker slot's state for one slice; one chunk at a time. *)

val round :
  stats:Soctam_obs.Obs.t ->
  span:string ->
  ?min_chunk:int ->
  ?work:work ->
  Soctam_util.Pool.Team.t ->
  local:(unit -> 'l) ->
  tau:int ref ->
  best ->
  lo:int ->
  hi:int ->
  chunk:('l worker -> lo:int -> hi:int -> 'a) ->
  'a array
(** [round ~stats ~span team ~local ~tau best ~lo ~hi ~chunk] runs the
    slice [lo, hi) as one [Pool.map_chunks] round timed as [span],
    calling [chunk] once per chunk, and returns its values in rank
    order. The incumbent is seeded at key [(!tau, -1)] (every earlier
    winner has a lower rank) and chunks publish to it with
    [Shared_min.mirror_improve]. Afterwards [tau] holds its time and
    [best] takes the winner if it beats [best.b_time]. The chunks'
    [Core_assign] counters go to [stats]; [work], for the engines that
    carry it, also gains them and the round's [pool/tau_publications],
    which then go to [stats] too. *)

val even_widths : total_width:int -> int -> int array
(** [parts] widths summing to [total_width], differing by at most one,
    widest first. *)

val answer :
  table:Time_table.t -> total_width:int -> tams:int ->
  Checkpoint.best_arch option -> int array * int * int array
(** The incumbent's [(widths, time, assignment)], or, without one, the
    even split over [min tams total_width] TAMs. *)
