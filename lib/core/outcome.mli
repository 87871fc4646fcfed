(** How an optimization run ended.

    Before this type, every solver signaled truncation through its own
    sentinel ([Exhaustive.complete = false], deadline-shaped counter
    gaps in [Partition_evaluate]) and callers had to know which field
    meant what. An {!t} makes the three endings one closed type, and the
    resumable endings carry the {!Checkpoint.t} that continues the run. *)

type t =
  | Complete  (** the whole search space was explored under the budgets *)
  | Budget_exhausted of Checkpoint.t
      (** a time, node or other budget stopped the run; the result is a
          best-effort incumbent and the checkpoint resumes the search *)
  | Interrupted of Checkpoint.t
      (** cooperative cancellation (SIGINT via [Soctam_util.Cancel])
          stopped the run at a checkpoint boundary *)

val is_complete : t -> bool

val resume_token : t -> Checkpoint.t option
(** The carried checkpoint, when there is one. *)
