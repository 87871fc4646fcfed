(** Test access architectures under the test-bus model.

    An architecture fixes the number of TAMs, their widths (a partition
    of the total SOC TAM width), and the assignment of every core to
    exactly one TAM. Cores on the same TAM are tested sequentially; TAMs
    operate in parallel, so the SOC testing time is the maximum summed
    core testing time over the TAMs. *)

type t = private {
  widths : int array;  (** TAM widths, one per TAM *)
  assignment : int array;  (** core index (0-based) -> TAM index (0-based) *)
  core_times : int array;  (** testing time of each core on its TAM *)
  tam_times : int array;  (** summed testing time per TAM *)
  time : int;  (** SOC testing time: max over [tam_times] *)
}

val make :
  soc:Soctam_model.Soc.t -> widths:int array -> assignment:int array -> t
(** Build and evaluate an architecture. Core testing times come from
    {!Soctam_wrapper.Design.design} at the assigned TAM's width.
    @raise Invalid_argument when [widths] is empty or contains a width
    < 1, or [assignment] does not map every core to a valid TAM. *)

val of_times :
  times:(core:int -> width:int -> int) ->
  cores:int ->
  widths:int array ->
  assignment:int array ->
  t
(** Like {!make} but with externally supplied core-time lookup (e.g. a
    precomputed time table), avoiding repeated wrapper design. *)

val cores_on : t -> int -> int list
(** [cores_on t j] lists the (0-based) cores assigned to TAM [j]. *)

val assignment_vector : t -> int array
(** 1-based assignment vector in the notation of the paper's tables:
    element [i] is the 1-based TAM of core [i+1]. *)

val idle_wire_cycles : t -> int
(** Total TAM wire-cycles that carry no test data: for every TAM,
    [width * (soc_time - tam_time)] (the TAM sits idle after its last
    core finishes). A measure of how well the partition matches the
    cores' requirements — the paper's motivation for multiple TAMs. *)

val pp : Format.formatter -> t -> unit
val pp_partition : Format.formatter -> int array -> unit
(** Render widths like the paper: ["5+3+8"]. *)
