(** One-call certification entry points, returning structured
    {!Report.t}s. This is the API the CLI's [soctam check] / [soctam
    lint] subcommands and the certificate every solver subcommand and
    [soctam schedule] print are built on. *)

val architecture :
  ?table:Soctam_core.Time_table.t ->
  ?check_bounds:bool ->
  ?check_exact:bool ->
  ?check_exhaustive:bool ->
  ?check_simulation:bool ->
  ?total_width:int ->
  soc:Soctam_model.Soc.t ->
  Soctam_tam.Architecture.t ->
  Report.t
(** Certify a full architecture (see {!Arch_check.certify}). *)

val claim :
  ?table:Soctam_core.Time_table.t ->
  ?check_bounds:bool ->
  ?check_exact:bool ->
  ?check_exhaustive:bool ->
  ?check_simulation:bool ->
  ?subject:string ->
  soc:Soctam_model.Soc.t ->
  Arch_check.claim ->
  Report.t
(** Certify an untrusted claim (parsed file, corrupted result, ...). *)

val parsed_architecture :
  ?table:Soctam_core.Time_table.t ->
  ?check_exact:bool ->
  ?check_exhaustive:bool ->
  ?check_simulation:bool ->
  ?total_width:int ->
  soc:Soctam_model.Soc.t ->
  Soctam_tam.Arch_format.parsed ->
  Report.t * Soctam_tam.Architecture.t option
(** Certify an architecture loaded from a [.arch] file against an SOC.
    The file carries no testing time, so the times are re-derived; the
    value of the certificate is the structural, bound, exact-optimality
    and simulation checks. A recorded SOC name different from the SOC
    under analysis is a warning. Returns the rebuilt architecture when
    the file is structurally sound. *)

val schedule :
  ?budget:int ->
  soc:Soctam_model.Soc.t ->
  arch:Soctam_tam.Architecture.t ->
  power:Soctam_power.Power_model.t ->
  Soctam_power.Power_schedule.t ->
  Report.t
(** Certify a power schedule and the architecture it runs on. *)

val packing :
  ?table:Soctam_core.Time_table.t ->
  ?expected_makespan:int ->
  ?subject:string ->
  total_width:int ->
  Soctam_pack.Pack_schedule.t ->
  Report.t
(** Certify a rectangle schedule geometrically (see
    {!Schedule_check.certify_packing}); with [table] the schedule must
    also be a complete, duration-exact test of the table's SOC. The
    test suite runs it on the packing engine's emitted schedules
    ([test/test_pack.ml], [test/golden_rows.ml]); the CLI does not. *)

val soc : Soctam_model.Soc.t -> Report.t
(** Semantic lint of a parsed SOC. *)

val soc_string : ?subject:string -> string -> Report.t * Soctam_model.Soc.t option
(** Lint SOC file contents (both dialects, auto-detected). *)

val soc_file : string -> (Report.t * Soctam_model.Soc.t option, string) result
(** Lint an SOC file. [Error] only on I/O failure. *)
