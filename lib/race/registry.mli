(** The engine registry: every solver of the repo as a first-class
    {!Soctam_core.Engine.t}, under its stable registry name. The CLI
    subcommands and the racing portfolio ({!Race}) resolve engines only
    through this module. *)

val all : unit -> Soctam_core.Engine.t list
(** Every registered engine, in canonical order: [pe] (the paper's
    pipeline), [pack] (rectangle packing), [anneal] (simulated
    annealing, default schedule), [exhaustive] (per-partition B&B) and
    [ilp] (per-partition MILP cross-check). *)

val find : string -> (Soctam_core.Engine.t, string) result
(** Look one engine up by registry name. *)

val parse : string -> (Soctam_core.Engine.t list, string) result
(** Parse a comma-separated portfolio spec (["pe,pack"]); order is
    preserved, whitespace around names is ignored, duplicates and
    unknown names are errors. *)
