(** The conservative effect lattice behind the typed pass.

    Every call-graph node gets a signature over five independent bits —
    a product of two-point lattices, so the join is pointwise OR and
    bottom is {!pure}:

    - [writes]: mutates state it did not create (a capture of an
      enclosing scope's value, or a top-level binding) without an atomic
      or mutex guard. Decided by the site-level walk in {!Typed}; calls
      into unresolved code never contribute writes.
    - [reads]: dereferences a ref or reads a shared container
      ([Hashtbl] / [Queue] / [Stack] / [Buffer] / [Atomic]).
      [Array.get] is deliberately excluded — see DESIGN.md §13.
    - [raises]: may raise, via an explicit [raise] / [failwith] or a
      known-partial stdlib call ({!raising_call}).
    - [io]: touches a channel, the filesystem or the process
      environment.
    - [entropy]: reads a clock or PRNG — including the sanctioned
      [Soctam_util.Timer], so the dump shows where time sensitivity
      enters even when DET-ENTROPY is satisfied.

    Signatures propagate through the call graph by a Kleene fixpoint
    (caller ⊒ join of callees): {!solve}. Unresolved callees contribute
    only what the catalogs below recognize ({!of_call}) — a documented
    under-approximation. *)

type t = {
  writes : bool;
  reads : bool;
  raises : bool;
  io : bool;
  entropy : bool;
}

val pure : t
(** Bottom: no effect. *)

val join : t -> t -> t
(** Pointwise OR. *)

val equal : t -> t -> bool
val is_pure : t -> bool

val names : t -> string list
(** The set bits as stable kebab-case names, in catalog order:
    ["writes-mutable"], ["reads-mutable"], ["may-raise"],
    ["performs-io"], ["reads-entropy"]. Empty for {!pure}. *)

val to_string : t -> string
(** ["pure"] or the {!names} joined with ["+"], e.g.
    ["writes-mutable+may-raise"]. *)

val to_json : t -> Soctam_util.Json.t
(** {!names} as a JSON string array — the per-node ["effect"] member of
    the [--call-graph] dump. *)

(** {1 Call catalogs}

    All take a normalized component path (dune mangling split, [Stdlib]
    head dropped) as produced by the walk in {!Typed}. *)

val raising_call : string list -> string option
(** Known-partial stdlib entry points and explicit raise forms; the
    payload is the human-readable name (shared with LOCK-RAISE). *)

val io_call : string list -> string option
val entropy_source : string list -> string option
(** [Random.*], [Sys.time], [Unix.gettimeofday] and [Unix.time]: the
    entropy and wall-clock reads DET-ENTROPY forbids outside the
    sanctioned wrappers. The payload names the source in messages. *)

val entropy_call : string list -> string option
(** {!entropy_source} plus the sanctioned [Timer] clock reads: the
    [entropy] bit of the effect signature. *)

val reading_call : string list -> bool

val of_call : string list -> t
(** The effect an unresolved call contributes to its caller: the three
    catalogs above, never [writes]. *)

(** {1 Fixpoint} *)

val solve :
  nodes:string list ->
  edges:(string * string) list ->
  direct:(string -> t) ->
  string ->
  t
(** [solve ~nodes ~edges ~direct] returns the least fixpoint assignment
    above [direct] satisfying [eff caller ⊒ eff callee] for every
    [(caller, callee)] edge, as a total lookup function ([pure] for
    unknown nodes). *)
