(** The analyzer's one front end: a walk over the Typedtree of every
    [.cmt] dune writes during the build, enforcing every rule except the
    file-set check IFACE ({!Analyze.tree}).

    Per file, with resolved identifier paths ([Path.t]), it checks the
    local rules: DET-POLY (polymorphic [compare] / [Hashtbl.hash] and
    structured [=] / [<>] / orderings in solver layers, orderings /
    [compare] / [min] / [max] at a type variable anywhere under lib/),
    DET-ENTROPY (the {!Effect.entropy_source} catalog outside the
    sanctioned wrappers),
    DOM-SHARED (top-level containers in pool-reachable libraries), and
    malformed [\[@soctam.allow\]] payloads. Across files it builds a
    module-qualified call graph, marks every function transitively
    callable from a [Pool.map_chunks] / [Slice_search.round] /
    [Team.round] / [Domain.spawn] worker closure as domain-reachable, infers a conservative
    {!Effect.t} signature for every node (a Kleene fixpoint over the call
    edges), and checks DOM-ESCAPE / LOCK-RAISE / ALLOC-HOT and
    EFFECT-WORKER / OUTCOME-DROP / ENGINE-CAPS / TAU-DISCIPLINE against
    that information. DESIGN.md §13 documents the exact approximations
    each rule family makes.

    A source file with no readable [.cmt] (it does not compile, or the
    build is stale) is not analyzed; it is reported as an [Error] so an
    unbuilt tree cannot pass clean. *)

(** {1 Call graph} *)

type graph
(** The module-qualified call graph of every analyzed compilation unit.
    Nodes are ["Module.fn"] (nested: ["Pool.map_chunks.take"]); the
    distinguished pseudo-node ["<workers>"] has an edge to every
    function a worker closure calls. *)

val nodes : graph -> (string * string list) list
(** [(node, callees)] rows, sorted by node name, callees sorted and
    deduplicated. *)

val reachable : graph -> string list
(** Functions transitively callable from ["<workers>"], sorted. *)

val effects : graph -> (string * Effect.t) list
(** The solved (post-fixpoint) effect signature of every node, in node
    order. *)

val graph_json : graph -> Soctam_util.Json.t
(** Strict-JSON rendering for [soctam analyze --call-graph]:
    [{"nodes": {"Module.fn": {"calls": ["callee", ...],
      "effect": ["may-raise", ...]}, ...},
      "domain_reachable": ["Module.fn", ...]}]. The ["effect"] member is
    {!Effect.names} of the solved signature (empty array = pure).
    Deterministic member order; schema documented in DESIGN.md §13. *)

(** {1 Running the pass} *)

type t = {
  findings : Finding.t list;  (** surviving typed findings, sorted *)
  suppressed : int;  (** silenced by scoped [\[@soctam.allow\]] *)
  problems : Soctam_check.Violation.t list;
      (** malformed [\[@soctam.allow\]] payloads and one error per
          source with no matching [.cmt] ([Error]s), unreadable or
          version-mismatched [.cmt] files ([Info]s) *)
  typed_files : int;  (** sources that had a matching [.cmt] *)
  graph : graph;
}

val run : root:string -> sources:string list -> t
(** Analyze every [.cmt] under [root] (see {!Source.cmt_files}) whose
    recorded source file matches one of [sources] (root-relative paths
    from {!Source.discover}). Findings are reported against those
    root-relative paths, so they compose with the baseline. DOM-SHARED
    reachability comes from {!Source.domain_reachable} over [root]'s
    dune files. *)
