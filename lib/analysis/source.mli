(** Source-tree discovery and the reachability model behind DOM-SHARED.

    The analyzer works on the repository's own sources: every [.ml] and
    [.mli] under [lib/], [bin/] and [examples/]. Paths are
    reported relative to the analysis root, ['/']-separated, so findings
    and baseline entries are stable across machines. *)

val scan_dirs : string list
(** [["lib"; "bin"; "examples"]] — the directories walked. *)

val discover : root:string -> string list
(** Every [.ml] / [.mli] file under [root/]{!scan_dirs}, as root-relative
    paths, sorted. Directories starting with ['.'] or ['_'] (editor
    droppings, [_build]) are skipped. A missing scan dir is not an
    error — it is simply absent from the result. *)

val solver_layer : string -> bool
(** Is this path inside a determinism-critical solver layer
    ([lib/core], [lib/partition], [lib/wrapper], [lib/tam])? DET-POLY
    applies exactly there. *)

val in_lib : string -> bool
(** Is this path under [lib/]? DET-POLY's type-variable form (an
    ordering, [compare], [min] or [max] at a type variable) applies
    there, solver layer or not. *)

val entropy_exempt : string -> bool
(** Is this path one of the sanctioned entropy/clock wrappers
    ([lib/util/prng.*], [lib/util/timer.*])? DET-ENTROPY does not apply
    there. *)

(** {1 Pool reachability}

    DOM-SHARED needs to know which modules can execute on
    [Soctam_util.Pool] worker domains. The pool itself is generic: the
    closures it runs come from [soctam_core], so the code that can race
    is [soctam_core] plus everything it (transitively) links against.
    That set is recovered from the build system itself — each
    [lib/<dir>/dune] names its library and its [soctam_*] dependencies —
    rather than hard-coded, so adding a new solver dependency
    automatically extends the analyzed surface. *)

val domain_libraries : root:string -> string list
(** The [lib/] subdirectories whose code can run on pool domains:
    [soctam_core]'s directory plus those of its transitive in-repo
    dependencies, per the committed [dune] files. Sorted. Empty when
    [root/lib] does not exist or no [soctam_core] library is found. *)

val domain_reachable : root:string -> string -> bool
(** [domain_reachable ~root path]: is [path] (root-relative) inside one
    of {!domain_libraries}? Precomputes the set once per call to
    [domain_reachable ~root]; partial application reuses it. *)

(** {1 Cmt discovery}

    The typed pass ([Typed]) reads the [.cmt] files dune writes next to
    compiled modules. They live under [root/_build/default] when the
    analyzer runs from a source checkout, or directly under [root] when
    it runs inside dune's build directory (the [@lint-src] rule). *)

val cmt_files : root:string -> string list
(** Absolute paths of every [*.cmt] under [root/_build/default] if that
    directory exists, otherwise under [root] itself. The walk descends
    into dot-directories (dune's [.<lib>.objs]) but never into [.git] or
    a nested [_build]. Sorted; empty when nothing has been compiled. *)
