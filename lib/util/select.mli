(** Index selection over arrays, with deterministic first-wins ties.

    The paper's algorithms are specified in terms of "select the TAM with
    minimum load" / "the core with maximum time", with explicit
    tie-breaking rules layered on top; these helpers give the raw argmin /
    argmax with the stable (lowest-index) tie-break. They take an [int
    array] and no key function, so the scan is integer loads and inline
    compares (a caller with a derived key passes the array of keys). *)

val argmin : int array -> int
(** [argmin a] is the least index of a minimal element.
    @raise Invalid_argument on an empty array. *)

val argmax : int array -> int
(** [argmax a] is the least index of a maximal element.
    @raise Invalid_argument on an empty array. *)

val filter_indices : (int -> 'a -> bool) -> 'a array -> int list
(** Indices whose elements satisfy the predicate, in increasing order. *)
