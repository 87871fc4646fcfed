(** Index selection over arrays, with deterministic first-wins ties.

    The paper's algorithms are specified in terms of "select the TAM with
    minimum load" / "the core with maximum time", with explicit
    tie-breaking rules layered on top; these helpers give the raw argmin /
    argmax with the stable (lowest-index) tie-break. *)

val min_index : ('a -> 'a -> int) -> 'a array -> int
(** [min_index compare a] is the least index of a minimal element.
    @raise Invalid_argument on an empty array. *)

val max_index : ('a -> 'a -> int) -> 'a array -> int
(** [max_index compare a] is the least index of a maximal element.
    @raise Invalid_argument on an empty array. *)

val min_index_by : ('a -> int) -> 'a array -> int
(** [min_index_by key a] is the least index minimizing [key a.(i)]:
    keys compare as ints, ties go to the lowest index. [key] is called
    once per element.
    @raise Invalid_argument on an empty array. *)

val max_index_by : ('a -> int) -> 'a array -> int
(** [max_index_by key a] is the least index maximizing [key a.(i)]:
    keys compare as ints, ties go to the lowest index. [key] is called
    once per element.
    @raise Invalid_argument on an empty array. *)

val filter_indices : (int -> 'a -> bool) -> 'a array -> int list
(** Indices whose elements satisfy the predicate, in increasing order. *)
