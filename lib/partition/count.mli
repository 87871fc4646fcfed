(** Counting integer partitions.

    A partition of [n] into exactly [k] parts is a nondecreasing sequence
    of [k] positive integers summing to [n]. [Partition_evaluate]
    enumerates these as candidate TAM width splits; the counts below
    quantify the enumeration space (paper Table 1). *)

val exact : total:int -> parts:int -> int
(** [exact ~total ~parts] is p(total, parts), the number of partitions of
    [total] into exactly [parts] positive parts. 0 when impossible.
    Exact dynamic programming; memoized across calls. The memo is
    protected by a global lock, so concurrent calls from multiple
    domains are safe (the parallel evaluation layer counts and unranks
    partitions); at most two parts are answered in closed form without
    it.
    Every addition is overflow-checked: p(512, 27) and p(1000, 15), for
    instance, do not fit an OCaml [int].
    @raise Invalid_argument naming [total] and [parts] when the count
    exceeds [max_int]. *)

val at_most : total:int -> max_parts:int -> int
(** Partitions of [total] into at most [max_parts] parts.
    @raise Invalid_argument when the count exceeds [max_int]. *)

val all : int -> int
(** p(n): partitions of [n] into any number of parts. *)

val estimate : total:int -> parts:int -> float
(** The paper's asymptotic estimate [W^(B-1) / (B! * (B-1)!)], accurate
    for [total >> parts] (used to fill Table 1). *)

val exact_two : int -> int
(** Closed form p(n, 2) = floor(n / 2). *)

val exact_three : int -> int
(** Closed form p(n, 3) = round(n^2 / 12). *)
