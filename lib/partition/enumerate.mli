(** Enumeration of unique integer partitions in nondecreasing form.

    Two interchangeable engines are provided:
    - {!fold} / {!iter}: a clean recursive generator;
    - {!Odometer}: the paper's [Increment] procedure (Figure 3), which
      maintains loop variables [w_1 <= ... <= w_(B-1)] bounded by
      [floor((W - sum_(i<j) w_i) / (B - j + 1))] and derives
      [w_B = W - sum]. This bound is the paper's first level of
      solution-space pruning: it prevents re-enumeration of permuted
      copies of the same partition.

    Both enumerate each partition of [total] into exactly [parts]
    positive parts exactly once, in lexicographic order of the
    nondecreasing representation. *)

val fold :
  total:int -> parts:int -> init:'acc -> f:('acc -> int array -> 'acc) -> 'acc
(** [fold ~total ~parts ~init ~f] folds [f] over every partition. The
    array passed to [f] is reused between calls; copy it to retain it. *)

val iter : total:int -> parts:int -> (int array -> unit) -> unit

val to_list : total:int -> parts:int -> int array list
(** All partitions as fresh arrays, in enumeration order. *)

module Compositions : sig
  (** The naive "enumeration-comparison" baseline the paper's Section 3.1
      argues against: enumerate {e every} composition (ordered tuple) of
      [total] into [parts] positive parts and filter out permuted
      duplicates with a memory of canonical forms. Correct, but the
      number of compositions is [C(total-1, parts-1)] — exponentially
      more than the unique partitions — and the duplicate memory grows
      with the partition count, which is exactly why the bounded
      [Increment] enumeration wins. Exposed for the [ab_enum] ablation of
      [soctam tables]. *)

  type stats = {
    compositions : int;  (** ordered tuples generated *)
    unique : int;  (** distinct partitions yielded *)
    memory_entries : int;  (** canonical forms retained for dedup *)
  }

  val fold :
    total:int -> parts:int -> init:'acc ->
    f:('acc -> int array -> 'acc) -> 'acc * stats
  (** Folds [f] over the unique partitions (in canonical nondecreasing
      form, same set as {!val-fold}) while generating all compositions
      underneath. The array passed to [f] is fresh. *)

  val count : total:int -> parts:int -> stats
  (** Run the enumeration purely for its statistics. *)
end

val unrank : total:int -> parts:int -> rank:int -> int array option
(** [unrank ~total ~parts ~rank] is the partition at 0-based position
    [rank] of the lexicographic enumeration order shared by {!fold} and
    {!Odometer} — without enumerating its predecessors. Descends the
    enumeration tree guided by {!Count.exact} block counts, so it costs
    O(parts * total) counting queries instead of O(rank) advances. This
    is what lets the parallel evaluation layer cut the sequence of
    [Count.exact ~total ~parts] partitions into contiguous rank chunks
    and start a domain at each chunk boundary. [None] when no such
    partition exists ([rank] out of range or the instance is empty). *)

val unrank_into : total:int -> parts:int -> rank:int -> int array -> bool
(** Allocation-free {!unrank}: write the partition into the first
    [parts] slots of the caller-provided array and return [true], or
    return [false] (array untouched) when no such partition exists.
    This is the form the chunked evaluation layer can call per chunk
    boundary without garbage; {!unrank} is the allocating convenience
    wrapper over it.

    @raise Invalid_argument if the array is shorter than [parts]. *)

module Odometer : sig
  type t

  val create : total:int -> parts:int -> t option
  (** [None] when no partition exists ([total < parts] or [parts < 1]).
      Otherwise positioned on the first partition
      [(1, 1, ..., total - parts + 1)]. *)

  val create_at : total:int -> parts:int -> rank:int -> t option
  (** Like {!create} but positioned on the partition {!unrank} returns
      for [rank]; advancing then continues the enumeration from there.
      [None] when [rank] is out of range. *)

  val current : t -> int array
  (** The partition currently pointed at (do not mutate). *)

  val reposition : t -> rank:int -> bool
  (** [reposition t ~rank] re-aims [t] at the partition of 0-based
      lexicographic position [rank], reusing its widths array
      (allocation-free, {!unrank_into} underneath). [false] — with the
      odometer left at its previous position — when [rank] is out of
      range. This is what lets a work-stealing worker carry one
      odometer across non-contiguous chunks instead of allocating one
      per chunk boundary. *)

  val advance : t -> bool
  (** Move to the next partition; [false] when exhausted (the paper's
      [halt] flag). *)

  val skip_block : t -> limit:int -> int
  (** [skip_block t ~limit] advances [t] through its trailing block,
      stopping after [limit] advances, and returns how many it made.
      The trailing block starts at the first of the equal loop
      variables [w_j = ... = w_(B-1)] (the last of them alone at
      worst): with the parts before [j] fixed, the current partition is
      the first of the partitions of [R] into [B - j] parts of size
      [>= w_j], where [R] is what the fixed parts leave, and the block
      is all of them.
      Its last partition is the balanced split of [R], after which an
      advance changes a fixed part. No partition of the block has a
      wider widest part than the current one, which is what lets
      [Partition_evaluate] settle a whole block from its first member.
      The block's size comes from {!Count.exact}, which takes a global
      lock above two parts. O(parts) when the block fits in [limit],
      plus an {!unrank_into} descent below position [j] when it does
      not; allocation-free. 0 for one part or [limit <= 0]. *)
end
