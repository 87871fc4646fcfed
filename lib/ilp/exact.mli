(** Exact solvers for P_AW: assign cores to TAMs of fixed widths so that
    the SOC testing time (the maximum summed core time over TAMs) is
    minimal.

    Two engines are provided:
    - {!solve_bb}: a dedicated combinatorial branch & bound on the
      unrelated-machine makespan formulation — the scalable engine used
      by the co-optimization pipeline's final step and by the exhaustive
      baseline;
    - {!solve_milp}: the paper's §3.2 ILP model (binary assignment
      variables [x_ij], makespan variable [T]) solved with our
      {!Soctam_lp} simplex/branch-and-bound — used for cross-checking.

    Both accept [times.(i).(j)], the testing time of core [i] on TAM [j]
    (already reflecting each TAM's width through the wrapper design). *)

type result = {
  time : int;  (** SOC testing time of the returned assignment *)
  assignment : int array;  (** core index -> TAM index *)
  optimal : bool;  (** proven optimal (budget not exhausted) *)
  nodes : int;  (** search nodes explored *)
}

val solve_bb :
  ?node_limit:int ->
  ?initial:int array * int ->
  ?widths:int array ->
  times:int array array ->
  unit ->
  result
(** Branch & bound. [initial] warm-starts the incumbent with a known
    assignment and its makespan. [widths] enables symmetry breaking
    between TAMs of equal width (safe to omit). [node_limit] defaults to
    2_000_000.

    A node is pruned when a lower bound on every completion reaches the
    incumbent. The bound is the largest of: the path's makespan; the
    average load [ceil ((L + S) / B)], where [L] is the path's total load
    and [S] sums the remaining cores' best times; the dual-weight bound
    [ceil ((sum_j q_j * load_j + S_q) / sum_j q_j)], where [S_q] sums the
    remaining cores' [min_j q_j * t_ij]; and, per remaining core, its
    cheapest landing spot. The weights [q] are {!lp_dual}'s [lambda],
    rounded to integers totalling about 2^20 (fewer when the times are
    large enough to risk overflow). The average load is the same bound
    with uniform weights. The LP is solved lazily, once the node count
    reaches [cores * tams * (cores + tams)], the dual LP's size, so small
    searches never pay for it; until then, or if the LP fails, the term
    is off.

    The extra term only cuts subtrees holding nothing strictly better
    than the incumbent, and the visit order is unchanged. So [optimal]
    and [nodes] mean what they always did: a search that finishes within
    budget returns the same [time] and [assignment] as without the term,
    in fewer or as many nodes, and a node-limited one can only end equal
    or better.
    @raise Invalid_argument on an empty instance or ragged [times]. *)

val lp_dual : times:int array array -> (float * float array) option
(** The dual of the §3.2 model's LP relaxation, solved with
    {!Soctam_lp.Simplex}: maximise [sum_i u_i] subject to
    [u_i <= lambda_j * t_ij], [sum_j lambda_j = 1], [u, lambda >= 0].
    TAMs with identical time columns get equal weights. [Some (value,
    lambda)] on success, where [value] equals the relaxation's minimal
    makespan [T]; [None] if the simplex fails.
    @raise Invalid_argument on an empty instance or ragged [times]. *)

val root_bound : times:int array array -> int option
(** The dual-weight bound {!solve_bb} applies at the root, with the
    integer weights it derives from {!lp_dual}; [None] when it leaves the
    term off. Always at most the optimal makespan.
    @raise Invalid_argument on an empty instance or ragged [times]. *)

val solve_milp :
  ?node_limit:int -> times:int array array -> unit -> result
(** The paper's ILP model via {!Soctam_lp.Milp}. [node_limit] defaults to
    50_000 LP nodes. *)

val makespan : times:int array array -> assignment:int array -> int
(** Evaluate an assignment. *)
