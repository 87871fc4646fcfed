(** Dense two-phase primal simplex.

    Solves the continuous relaxation of a {!Problem.t}: integrality kinds
    are ignored, variable bounds are honoured ([lb] via shifting, finite
    [ub] via an extra row). Suitable for the small models this project
    builds: tens of variables, and up to a few hundred sparse rows for
    the dual-weight LP of [Soctam_ilp.Exact.solve_bb]. A pivot only
    updates the columns where its row is nonzero. *)

type outcome =
  | Optimal of { objective : float; values : float array }
      (** [values] indexed by {!Problem.var_index}, in original space. *)
  | Infeasible
  | Unbounded

exception Numerical_failure of string
(** Raised if pivoting exceeds the iteration safety cap (should not
    happen with Bland's rule on well-scaled inputs). *)

val solve : ?bounds:(float * float) array -> Problem.t -> outcome
(** [solve ?bounds p] optimizes the relaxation; [bounds] overrides the
    problem's variable bounds (used by {!Milp} during branching). *)
