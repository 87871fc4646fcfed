(** Rectangle construction from per-core wrapper Pareto fronts.

    A core tested at TAM width [w] is a [(w x T_i(w))] rectangle; the
    times come from a {!Soctam_core.Time_table}, whose rows are served
    by the process-wide {!Soctam_wrapper.Front} memo cache — the
    rectangle engine draws from exactly the fronts every other solver
    shares. The front is a running minimum over chain counts, so
    [T_i] is monotone non-increasing in [w]; the interesting width
    choices are the Pareto steps, and a width cap selects one
    rectangle per core.

    The steps are tabulated once per table ({!make}, O(cores x W)), so
    each {!rects} call is O(cores), and {!base_cap} tells the engine
    which caps repeat an earlier cap's rectangles. *)

type t
(** Every core's Pareto-step row over caps [1 .. Time_table.max_width]. *)

val make : Soctam_core.Time_table.t -> t
(** Tabulate the steps of every row of the table. *)

val rects : t -> cap:int -> Level_pack.rect list
(** One rectangle per core under a width cap: the height is the core's
    best time using at most [cap] wires, [T_i(cap)], and the width is
    the {e narrowest} width achieving that time — wires beyond the
    Pareto step carry no test data, and trimming them is what lets a
    level hold more cores. [r_id] is the 0-based core index; the list
    is in core order. O(cores).
    @raise Invalid_argument when [cap < 1] or the table is narrower
    than [cap]. *)

val base_cap : t -> cap:int -> int
(** The smallest cap whose rectangles equal [cap]'s. The step widths
    are monotone in the cap, so the caps sharing one set of rectangles
    are consecutive: [base_cap t ~cap = cap] exactly when some core's
    time drops at [cap] (always at cap 1), and otherwise it is
    [base_cap t ~cap:(cap - 1)]. O(1).
    @raise Invalid_argument like {!rects}. *)
