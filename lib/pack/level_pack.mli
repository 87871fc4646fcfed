(** Level-oriented strip packing: the geometric core of the
    rectangle-packing co-optimization engine (arXiv 1008.3320 and the
    diagonal-length-ordering variant 1008.4446).

    A rectangle is a core tested at one wrapper width: [r_w] TAM wires
    for [r_h] clock cycles. Packing rectangles into a strip of width
    [W] so the occupied height is small is the packing recast of the
    paper's P_PAW: the strip width is the SOC's TAM width, the height
    is testing time.

    The packers here are {e level} algorithms: rectangles are placed
    left to right on shelves, and a shelf's height is the tallest
    rectangle on it. Level packings are not valid test-bus schedules
    by themselves — a test-bus architecture holds one lane structure
    for the whole session, while consecutive levels may disagree — so
    the engine ({!Pack_engine}) distills level geometry into lane
    partitions rather than reporting raw heights as SOC times. The raw
    packings keep their own sound invariants (no overlap, strip width
    respected, height never below {!lower_bound}), which the qcheck
    suite pins directly. *)

type rect = {
  r_id : int;  (** caller's identity, e.g. the 0-based core index *)
  r_w : int;  (** width in TAM wires, [>= 1] *)
  r_h : int;  (** height in clock cycles, [>= 0] *)
}

type placed = { p_id : int; p_x : int; p_y : int; p_w : int; p_h : int }
(** A rectangle at its packed position: it occupies
    [[p_x, p_x + p_w) x [p_y, p_y + p_h)]. *)

type level = {
  l_y : int;  (** bottom of the shelf *)
  l_h : int;  (** shelf height: the tallest rectangle on it *)
  l_slots : placed list;  (** left to right, in placement order *)
}

type packing = {
  pk_width : int;  (** the strip width the packing was built for *)
  pk_height : int;  (** total occupied height: sum of level heights *)
  pk_levels : level list;  (** bottom to top *)
}

(** Placement discipline x rectangle order. [Ffdh] and [Nfdh] sort by
    decreasing height (first-fit scans every open shelf, next-fit only
    the latest); [Diagonal] keeps first-fit placement but orders by
    decreasing squared diagonal [w^2 + h^2], the 1008.4446 heuristic
    that mixes tall and wide rectangles earlier. All tie-breaks are on
    integer keys ending at [r_id], so every order is total and the
    packers are deterministic. *)
type order = Ffdh | Nfdh | Diagonal

val orders : order list
(** [[Ffdh; Nfdh; Diagonal]], the engine's fixed heuristic portfolio. *)

val pack : order -> width:int -> rect list -> packing
(** Pack every rectangle into a strip of the given width. Total: every
    input rectangle appears in exactly one level, levels never exceed
    the strip width, and [pk_height] is the sum of level heights.
    @raise Invalid_argument when [width < 1] or some rectangle has
    [r_w < 1], [r_w > width] or [r_h < 0]. *)

val slots : packing -> placed list
(** All placed rectangles, bottom level first. *)

val lower_bound : width:int -> rect list -> int
(** The trivial strip-packing bound: [max(ceil(sum w*h / width),
    max h)]. No packing of the rectangles — level or not — can occupy
    less height. [0] for an empty list.
    @raise Invalid_argument like {!pack}. *)
