(** The [\[@soctam.allow "RULE-ID"\]] / [\[@soctam.hot\]] attribute
    machinery read by the Typedtree walk ({!Typed}); Typedtree attributes
    are Parsetree attributes, so the readers take those. *)

val is_hot : Parsetree.attribute -> bool

type span = { rule : Rule.id; first : int; last : int }
(** One suppression: [rule] is silenced on lines [first..last]. *)

val spans_of : Parsetree.attributes -> first:int -> last:int -> span list
(** The suppression spans the allow attributes in [attrs] contribute to
    lines [first..last] (a node's extent, or [1..max_int] for a floating
    [\[@@@soctam.allow\]]). Malformed payloads contribute nothing. *)

val malformed : Parsetree.attribute -> string option
(** [Some why] for an allow attribute whose payload is not a string
    literal, names no rule ID, or names an unknown one; the walk reports
    each as an analyzer error. *)

val covers : span list -> Finding.t -> bool
(** Is the finding inside a span suppressing its rule? *)
