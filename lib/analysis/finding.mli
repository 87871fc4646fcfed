(** One analyzer finding, from the Typedtree pass ({!Typed}) or the
    IFACE file-set check ({!Analyze}), so both feed the same baseline
    and report machinery. *)

type t = {
  rule : Rule.id;
  path : string;  (** root-relative source path *)
  line : int;  (** 1-based *)
  message : string;
}

val compare : t -> t -> int
(** Deterministic report order: by path, then line, then rule name. *)
