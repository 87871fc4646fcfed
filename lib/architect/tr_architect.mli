(** A TR-Architect-style local search for P_NPAW (after Goel &
    Marinissen's TR-Architect, the successor of the paper's method).

    Where [Partition_evaluate] sweeps the whole partition space under a
    pruning threshold, this optimizer walks greedily from a seed
    partition: it repeatedly tries to help the bottleneck TAM —
    take a wire from the TAM with the most slack, or merge the two
    least-loaded TAMs and hand the freed wires to the bottleneck —
    re-running [Core_assign] after each tentative move and keeping the
    first move that lowers the SOC testing time. Terminates when no
    move helps.

    Each accepted move costs at most O(B^2) [Core_assign] runs, so a
    climb is cheap next to a partition sweep; [soctam race] uses it to
    polish its winning architecture. *)

type result = {
  widths : int array;
  assignment : int array;
  time : int;
  moves_tried : int;
  moves_accepted : int;
}

val climb :
  ?max_tams:int ->
  table:Soctam_core.Time_table.t ->
  widths:int array ->
  unit ->
  result
(** One hill climb from a supplied seed partition: the seed's core
    assignment is re-derived with [Core_assign], then the climb walks
    from there. Never reports a time worse than the seed's, which is
    what lets the racing portfolio polish its winner with it ([soctam
    race] seeds the climb with the winning architecture). Split moves
    are bounded by [max (max_tams) (seed TAM count)].
    @raise Invalid_argument on an empty seed, a width below 1, a table
    narrower than the seed's total width, or [max_tams < 1]. *)
