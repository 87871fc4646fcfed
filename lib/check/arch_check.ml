module Soc = Soctam_model.Soc
module Design = Soctam_wrapper.Design
module Arch = Soctam_tam.Architecture
module V = Violation

type claim = {
  total_width : int option;
  widths : int array;
  assignment : int array;
  core_times : int array option;
  tam_times : int array option;
  time : int;
}

let claim_of_architecture ?total_width (a : Arch.t) =
  {
    total_width;
    widths = Array.copy a.Arch.widths;
    assignment = Array.copy a.Arch.assignment;
    core_times = Some (Array.copy a.Arch.core_times);
    tam_times = Some (Array.copy a.Arch.tam_times);
    time = a.Arch.time;
  }

(* Structural invariants: the partition and assignment must describe a
   well-formed test-bus architecture before any time can be recomputed. *)
let structure ~soc claim =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let tams = Array.length claim.widths in
  if tams = 0 then
    add (V.errorf V.Empty_partition V.Soc "the width partition has no TAM");
  Array.iteri
    (fun j w ->
      if w < 1 then
        add
          (V.errorf V.Nonpositive_width (V.Tam (j + 1))
             "TAM width %d is not positive" w))
    claim.widths;
  (match claim.total_width with
  | Some total when tams > 0 ->
      let sum = Soctam_util.Intutil.sum claim.widths in
      if sum <> total then
        add
          (V.errorf V.Width_sum_mismatch V.Soc
             "widths sum to %d but the optimizer was given W = %d" sum total)
  | Some _ | None -> ());
  let cores = Soc.core_count soc in
  if Array.length claim.assignment <> cores then
    add
      (V.errorf V.Assignment_length_mismatch V.Soc
         "assignment covers %d cores but the SOC has %d (dropped or surplus \
          core)"
         (Array.length claim.assignment)
         cores)
  else
    Array.iteri
      (fun i j ->
        if j < 0 || j >= tams then
          add
            (V.errorf V.Assignment_out_of_range (V.Core (i + 1))
               "core assigned to TAM %d, but only TAMs 1..%d exist" (j + 1)
               tams))
      claim.assignment;
  List.rev !violations

(* Exact per-core recomputation from the wrapper-design primitive. *)
let recompute ~soc claim =
  let cores = Soc.core_count soc in
  let core_times =
    Array.init cores (fun i ->
        (Design.design (Soc.core soc i) ~width:claim.widths.(claim.assignment.(i)))
          .Design.time)
  in
  let tam_times = Array.make (Array.length claim.widths) 0 in
  Array.iteri
    (fun i j -> tam_times.(j) <- tam_times.(j) + core_times.(i))
    claim.assignment;
  (core_times, tam_times, Soctam_util.Intutil.max_element tam_times)

let compare_times ~claimed ~recomputed ~kind ~loc ~what =
  let violations = ref [] in
  Array.iteri
    (fun i claimed_time ->
      if claimed_time <> recomputed.(i) then
        violations :=
          V.errorf kind (loc i) "claimed %s %d, recomputed %d" what
            claimed_time recomputed.(i)
          :: !violations)
    claimed;
  List.rev !violations

(* A table of another SOC, even one of the same size, holds other cores'
   times: reuse it only for this very SOC. *)
let ensure_table ?table soc ~width =
  match table with
  | Some t
    when Soctam_core.Time_table.max_width t >= width
         && Soctam_core.Time_table.soc t == soc ->
      t
  | Some _ | None -> Soctam_core.Time_table.build soc ~max_width:width

let certify_claim ?table ?(check_bounds = true) ?(check_exact = false)
    ?(check_exhaustive = false) ?(check_simulation = false) ~soc claim =
  let structural = structure ~soc claim in
  if structural <> [] then structural
  else begin
    let violations = ref [] in
    let add v = violations := v :: !violations in
    let core_times, tam_times, time = recompute ~soc claim in
    (match claim.core_times with
    | Some claimed when Array.length claimed <> Array.length core_times ->
        add
          (V.errorf V.Core_time_mismatch V.Soc
             "claimed %d core times for %d cores" (Array.length claimed)
             (Array.length core_times))
    | Some claimed ->
        List.iter add
          (compare_times ~claimed ~recomputed:core_times
             ~kind:V.Core_time_mismatch
             ~loc:(fun i -> V.Core (i + 1))
             ~what:"core time")
    | None -> ());
    (match claim.tam_times with
    | Some claimed when Array.length claimed <> Array.length tam_times ->
        add
          (V.errorf V.Tam_time_mismatch V.Soc "claimed %d TAM times for %d TAMs"
             (Array.length claimed) (Array.length tam_times))
    | Some claimed ->
        List.iter add
          (compare_times ~claimed ~recomputed:tam_times
             ~kind:V.Tam_time_mismatch
             ~loc:(fun j -> V.Tam (j + 1))
             ~what:"TAM time")
    | None -> ());
    if claim.time <> time then
      add
        (V.errorf V.Soc_time_mismatch V.Soc
           "claimed SOC time %d, recomputed max over TAMs is %d" claim.time
           time);
    let total_width =
      match claim.total_width with
      | Some w -> max w (Soctam_util.Intutil.sum claim.widths)
      | None -> Soctam_util.Intutil.sum claim.widths
    in
    let table = lazy (ensure_table ?table soc ~width:total_width) in
    if check_bounds then begin
      let bounds =
        Soctam_core.Bounds.compute (Lazy.force table) ~total_width
      in
      if claim.time < bounds.Soctam_core.Bounds.combined then
        add
          (V.errorf V.Lower_bound_violated V.Soc
             "claimed time %d beats the admissible lower bound %d (bottleneck \
              %d, wire volume %d): the claim is impossible"
             claim.time bounds.Soctam_core.Bounds.combined
             bounds.Soctam_core.Bounds.bottleneck
             bounds.Soctam_core.Bounds.wire_volume)
    end;
    if check_exact then begin
      let times =
        Soctam_core.Time_table.matrix (Lazy.force table) ~widths:claim.widths
      in
      let exact = Soctam_ilp.Exact.solve_bb ~widths:claim.widths ~times () in
      if exact.Soctam_ilp.Exact.optimal && claim.time < exact.Soctam_ilp.Exact.time
      then
        add
          (V.errorf V.Beats_exhaustive_optimum V.Soc
             "claimed time %d beats the proven P_AW optimum %d for partition \
              %s"
             claim.time exact.Soctam_ilp.Exact.time
             (Format.asprintf "%a" Arch.pp_partition claim.widths))
    end;
    if check_exhaustive then begin
      let exhaustive =
        Soctam_core.Exhaustive.run_with Soctam_core.Run_config.default
          ~table:(Lazy.force table) ~total_width
          ~tams:(Array.length claim.widths)
      in
      if
        Soctam_core.Outcome.is_complete
          exhaustive.Soctam_core.Exhaustive.outcome
        && claim.time < exhaustive.Soctam_core.Exhaustive.time
      then
        add
          (V.errorf V.Beats_exhaustive_optimum V.Soc
             "claimed time %d beats the exhaustive optimum %d over all %d-TAM \
              partitions of W = %d"
             claim.time exhaustive.Soctam_core.Exhaustive.time
             (Array.length claim.widths) total_width)
    end;
    if check_simulation && claim.time = time then begin
      let architecture =
        Arch.make ~soc ~widths:claim.widths ~assignment:claim.assignment
      in
      let sim = Soctam_sim.Soc_sim.run soc architecture in
      if sim.Soctam_sim.Soc_sim.soc_cycles <> time then
        add
          (V.errorf V.Simulation_mismatch V.Soc
             "cycle-level simulation finishes at %d cycles, analytical \
              recompute says %d"
             sim.Soctam_sim.Soc_sim.soc_cycles time)
    end;
    List.rev !violations
  end

let certify ?table ?check_bounds ?check_exact ?check_exhaustive
    ?check_simulation ?total_width ~soc architecture =
  certify_claim ?table ?check_bounds ?check_exact ?check_exhaustive
    ?check_simulation ~soc
    (claim_of_architecture ?total_width architecture)
