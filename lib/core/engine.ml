type instance = {
  table : Time_table.t;
  total_width : int;
}

type caps = {
  parallel : bool;
  imports_tau : bool;
  needs_fixed_tams : bool;
  free_tams_only : bool;
  proves : bool;
}

type report = {
  r_widths : int array;
  r_time : int;
  r_assignment : int array;
  r_outcome : Outcome.t;
  r_notes : string list;
}

module type S = sig
  val name : string
  val caps : caps
  val check_body : Soctam_util.Json.t -> unit
  val run : Run_config.t -> instance -> report
end

type t = (module S)

let name (module E : S) = E.name
let caps (module E : S) = E.caps
let check_token (module E : S) token =
  Checkpoint.decode ~engine:E.name E.check_body token
let run (module E : S) = E.run

let fixed_tams ~name (cfg : Run_config.t) =
  match cfg.Run_config.tams with
  | Some b -> b
  | None ->
      invalid_arg
        (name
       ^ ": this engine requires a fixed TAM count (Run_config.with_tams)")

module Pe : S = struct
  let name = "pe"

  let caps =
    {
      parallel = true;
      imports_tau = true;
      needs_fixed_tams = false;
      free_tams_only = false;
      proves = false;
    }

  let check_body = Partition_evaluate.check_body

  let run (cfg : Run_config.t) inst =
    let pe =
      Partition_evaluate.run_with cfg ~table:inst.table
        ~total_width:inst.total_width
    in
    match pe.Partition_evaluate.outcome with
    | Outcome.Complete when Array.length pe.Partition_evaluate.widths > 0 ->
        (* The paper's final exact step, but only once the search is
           complete: a racing slice that will be resumed reports the
           raw heuristic incumbent instead of paying a B&B polish per
           slice. *)
        let co =
          Co_optimize.finish ~stats:cfg.Run_config.stats ~table:inst.table
            ~node_limit:cfg.Run_config.node_limit pe
        in
        let arch = co.Co_optimize.architecture in
        {
          r_widths = arch.Soctam_tam.Architecture.widths;
          r_time = co.Co_optimize.final_time;
          r_assignment = arch.Soctam_tam.Architecture.assignment;
          r_outcome = Outcome.Complete;
          r_notes =
            [
              Printf.sprintf "heuristic time %d, final time %d (%s)"
                co.Co_optimize.heuristic_time co.Co_optimize.final_time
                (if co.Co_optimize.final_proven_optimal then
                   "exact step proven optimal for the chosen partition"
                 else "exact step hit its node budget");
            ];
        }
    | outcome ->
        {
          r_widths = pe.Partition_evaluate.widths;
          r_time = pe.Partition_evaluate.time;
          r_assignment = pe.Partition_evaluate.assignment;
          r_outcome = outcome;
          r_notes = [];
        }
end

let exhaustive_report (r : Exhaustive.result) =
  {
    r_widths = r.Exhaustive.widths;
    r_time = r.Exhaustive.time;
    r_assignment = r.Exhaustive.assignment;
    r_outcome = r.Exhaustive.outcome;
    r_notes =
      Printf.sprintf "%d/%d partitions solved, %d nodes"
        r.Exhaustive.partitions_solved r.Exhaustive.partitions_total
        r.Exhaustive.nodes
      ::
      (if Array.length r.Exhaustive.widths = 0 then
         [ "no architecture of this instance beats the imported bound" ]
       else []);
  }

module Ex : S = struct
  let name = "exhaustive"

  let caps =
    {
      parallel = true;
      imports_tau = true;
      needs_fixed_tams = true;
      free_tams_only = false;
      proves = true;
    }

  let check_body = Exhaustive.check_body

  let run (cfg : Run_config.t) inst =
    let tams = fixed_tams ~name cfg in
    exhaustive_report
      (Exhaustive.run_with ~solver:Exhaustive.Bb cfg ~table:inst.table
         ~total_width:inst.total_width ~tams)
end

module Ilp : S = struct
  let name = "ilp"

  let caps =
    {
      parallel = true;
      (* The MILP path has no warm start to thread a foreign bound
         into, so an import would be dead weight. *)
      imports_tau = false;
      needs_fixed_tams = true;
      free_tams_only = false;
      proves = true;
    }

  let check_body = Exhaustive.check_body

  let run (cfg : Run_config.t) inst =
    let tams = fixed_tams ~name cfg in
    exhaustive_report
      (Exhaustive.run_with ~solver:Exhaustive.Milp cfg ~table:inst.table
         ~total_width:inst.total_width ~tams)
end

let pe : t = (module Pe)
let exhaustive : t = (module Ex)
let ilp : t = (module Ilp)
