module Soc = Soctam_model.Soc
module Arch = Soctam_tam.Architecture
module V = Violation

let arch_subject soc = Printf.sprintf "%s architecture" soc.Soc.name

let architecture ?table ?check_bounds ?check_exact ?check_exhaustive
    ?check_simulation ?total_width ~soc arch =
  Report.make ~subject:(arch_subject soc)
    (Arch_check.certify ?table ?check_bounds ?check_exact ?check_exhaustive
       ?check_simulation ?total_width ~soc arch)

let claim ?table ?check_bounds ?check_exact ?check_exhaustive ?check_simulation
    ?subject ~soc c =
  let subject = Option.value subject ~default:(arch_subject soc) in
  Report.make ~subject
    (Arch_check.certify_claim ?table ?check_bounds ?check_exact
       ?check_exhaustive ?check_simulation ~soc c)

let parsed_architecture ?table ?check_exact ?check_exhaustive ?check_simulation
    ?total_width ~soc (parsed : Soctam_tam.Arch_format.parsed) =
  let name_check =
    match parsed.Soctam_tam.Arch_format.soc_name with
    | Some name when name <> soc.Soc.name ->
        [
          V.warningf V.Soc_name_mismatch V.Soc
            "architecture was saved for SOC %s but is being checked against %s"
            name soc.Soc.name;
        ]
    | Some _ | None -> []
  in
  let widths = parsed.Soctam_tam.Arch_format.widths in
  let assignment = parsed.Soctam_tam.Arch_format.assignment in
  let subject = Printf.sprintf "%s vs %s" (arch_subject soc) "architecture file" in
  match Arch.make ~soc ~widths ~assignment with
  | exception Invalid_argument _ ->
      (* Structurally broken: certify_claim reports every violated
         invariant (the claimed time is irrelevant, it is never reached). *)
      let c =
        {
          Arch_check.total_width;
          widths;
          assignment;
          core_times = None;
          tam_times = None;
          time = 0;
        }
      in
      ( Report.make ~subject
          (name_check @ Arch_check.certify_claim ~check_bounds:false ~soc c),
        None )
  | arch ->
      let violations =
        Arch_check.certify ?table ?check_exact ?check_exhaustive
          ?check_simulation ?total_width ~soc arch
      in
      (Report.make ~subject (name_check @ violations), Some arch)

let schedule ?budget ~soc ~arch ~power sched =
  let arch_violations = Arch_check.certify ~soc arch in
  let sched_violations = Schedule_check.certify ?budget ~arch ~power sched in
  Report.make
    ~subject:(Printf.sprintf "%s test schedule" soc.Soc.name)
    (arch_violations @ sched_violations)

let packing ?table ?expected_makespan ?subject ~total_width sched =
  let subject =
    match subject with
    | Some s -> s
    | None -> Printf.sprintf "rectangle schedule (W = %d)" total_width
  in
  Report.make ~subject
    (Schedule_check.certify_packing ?table ?expected_makespan ~total_width
       sched)

let soc s =
  Report.make ~subject:(Printf.sprintf "SOC %s" s.Soc.name) (Soc_lint.lint_soc s)

let soc_string ?(subject = "SOC description") text =
  let violations, parsed = Soc_lint.lint_string text in
  (Report.make ~subject violations, parsed)

let soc_file path =
  match Soc_lint.lint_file path with
  | Error _ as e -> e
  | Ok (violations, parsed) ->
      Ok (Report.make ~subject:path violations, parsed)
