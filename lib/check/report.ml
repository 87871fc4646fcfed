type t = { subject : string; violations : Violation.t list }

let make ~subject violations =
  {
    subject;
    violations =
      List.stable_sort
        (fun (a : Violation.t) (b : Violation.t) ->
          Violation.compare_severity a.Violation.severity b.Violation.severity)
        violations;
  }

let with_severity severity t =
  List.filter (fun (v : Violation.t) -> v.Violation.severity = severity) t.violations

let errors t = with_severity Violation.Error t
let warnings t = with_severity Violation.Warning t
let infos t = with_severity Violation.Info t
let ok t = errors t = []

let has_kind t kind =
  List.exists (fun (v : Violation.t) -> v.Violation.kind = kind) t.violations

let pp ppf t =
  if t.violations = [] then Format.fprintf ppf "OK: %s" t.subject
  else if ok t then
    Format.fprintf ppf "@[<v>OK: %s (%d warning(s))@,%a@]" t.subject
      (List.length (warnings t) + List.length (infos t))
      (Format.pp_print_list Violation.pp)
      t.violations
  else
    Format.fprintf ppf "@[<v>FAIL: %s (%d error(s))@,%a@]" t.subject
      (List.length (errors t))
      (Format.pp_print_list Violation.pp)
      t.violations
