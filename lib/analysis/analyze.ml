module Violation = Soctam_check.Violation
module Report = Soctam_check.Report

type finding = Finding.t = {
  rule : Rule.id;
  path : string;
  line : int;
  message : string;
}

type result = {
  report : Report.t;
  findings : finding list;
  files : int;
  suppressed : int;
  baselined : int;
  typed_files : int;
  graph : Typed.graph;
  stale : Baseline.entry list;
}

let violation_of_finding f =
  Violation.errorf (Rule.kind f.rule)
    (Violation.File (f.path, f.line))
    "%s: %s" (Rule.name f.rule) f.message

let tree ?(baseline = Baseline.empty) ~root () =
  let files = Source.discover ~root in
  let typed = Typed.run ~root ~sources:files in
  let iface_findings =
    List.filter_map
      (fun path ->
        if
          String.length path > 4
          && String.sub path 0 4 = "lib/"
          && Filename.check_suffix path ".ml"
          && not (List.mem (path ^ "i") files)
        then
          Some
            {
              rule = Rule.Iface;
              path;
              line = 1;
              message = "lib/ module without an .mli interface";
            }
        else None)
      files
  in
  let all_findings =
    List.sort Finding.compare (iface_findings @ typed.Typed.findings)
  in
  let kept, acknowledged =
    List.partition
      (fun f -> not (Baseline.covers baseline ~rule:f.rule ~path:f.path))
      all_findings
  in
  let stale =
    List.filter
      (fun (e : Baseline.entry) ->
        not
          (List.exists
             (fun f -> f.rule = e.Baseline.rule && f.path = e.Baseline.path)
             all_findings))
      (Baseline.entries baseline)
  in
  let violations =
    List.map violation_of_finding kept
    @ typed.Typed.problems
    @ List.map
        (fun (e : Baseline.entry) ->
          Violation.infof Violation.Analysis_error
            (Violation.File (e.Baseline.path, 1))
            "stale baseline entry for %s (no such finding); remove it"
            (Rule.name e.Baseline.rule))
        stale
  in
  {
    report = Report.make ~subject:"source analysis" violations;
    findings = kept;
    files = List.length files;
    suppressed = typed.Typed.suppressed;
    baselined = List.length acknowledged;
    typed_files = typed.Typed.typed_files;
    graph = typed.Typed.graph;
    stale;
  }

let summary r =
  Printf.sprintf
    "source analysis: %d files (%d typed), %d finding%s (%d suppressed, %d \
     baselined)"
    r.files r.typed_files (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    r.suppressed r.baselined
