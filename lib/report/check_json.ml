module Violation = Soctam_check.Violation
module Report = Soctam_check.Report

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let string_to buf s =
  Buffer.add_char buf '"';
  escape_to buf s;
  Buffer.add_char buf '"'

let location_to buf (loc : Violation.location) =
  let simple kind = Printf.sprintf {|{"type": "%s"}|} kind in
  let indexed kind i = Printf.sprintf {|{"type": "%s", "index": %d}|} kind i in
  Buffer.add_string buf
    (match loc with
    | Violation.Soc -> simple "soc"
    | Violation.Core i -> indexed "core" i
    | Violation.Tam j -> indexed "tam" j
    | Violation.Line l -> indexed "line" l
    | Violation.File (path, l) ->
        let b = Buffer.create 64 in
        Buffer.add_string b {|{"type": "file", "path": |};
        string_to b path;
        Buffer.add_string b (Printf.sprintf {|, "line": %d}|} l);
        Buffer.contents b)

let violation_to buf (v : Violation.t) =
  Buffer.add_string buf {|{"severity": |};
  string_to buf (Violation.severity_name v.Violation.severity);
  Buffer.add_string buf {|, "kind": |};
  string_to buf (Violation.kind_name v.Violation.kind);
  Buffer.add_string buf {|, "location": |};
  location_to buf v.Violation.location;
  Buffer.add_string buf {|, "message": |};
  string_to buf v.Violation.message;
  Buffer.add_char buf '}'

let render (report : Report.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf {|{"subject": |};
  string_to buf report.Report.subject;
  Buffer.add_string buf
    (Printf.sprintf {|, "ok": %b, "errors": %d, "warnings": %d, "infos": %d|}
       (Report.ok report)
       (List.length (Report.errors report))
       (List.length (Report.warnings report))
       (List.length (Report.infos report)));
  Buffer.add_string buf {|, "violations": [|};
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      violation_to buf v)
    report.Report.violations;
  Buffer.add_string buf "]}";
  Buffer.contents buf
