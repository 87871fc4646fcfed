open Parsetree

let is_allow (attr : attribute) = attr.attr_name.txt = "soctam.allow"
let is_hot (attr : attribute) = attr.attr_name.txt = "soctam.hot"

(* The rule IDs named by an allow attribute's string-literal payload
   (space- or comma-separated), or why the payload is malformed. *)
let payload_rules (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      let tokens =
        String.map (function ',' -> ' ' | c -> c) s
        |> String.split_on_char ' '
        |> List.filter (fun t -> t <> "")
      in
      if tokens = [] then Error "names no rule ID"
      else
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | tok :: rest -> (
              match Rule.of_name tok with
              | Some r -> resolve (r :: acc) rest
              | None ->
                  Error
                    (Printf.sprintf "names unknown rule ID %S (rules: %s)" tok
                       (String.concat ", " (List.map Rule.name Rule.all))))
        in
        resolve [] tokens
  | _ -> Error "payload must be a string literal naming rule IDs"

type span = { rule : Rule.id; first : int; last : int }

let spans_of attrs ~first ~last =
  List.concat_map
    (fun attr ->
      match (is_allow attr, payload_rules attr) with
      | true, Ok rules -> List.map (fun rule -> { rule; first; last }) rules
      | _ -> [])
    attrs

let malformed attr =
  match (is_allow attr, payload_rules attr) with
  | true, Error why -> Some why
  | _ -> None

let covers spans (f : Finding.t) =
  List.exists
    (fun s -> s.rule = f.rule && s.first <= f.line && f.line <= s.last)
    spans
