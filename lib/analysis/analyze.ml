module Violation = Soctam_check.Violation
module Report = Soctam_check.Report
open Parsetree

type finding = Finding.t = {
  rule : Rule.id;
  path : string;
  line : int;
  message : string;
}

type context = {
  path : string;
  solver_layer : bool;
  entropy_exempt : bool;
  domain_reachable : bool;
}

let context_for ?(domain_reachable = fun _ -> false) path =
  {
    path;
    solver_layer = Source.solver_layer path;
    entropy_exempt = Source.entropy_exempt path;
    domain_reachable = domain_reachable path;
  }

type file_result = {
  findings : finding list;
  suppressed : int;
  problems : Violation.t list;
}

(* -- longident helpers ----------------------------------------------------- *)

(* Identifier path with an explicit [Stdlib.] prefix dropped, so
   [Stdlib.compare] and [compare] match the same rule. *)
let path_of lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | l -> l

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* -- suppression attributes ------------------------------------------------ *)

let is_allow = Allow.is_allow
let allow_payload_rules = Allow.payload_rules

(* Attributes that scope a suppression to a whole structure item. Only
   the item shapes that can carry attached attributes in this codebase
   are unpacked; anything else suppresses nothing (the floating
   [\[@@@soctam.allow\]] form always works). *)
let item_attributes item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) -> List.concat_map (fun vb -> vb.pvb_attributes) vbs
  | Pstr_primitive vd -> vd.pval_attributes
  | Pstr_type (_, tds) -> List.concat_map (fun td -> td.ptype_attributes) tds
  | Pstr_module mb -> mb.pmb_attributes
  | Pstr_eval (_, attrs) -> attrs
  | _ -> []

(* -- rule matchers --------------------------------------------------------- *)

(* DET-POLY, identifier form: names that are polymorphic wherever they
   appear. The [=] / [<>] operators are handled at application sites
   instead — flagging every integer equality would drown the signal. *)
let poly_ident lid =
  match path_of lid with
  | [ "compare" ] -> Some "polymorphic compare"
  | [ "Hashtbl"; ("hash" | "seeded_hash") ] -> Some "Hashtbl.hash"
  | _ -> None

(* DET-POLY, application form: [=] / [<>] where an operand is
   syntactically structured (tuple, record, array, non-constant
   constructor), i.e. provably not an immediate comparison. *)
let rec strip_coercions e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_coercions e
  | _ -> e

let structured_operand e =
  match (strip_coercions e).pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

let entropy_ident lid =
  match path_of lid with
  | "Random" :: _ :: _ -> Some "Random"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; "gettimeofday" ] -> Some "Unix.gettimeofday"
  | [ "Unix"; "time" ] -> Some "Unix.time"
  | _ -> None

(* DOM-SHARED: does this top-level binding allocate unsynchronized
   mutable state? *)
let mutable_allocation e =
  match (strip_coercions e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match path_of txt with
      | [ "ref" ] -> Some "ref cell"
      | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer") as m; "create" ] ->
          Some (m ^ ".t")
      | _ -> None)
  | _ -> None

let mutex_allocation e =
  match (strip_coercions e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      path_of txt = [ "Mutex"; "create" ]
  | _ -> false

(* -- the per-file walk ----------------------------------------------------- *)

let check_source ctx contents =
  if not (Filename.check_suffix ctx.path ".ml") then
    { findings = []; suppressed = 0; problems = [] }
  else
    let lexbuf = Lexing.from_string contents in
    Lexing.set_filename lexbuf ctx.path;
    match Parse.implementation lexbuf with
    | exception exn ->
        let loc, detail =
          match exn with
          | Syntaxerr.Error e -> (Syntaxerr.location_of_error e, "syntax error")
          | _ -> (Location.none, Printexc.to_string exn)
        in
        {
          findings = [];
          suppressed = 0;
          problems =
            [
              Violation.errorf Violation.Analysis_error
                (Violation.File (ctx.path, max 1 (line_of loc)))
                "cannot parse: %s" detail;
            ];
        }
    | ast ->
        let raw = ref [] in
        let spans = ref [] in
        let problems = ref [] in
        let has_mutex = ref false in
        let found rule line fmt =
          Format.kasprintf
            (fun message ->
              raw := { rule; path = ctx.path; line; message } :: !raw)
            fmt
        in
        let record_spans attrs (loc : Location.t) =
          List.iter
            (fun attr ->
              if is_allow attr then
                match allow_payload_rules attr with
                | Ok rules ->
                    List.iter
                      (fun rule ->
                        spans :=
                          (rule, loc.loc_start.pos_lnum, loc.loc_end.pos_lnum)
                          :: !spans)
                      rules
                | Error _ -> () (* reported once by the attribute visitor *))
            attrs
        in
        let check_ident lid loc =
          let line = line_of loc in
          (if ctx.solver_layer then
             match poly_ident lid with
             | Some what ->
                 found Rule.Det_poly line
                   "%s in a solver layer; determinism requires a monomorphic \
                    comparison"
                   what
             | None -> ());
          if not ctx.entropy_exempt then
            match entropy_ident lid with
            | Some what ->
                found Rule.Det_entropy line
                  "%s is an entropy/wall-clock source; use Soctam_util.Prng \
                   or Soctam_util.Timer"
                  what
            | None -> ()
        in
        let default = Ast_iterator.default_iterator in
        let iterator =
          {
            default with
            attribute =
              (fun self attr ->
                (if is_allow attr then
                   match allow_payload_rules attr with
                   | Ok _ -> ()
                   | Error why ->
                       problems :=
                         Violation.errorf Violation.Analysis_error
                           (Violation.File (ctx.path, line_of attr.attr_loc))
                           "[@soctam.allow] %s" why
                         :: !problems);
                default.attribute self attr);
            expr =
              (fun self e ->
                record_spans e.pexp_attributes e.pexp_loc;
                (match e.pexp_desc with
                | Pexp_ident { txt; loc } -> check_ident txt loc
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt; _ }; _ },
                      (_, a) :: (_, b) :: _ )
                  when ctx.solver_layer
                       && (path_of txt = [ "=" ] || path_of txt = [ "<>" ])
                       && (structured_operand a || structured_operand b) ->
                    found Rule.Det_poly (line_of e.pexp_loc)
                      "polymorphic %s on a structured value in a solver \
                       layer; compare fields explicitly"
                      (match path_of txt with
                      | [ "=" ] -> "equality (=)"
                      | _ -> "inequality (<>)")
                | _ -> ());
                default.expr self e);
            structure_item =
              (fun self item ->
                record_spans (item_attributes item) item.pstr_loc;
                (match item.pstr_desc with
                | Pstr_attribute attr when is_allow attr -> (
                    match allow_payload_rules attr with
                    | Ok rules ->
                        List.iter
                          (fun rule -> spans := (rule, 1, max_int) :: !spans)
                          rules
                    | Error _ -> ())
                | Pstr_value (_, vbs) ->
                    List.iter
                      (fun vb ->
                        if mutex_allocation vb.pvb_expr then has_mutex := true;
                        if ctx.domain_reachable then
                          match mutable_allocation vb.pvb_expr with
                          | Some what ->
                              found Rule.Dom_shared (line_of vb.pvb_loc)
                                "top-level %s in a module reachable from \
                                 Util.Pool domains; use Atomic, guard it \
                                 with a Mutex (see Partition.Count), or \
                                 [@soctam.allow \"DOM-SHARED\"] it"
                                what
                          | None -> ())
                      vbs
                | _ -> ());
                default.structure_item self item);
          }
        in
        iterator.structure iterator ast;
        (* A module-level Mutex signals the Count memo discipline: the
           module's mutable top-levels are taken as guarded by it. *)
        let raw =
          if !has_mutex then
            List.filter (fun f -> f.rule <> Rule.Dom_shared) !raw
          else !raw
        in
        let suppressed_by_span f =
          List.exists
            (fun (rule, lo, hi) -> rule = f.rule && lo <= f.line && f.line <= hi)
            !spans
        in
        let surviving, silenced = List.partition
            (fun f -> not (suppressed_by_span f))
            raw
        in
        {
          findings =
            List.sort (fun a b -> Int.compare a.line b.line) surviving;
          suppressed = List.length silenced;
          problems = List.rev !problems;
        }

(* -- whole-tree analysis --------------------------------------------------- *)

type mode = Syntactic | Typed

type result = {
  report : Report.t;
  findings : finding list;
  files : int;
  suppressed : int;
  baselined : int;
  typed_files : int;
  graph : Typed.graph option;
  stale : Baseline.entry list;
  effect_seconds : float;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let violation_of_finding f =
  Violation.errorf (Rule.kind f.rule)
    (Violation.File (f.path, f.line))
    "%s: %s" (Rule.name f.rule) f.message

let tree ?(baseline = Baseline.empty) ?(mode = Typed) ~root () =
  let files = Source.discover ~root in
  let reachable = Source.domain_reachable ~root in
  (* The typed pass is additive: the Parsetree rules always run on every
     file, and files with a readable .cmt additionally get the
     interprocedural DOM-ESCAPE / LOCK-RAISE / ALLOC-HOT families plus
     the effect-powered EFFECT-WORKER / OUTCOME-DROP / ENGINE-CAPS /
     TAU-DISCIPLINE. A file without cmt data (not compiled yet) keeps
     syntactic-only coverage and gets an Info diagnostic saying so. *)
  let typed =
    match mode with
    | Syntactic -> None
    | Typed -> Some (Typed.run ~root ~sources:files)
  in
  let per_file =
    List.filter_map
      (fun path ->
        if not (Filename.check_suffix path ".ml") then None
        else
          let ctx = context_for ~domain_reachable:reachable path in
          match read_file (Filename.concat root path) with
          | Error msg ->
              Some
                {
                  findings = [];
                  suppressed = 0;
                  problems =
                    [
                      Violation.errorf Violation.Analysis_error
                        (Violation.File (path, 1))
                        "cannot read: %s" msg;
                    ];
                }
          | Ok contents -> Some (check_source ctx contents))
      files
  in
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
  let typed_findings =
    match typed with Some t -> t.Typed.findings | None -> []
  in
  let all_findings =
    iface_findings @ typed_findings
    @ List.concat_map (fun (r : file_result) -> r.findings) per_file
    |> List.sort Finding.compare
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
    @ List.concat_map (fun (r : file_result) -> r.problems) per_file
    @ (match typed with Some t -> t.Typed.problems | None -> [])
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
    suppressed =
      List.fold_left (fun acc (r : file_result) -> acc + r.suppressed) 0 per_file
      + (match typed with Some t -> t.Typed.suppressed | None -> 0);
    baselined = List.length acknowledged;
    typed_files = (match typed with Some t -> t.Typed.typed_files | None -> 0);
    graph = Option.map (fun t -> t.Typed.graph) typed;
    stale;
    effect_seconds =
      (match typed with Some t -> t.Typed.effect_seconds | None -> 0.);
  }

let summary r =
  Printf.sprintf
    "source analysis: %d files (%d typed), %d finding%s (%d suppressed, %d \
     baselined)"
    r.files r.typed_files (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    r.suppressed r.baselined
