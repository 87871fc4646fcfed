module Violation = Soctam_check.Violation
module Json = Soctam_util.Json
open Typedtree

(* ==== name normalization ================================================= *)

(* Dune wraps libraries, so a cross-module path prints as
   "Soctam_util__Pool.map_chunks". Split each '.'-component on the "__"
   mangling and drop the "Stdlib" head, giving
   ["Soctam_util"; "Pool"; "map_chunks"]. *)
let split_mangled comp =
  let n = String.length comp in
  let rec cut acc start i =
    if i + 1 >= n then List.rev (String.sub comp start (n - start) :: acc)
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      cut (String.sub comp start (i - start) :: acc) (i + 2) (i + 2)
    else cut acc start (i + 1)
  in
  cut [] 0 0 |> List.filter (fun s -> s <> "")

let comps_of_path p =
  String.split_on_char '.' (Path.name p)
  |> List.concat_map split_mangled
  |> function "Stdlib" :: rest -> rest | l -> l

let ident_of_path (p : Path.t) =
  match p with Pident id -> Some id | _ -> None

let last2 = function
  | [] | [ _ ] -> None
  | comps -> (
      match List.rev comps with
      | f :: m :: _ -> Some (m, f)
      | _ -> None)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* ==== rule catalogs ====================================================== *)

(* Mutating stdlib entry points: normalized path -> (index of the mutated
   positional argument, description). *)
let mutation_catalog =
  [
    (("Hashtbl", "add"), 0); (("Hashtbl", "replace"), 0);
    (("Hashtbl", "remove"), 0); (("Hashtbl", "reset"), 0);
    (("Hashtbl", "clear"), 0); (("Hashtbl", "filter_map_inplace"), 0);
    (("Buffer", "add_char"), 0); (("Buffer", "add_string"), 0);
    (("Buffer", "add_bytes"), 0); (("Buffer", "add_buffer"), 0);
    (("Buffer", "add_substring"), 0); (("Buffer", "add_subbytes"), 0);
    (("Buffer", "clear"), 0); (("Buffer", "reset"), 0);
    (("Buffer", "truncate"), 0);
    (("Queue", "add"), 1); (("Queue", "push"), 1);
    (("Queue", "pop"), 0); (("Queue", "take"), 0);
    (("Queue", "clear"), 0); (("Queue", "transfer"), 0);
    (("Stack", "push"), 1); (("Stack", "pop"), 0); (("Stack", "clear"), 0);
    (("Array", "set"), 0); (("Array", "unsafe_set"), 0);
    (("Array", "fill"), 0); (("Array", "sort"), 0);
    (("Array", "fast_sort"), 0); (("Array", "stable_sort"), 0);
    (("Array", "blit"), 2);
    (("Bytes", "set"), 0); (("Bytes", "unsafe_set"), 0);
    (("Bytes", "fill"), 0); (("Bytes", "blit"), 2);
  ]

let mutation_target comps =
  match comps with
  | [ ":=" ] -> Some (0, "ref assignment (:=)")
  | [ "incr" ] -> Some (0, "incr")
  | [ "decr" ] -> Some (0, "decr")
  | [ m; f ] ->
      Option.map
        (fun idx -> (idx, m ^ "." ^ f))
        (List.assoc_opt (m, f) mutation_catalog)
  | _ -> None

(* Known-partial stdlib calls live in the effect catalogs now; LOCK-RAISE
   shares them so both rules agree on what "may raise" means. *)
let raising_call = Effect.raising_call

(* A [Pident] is a binding of the unit itself (a local [compare]
   shadowing the stdlib one), never a stdlib function. *)
let local_binding (p : Path.t) =
  match p with Pident _ -> true | _ -> false

(* DET-POLY, identifier form: a reference to the polymorphic [compare]
   or [Hashtbl.hash] / [seeded_hash]. The [=] / [<>] operators are
   judged at application sites instead — flagging every integer
   equality would drown the signal. *)
let poly_ident p comps =
  if local_binding p then None
  else
    match comps with
    | [ "compare" ] -> Some "polymorphic compare"
    | [ "Hashtbl"; ("hash" | "seeded_hash") ] -> Some "Hashtbl.hash"
    | _ -> None

(* DET-POLY, type-variable form: an ordering, [compare], [min] or [max]
   instantiated at a type variable. Without flambda nothing specializes
   it, so every call is the C runtime's polymorphic compare even when
   the callers only ever pass ints. *)
let tvar_ordering p comps ty =
  (not (local_binding p))
  && (match comps with
     | [ ("<" | ">" | "<=" | ">=" | "compare" | "min" | "max") ] -> true
     | _ -> false)
  &&
  match Types.get_desc ty with
  | Types.Tarrow (_, operand, _, _) -> (
      match Types.get_desc operand with
      | Types.Tvar _ | Types.Tunivar _ -> true
      | _ -> false)
  | _ -> false

(* DET-POLY, application form: [=], [<>], [<], [>], [<=] or [>=] where
   an operand is syntactically structured (tuple, record, array,
   argument-carrying constructor or variant) or tuple-typed, i.e.
   provably not an immediate comparison. Coercions live in [exp_extra],
   so they need no stripping. *)
let structured_operand e =
  match e.exp_desc with
  | Texp_tuple _ | Texp_record _ | Texp_array _ -> true
  | Texp_construct (_, _, _ :: _) -> true
  | Texp_variant (_, Some _) -> true
  | _ -> (
      match Types.get_desc e.exp_type with Types.Ttuple _ -> true | _ -> false)

(* ALLOC-HOT: calls whose result is a fresh heap block. *)
let allocating_call comps =
  match comps with
  | [ "ref" ] -> Some "ref"
  | [ ("Array" as m);
      (( "make" | "init" | "copy" | "append" | "sub" | "of_list" | "to_list"
       | "concat" | "make_matrix" ) as f) ]
  | [ ("List" as m);
      (( "map" | "mapi" | "rev" | "append" | "concat" | "init" | "filter"
       | "filter_map" | "sort" | "stable_sort" | "merge" | "map2" | "combine"
       | "split" | "cons" ) as f) ]
  | [ ("Bytes" as m); (("create" | "make" | "cat" | "sub" | "extend") as f) ]
  | [ ("String" as m);
      (("concat" | "sub" | "make" | "map" | "init" | "cat") as f) ]
  | [ ("Buffer" as m); (("create" | "contents" | "to_bytes") as f) ]
  | [ ("Hashtbl" as m); (("create" | "copy") as f) ] ->
      Some (m ^ "." ^ f)
  | ("Printf" | "Format") :: _ :: _ ->
      Some (String.concat "." comps)
  | _ -> None

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

(* OUTCOME-DROP: is this type a (possibly re-exported) [Outcome.t] from
   another compilation unit? A bare [Pident] head means the type is
   defined in the unit under analysis — its own accessors must
   destructure the payload, so the defining module is exempt. *)
let foreign_outcome_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr ((Path.Pident _), _, _) -> false
  | Types.Tconstr (p, _, _) -> (
      match List.rev (comps_of_path p) with
      | "t" :: "Outcome" :: _ -> true
      | _ -> false)
  | _ -> false

let resume_constructor (cd : Types.constructor_description) =
  (cd.cstr_name = "Budget_exhausted" || cd.cstr_name = "Interrupted")
  && match Types.get_desc cd.cstr_res with
     | Types.Tconstr (Path.Pident _, _, _) -> false
     | _ -> true

(* ENGINE-CAPS: recognize [Engine.caps] record literals by their exact
   label set, and read off literally-written booleans ([None] for a
   computed field, which the rule then trusts). *)
let caps_labels =
  [ "free_tams_only"; "imports_tau"; "needs_fixed_tams"; "parallel"; "proves" ]

let record_labels fields =
  Array.to_list fields
  |> List.map (fun ((ld : Types.label_description), _) -> ld.lbl_name)
  |> List.sort String.compare

let literal_bool_field fields name =
  Array.to_list fields
  |> List.find_map (fun ((ld : Types.label_description), def) ->
         if ld.lbl_name <> name then None
         else
           match def with
           | Overridden (_, e) -> (
               match e.exp_desc with
               | Texp_construct (_, cd, []) -> (
                   match cd.Types.cstr_name with
                   | "true" -> Some true
                   | "false" -> Some false
                   | _ -> None)
               | _ -> None)
           | Kept _ -> None)

(* ==== cross-file accumulators ============================================ *)

type callee = Node of string | Raw of string list

type gmut = {
  g_target : string list;  (** comps of the top-level target *)
  g_node : string;
  g_path : string;
  g_line : int;
  g_what : string;
  g_in_worker : bool;
}

type cmut = {
  c_binder : string;  (** node whose scope created the value *)
  c_binder_name : string;
  c_node : string;  (** node performing the mutation *)
  c_path : string;
  c_line : int;
  c_what : string;
}

type caps_decl = {
  e_owner : string;  (** node of the enclosing module/functor body *)
  e_parallel : bool option;
  e_path : string;
  e_line : int;
}

type tau_export = {
  t_node : string;
  t_in_worker : bool;
  t_path : string;
  t_line : int;
}

type acc = {
  defs : (string, string * int) Hashtbl.t;  (** node -> (path, line) *)
  edges : (string * callee) list ref;
  worker_calls : callee list ref;
  pool_hosts : (string, unit) Hashtbl.t;
  top_mutables : (string, string * int) Hashtbl.t;
      (** "Module.name" -> defining (path, line) *)
  mutex_modules : (string, unit) Hashtbl.t;  (** module prefixes *)
  global_mutations : gmut list ref;
  captured_mutations : cmut list ref;
  lock_pairs : (string * string * string * int) list ref;
      (** (held, acquired, path, line) *)
  direct_effects : (string, Effect.t) Hashtbl.t;
      (** node -> effect of its own body, before propagation *)
  engine_caps : caps_decl list ref;
  tau_exports : tau_export list ref;  (** [Shared_min.improve] sites *)
  findings : Finding.t list ref;  (** decided during the walk *)
  spans : (string * Allow.span) list ref;  (** (path, span) *)
  problems : Violation.t list ref;
}

let create_acc () =
  {
    defs = Hashtbl.create 256;
    edges = ref [];
    worker_calls = ref [];
    pool_hosts = Hashtbl.create 16;
    top_mutables = Hashtbl.create 16;
    mutex_modules = Hashtbl.create 8;
    global_mutations = ref [];
    captured_mutations = ref [];
    lock_pairs = ref [];
    direct_effects = Hashtbl.create 256;
    engine_caps = ref [];
    tau_exports = ref [];
    findings = ref [];
    spans = ref [];
    problems = ref [];
  }

(* ==== the per-file walk ================================================== *)

(* Everything below is one in-order traversal per compilation unit. The
   walk keeps lexical state in refs: the node stack (current enclosing
   named function), the worker-closure depth, the set of locally created
   mutable values, and the lock/protect state for LOCK-RAISE. In-order
   traversal makes the lock state a faithful (if conservative) model of
   straight-line code: branches are walked in sequence, so a lock taken
   in one branch is considered held in the next — documented in
   DESIGN.md §13 as an over-approximation. *)

type local_info = {
  bind_node : string;
  bind_worker_depth : int;
  what : string;
}

(* Malformed [@soctam.allow] payloads, wherever they sit. The default
   traversal passes a node's attribute list to the [attributes] hook and
   a floating attribute to the [attribute] hook; the stock [attributes]
   does not route through [sub.attribute], so both are overridden and
   each payload is reported exactly once. *)
let report_malformed acc ~path (str : structure) =
  let check (attr : Parsetree.attribute) =
    Option.iter
      (fun why ->
        acc.problems :=
          Violation.errorf Violation.Analysis_error
            (Violation.File (path, line_of attr.attr_loc))
            "[@soctam.allow] %s" why
          :: !(acc.problems))
      (Allow.malformed attr)
  in
  let sweep =
    {
      Tast_iterator.default_iterator with
      attribute = (fun _ a -> check a);
      attributes = (fun self l -> List.iter (self.attribute self) l);
    }
  in
  sweep.structure sweep str

let walk_file acc ~path ~modname ~domain_reachable (str : structure) =
  let solver_layer = Source.solver_layer path in
  let in_lib = Source.in_lib path in
  let entropy_exempt = Source.entropy_exempt path in
  let node_stack = ref [ modname ] in
  let cur_node () = List.hd !node_stack in
  let worker_depth = ref 0 in
  let in_worker_arg = ref false in
  let expr_depth = ref 0 in
  let hot = ref 0 in
  let held : (string * int) list ref = ref [] in
  let protected = ref 0 in
  let lock_frozen = ref false in
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let local_info : (string, local_info) Hashtbl.t = Hashtbl.create 64 in
  let local_nodes : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let top_names : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let top_mutex_names : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let has_mutex = ref false in
  let shared : (int * string) list ref = ref [] in
  let found rule line fmt =
    Format.kasprintf
      (fun message ->
        acc.findings :=
          { Finding.rule; path; line; message } :: !(acc.findings))
      fmt
  in
  let add_spans attrs ~first ~last =
    List.iter
      (fun s -> acc.spans := (path, s) :: !(acc.spans))
      (Allow.spans_of attrs ~first ~last)
  in
  let add_node_spans attrs (loc : Location.t) =
    add_spans attrs ~first:(line_of loc) ~last:loc.loc_end.pos_lnum
  in
  let add_effect eff =
    if not (Effect.is_pure eff) then begin
      let node = cur_node () in
      let cur =
        Option.value ~default:Effect.pure
          (Hashtbl.find_opt acc.direct_effects node)
      in
      Hashtbl.replace acc.direct_effects node (Effect.join cur eff)
    end
  in
  let normalize comps =
    match comps with
    | head :: rest -> (
        match Hashtbl.find_opt aliases head with
        | Some target -> target @ rest
        | None -> comps)
    | [] -> []
  in
  let resolve p =
    match ident_of_path p with
    | Some id -> (
        match Hashtbl.find_opt local_nodes (Ident.unique_name id) with
        | Some node -> Some (Node node)
        | None -> None)
    | None -> (
        match normalize (comps_of_path p) with
        | [] | [ _ ] -> None
        | comps -> Some (Raw comps))
  in
  (* [Slice_search.round] hands its [~chunk] argument to
     [Pool.map_chunks]: the engines' chunk evaluators run on workers. *)
  let pool_entry = function
    | Some (Node n) -> n = "Pool.map_chunks" || n = "Slice_search.round"
    | Some (Raw comps) -> (
        match last2 comps with
        | Some ("Pool", "map_chunks")
        | Some ("Slice_search", "round")
        | Some ("Team", "round")
        | Some ("Domain", "spawn") ->
            true
        | _ -> false)
    | None -> false
  in
  let under_mutex () = !held <> [] || !protected > 0 in
  (* The head identifier of an lvalue: through record fields and array /
     bytes reads, so [t.widths.(i) <- w] targets [t]. *)
  let rec head_of e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some p
    | Texp_field (e, _, _) -> head_of e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, (_, Some a) :: _)
      -> (
        match comps_of_path p with
        | [ ("Array" | "Bytes"); ("get" | "unsafe_get") ] -> head_of a
        | _ -> None)
    | _ -> None
  in
  let lvalue_name e =
    let rec go e =
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match ident_of_path p with
          | Some id -> (
              let u = Ident.unique_name id in
              match Hashtbl.find_opt top_mutex_names u with
              | Some key -> Some key
              | None -> Some (cur_node () ^ ":" ^ Ident.name id))
          | None -> Some (String.concat "." (normalize (comps_of_path p))))
      | Texp_field (e, _, ld) ->
          Option.map (fun s -> s ^ "." ^ ld.Types.lbl_name) (go e)
      | _ -> None
    in
    go e
  in
  (* A fresh mutable value, and whether it is one of the containers
     DOM-SHARED judges at top level (a ref cell or a Hashtbl / Queue /
     Stack / Buffer); arrays, bytes and mutable records are left to
     DOM-ESCAPE. *)
  let mutable_allocation e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match normalize (comps_of_path p) with
        | [ "ref" ] -> Some ("ref cell", true)
        | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer") as m; "create" ] ->
            Some (m ^ ".t", true)
        | [ "Array";
            ( "make" | "init" | "copy" | "of_list" | "append" | "sub"
            | "concat" | "make_matrix" ) ] ->
            Some ("array", false)
        | [ "Bytes"; ("create" | "make" | "of_string") ] ->
            Some ("bytes", false)
        | _ -> None)
    | Texp_array _ -> Some ("array", false)
    | Texp_record { fields; _ }
      when Array.exists
             (fun ((ld : Types.label_description), _) ->
               ld.lbl_mut = Asttypes.Mutable)
             fields ->
        Some ("record with mutable fields", false)
    | _ -> None
  in
  let is_mutex_allocation e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
        normalize (comps_of_path p) = [ "Mutex"; "create" ]
    | _ -> false
  in
  let write_effect = { Effect.pure with writes = true } in
  let record_mutation target what line =
    if not (under_mutex ()) then
      match Option.map (fun p -> (p, ident_of_path p)) target with
      | None -> ()
      | Some (_, Some id) -> (
          let u = Ident.unique_name id in
          match Hashtbl.find_opt local_info u with
          | Some li ->
              if !worker_depth > li.bind_worker_depth then begin
                add_effect write_effect;
                found Rule.Dom_escape line
                  "%s %s is created outside this worker closure but mutated \
                   (%s) inside it; use Atomic, a guarding Mutex, or make it \
                   worker-local"
                  li.what (Ident.name id) what
              end
              else if li.bind_node <> cur_node () then begin
                add_effect write_effect;
                acc.captured_mutations :=
                  {
                    c_binder = li.bind_node;
                    c_binder_name = Ident.name id;
                    c_node = cur_node ();
                    c_path = path;
                    c_line = line;
                    c_what = what;
                  }
                  :: !(acc.captured_mutations)
              end
          | None -> (
              match Hashtbl.find_opt top_names u with
              | Some key ->
                  add_effect write_effect;
                  acc.global_mutations :=
                    {
                      g_target = String.split_on_char '.' key;
                      g_node = cur_node ();
                      g_path = path;
                      g_line = line;
                      g_what = what;
                      g_in_worker = !worker_depth > 0;
                    }
                    :: !(acc.global_mutations)
              | None -> () (* parameter or untracked local: skipped *)))
      | Some (p, None) -> (
          match normalize (comps_of_path p) with
          | [] | [ _ ] -> ()
          | comps ->
              add_effect write_effect;
              acc.global_mutations :=
                {
                  g_target = comps;
                  g_node = cur_node ();
                  g_path = path;
                  g_line = line;
                  g_what = what;
                  g_in_worker = !worker_depth > 0;
                }
                :: !(acc.global_mutations))
  in
  let check_raise_under_lock what line =
    match !held with
    | (lock, _) :: _ when !protected = 0 ->
        found Rule.Lock_raise line
          "%s may raise while mutex %s is held without Fun.protect; the \
           lock would never be released"
          what lock
    | _ -> ()
  in
  let check_hot_alloc e =
    let line = line_of e.exp_loc in
    match e.exp_desc with
    | Texp_function _ ->
        found Rule.Alloc_hot line
          "closure allocation in a [@soctam.hot] context"
    | Texp_tuple _ ->
        found Rule.Alloc_hot line
          "tuple allocation in a [@soctam.hot] context"
    | Texp_record _ ->
        found Rule.Alloc_hot line
          "record allocation in a [@soctam.hot] context"
    | Texp_construct (_, cd, _ :: _) ->
        found Rule.Alloc_hot line
          "%s allocation in a [@soctam.hot] context"
          (match cd.Types.cstr_name with
          | "Some" -> "option (Some)"
          | "::" -> "list cons"
          | name -> "constructor " ^ name)
    | Texp_variant (_, Some _) ->
        found Rule.Alloc_hot line
          "polymorphic variant allocation in a [@soctam.hot] context"
    | Texp_array _ ->
        found Rule.Alloc_hot line
          "array literal allocation in a [@soctam.hot] context"
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match allocating_call (normalize (comps_of_path p)) with
        | Some what ->
            found Rule.Alloc_hot line
              "allocating call %s in a [@soctam.hot] context" what
        | None ->
            if is_float_ty e.exp_type then
              found Rule.Alloc_hot line
                "boxed float result in a [@soctam.hot] context")
    | _ -> ()
  in
  let check_ident p comps ty line =
    (match (if solver_layer then poly_ident p comps else None) with
    | Some what ->
        found Rule.Det_poly line
          "%s in a solver layer; determinism requires a monomorphic \
           comparison"
          what
    | None ->
        if in_lib && tvar_ordering p comps ty then
          found Rule.Det_poly line
            "polymorphic %s at a type variable: every call is the C \
             runtime's compare; fix the type (Int.compare, Int.min, an \
             int key) or take a comparison function"
            (List.hd comps));
    if not entropy_exempt then
      match Effect.entropy_source comps with
      | Some what ->
          found Rule.Det_entropy line
            "%s is an entropy/wall-clock source; use Soctam_util.Prng or \
             Soctam_util.Timer"
            what
      | None -> ()
  in
  let default = Tast_iterator.default_iterator in
  let rec expr_handler (self : Tast_iterator.iterator) e =
    add_node_spans e.exp_attributes e.exp_loc;
    let hot_attr = List.exists Allow.is_hot e.exp_attributes in
    if hot_attr then incr hot;
    if !hot > 0 then check_hot_alloc e;
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        let comps = normalize (comps_of_path p) in
        add_effect (Effect.of_call comps);
        check_ident p comps e.exp_type (line_of e.exp_loc);
        match resolve p with
        | None -> ()
        | Some callee ->
            acc.edges := (cur_node (), callee) :: !(acc.edges);
            if !worker_depth > 0 || !in_worker_arg then
              acc.worker_calls := callee :: !(acc.worker_calls))
    | Texp_apply (f, args) -> handle_apply self e f args
    | Texp_function { cases; _ } ->
        let entered =
          if !in_worker_arg then begin
            incr worker_depth;
            in_worker_arg := false;
            true
          end
          else false
        in
        List.iter
          (fun c ->
            self.Tast_iterator.pat self c.c_lhs;
            Option.iter (self.Tast_iterator.expr self) c.c_guard;
            self.Tast_iterator.expr self c.c_rhs)
          cases;
        if entered then begin
          decr worker_depth;
          in_worker_arg := true
        end
    | Texp_setfield (tgt, _, ld, rhs) ->
        record_mutation (head_of tgt)
          ("mutable field " ^ ld.Types.lbl_name ^ " <-")
          (line_of e.exp_loc);
        self.Tast_iterator.expr self tgt;
        self.Tast_iterator.expr self rhs
    | Texp_assert _ ->
        add_effect { Effect.pure with raises = true };
        check_raise_under_lock "assert" (line_of e.exp_loc);
        incr expr_depth;
        default.expr self e;
        decr expr_depth
    | Texp_field (_, _, ld) when ld.Types.lbl_mut = Asttypes.Mutable ->
        add_effect { Effect.pure with reads = true };
        incr expr_depth;
        default.expr self e;
        decr expr_depth
    | _ ->
        incr expr_depth;
        default.expr self e;
        decr expr_depth);
    if hot_attr then decr hot
  and handle_apply (self : Tast_iterator.iterator) e f args =
    let comps =
      match f.exp_desc with
      | Texp_ident (p, _, _) -> normalize (comps_of_path p)
      | _ -> []
    in
    let line = line_of e.exp_loc in
    let positional =
      List.filter_map
        (fun (label, arg) ->
          match (label, arg) with
          | Asttypes.Nolabel, Some a -> Some a
          | _ -> None)
        args
    in
    let nth_arg idx = List.nth_opt positional idx in
    let labelled_arg name =
      List.find_map
        (fun (label, arg) ->
          match (label, arg) with
          | Asttypes.Labelled l, Some a when l = name -> Some a
          | _ -> None)
        args
    in
    (* DET-POLY, application form. *)
    (match (f.exp_desc, comps, positional) with
    | ( Texp_ident (p, _, _),
        [ (("=" | "<>" | "<" | ">" | "<=" | ">=") as op) ],
        a :: b :: _ )
      when solver_layer
           && (not (local_binding p))
           && (structured_operand a || structured_operand b) ->
        found Rule.Det_poly line
          "polymorphic %s on a structured value in a solver layer; compare \
           fields explicitly"
          (match op with
          | "=" -> "equality (=)"
          | "<>" -> "inequality (<>)"
          | _ -> "ordering (" ^ op ^ ")")
    | _ -> ());
    (* Mutation discipline. *)
    (match mutation_target comps with
    | Some (idx, what) ->
        Option.iter
          (fun a -> record_mutation (head_of a) what line)
          (nth_arg idx)
    | None -> ());
    (* Raise discipline. *)
    (match raising_call comps with
    | Some what -> check_raise_under_lock what line
    | None -> ());
    (* OUTCOME-DROP, ignore form. *)
    (match comps with
    | [ "ignore" ] ->
        Option.iter
          (fun a ->
            if foreign_outcome_ty a.exp_type then
              found Rule.Outcome_drop line
                "Outcome.t value dropped by ignore; match on it and thread \
                 the Budget_exhausted/Interrupted checkpoint to the caller")
          (nth_arg 0)
    | _ -> ());
    (* TAU-DISCIPLINE: hot-scope reads must go through the worker mirror;
       exports are judged against worker reachability in the post-pass. *)
    (match last2 comps with
    | Some ("Shared_min", "get") when !hot > 0 ->
        found Rule.Tau_discipline line
          "direct Shared_min.get in a [@soctam.hot] scope; read the \
           worker-local mirror (Shared_min.mirror_get) instead of hitting \
           the shared atomic every iteration"
    | Some ("Shared_min", "improve") ->
        acc.tau_exports :=
          {
            t_node = cur_node ();
            t_in_worker = !worker_depth > 0 || !in_worker_arg;
            t_path = path;
            t_line = line;
          }
          :: !(acc.tau_exports)
    | _ -> ());
    (* Lock state. *)
    let resolved = match f.exp_desc with
      | Texp_ident (p, _, _) -> resolve p
      | _ -> None
    in
    match comps with
    | [ "Mutex"; "lock" ] ->
        self.expr self f;
        List.iter (fun (_, a) -> Option.iter (self.expr self) a) args;
        if not !lock_frozen then
          Option.iter
            (fun a ->
              match lvalue_name a with
              | None -> ()
              | Some lock ->
                  List.iter
                    (fun (h, _) ->
                      acc.lock_pairs :=
                        (h, lock, path, line) :: !(acc.lock_pairs))
                    !held;
                  held := (lock, line) :: !held)
            (nth_arg 0)
    | [ "Mutex"; "unlock" ] ->
        self.expr self f;
        List.iter (fun (_, a) -> Option.iter (self.expr self) a) args;
        if not !lock_frozen then
          Option.iter
            (fun a ->
              match lvalue_name a with
              | None -> ()
              | Some lock ->
                  held := List.filter (fun (h, _) -> h <> lock) !held)
            (nth_arg 0)
    | [ "Fun"; "protect" ] ->
        self.Tast_iterator.expr self f;
        (* The finally thunk runs at unwind time: collect the mutexes it
           unlocks (they are released however the body exits) and walk it
           with the lock state frozen so its unlocks do not apply "now". *)
        let finally_unlocks = ref [] in
        (match labelled_arg "finally" with
        | None -> ()
        | Some fin ->
            let collect =
              {
                default with
                expr =
                  (fun s e' ->
                    (match e'.exp_desc with
                    | Texp_apply
                        ( { exp_desc = Texp_ident (p, _, _); _ },
                          (_, Some a) :: _ )
                      when normalize (comps_of_path p) = [ "Mutex"; "unlock" ]
                      ->
                        Option.iter
                          (fun l ->
                            finally_unlocks := l :: !finally_unlocks)
                          (lvalue_name a)
                    | _ -> ());
                    default.expr s e');
              }
            in
            collect.expr collect fin;
            let was = !lock_frozen in
            lock_frozen := true;
            self.Tast_iterator.expr self fin;
            lock_frozen := was);
        (match nth_arg 0 with
        | None -> ()
        | Some body ->
            incr protected;
            self.Tast_iterator.expr self body;
            decr protected);
        held :=
          List.filter (fun (h, _) -> not (List.mem h !finally_unlocks)) !held
    | [ "Mutex"; "protect" ] ->
        self.expr self f;
        Option.iter (self.expr self) (nth_arg 0);
        (match nth_arg 1 with
        | None -> ()
        | Some body ->
            incr protected;
            self.expr self body;
            decr protected)
    | _ ->
        self.expr self f;
        if pool_entry resolved then begin
          Hashtbl.replace acc.pool_hosts (cur_node ()) ();
          let was = !in_worker_arg in
          in_worker_arg := true;
          List.iter (fun (_, a) -> Option.iter (self.expr self) a) args;
          in_worker_arg := was
        end
        else List.iter (fun (_, a) -> Option.iter (self.expr self) a) args
  and handle_value_binding (self : Tast_iterator.iterator) vb =
    add_node_spans vb.vb_attributes vb.vb_loc;
    let top = !expr_depth = 0 in
    let line = line_of vb.vb_loc in
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> (
        let u = Ident.unique_name id in
        let name = Ident.name id in
        match vb.vb_expr.exp_desc with
        | Texp_function _ ->
            let node = cur_node () ^ "." ^ name in
            Hashtbl.replace acc.defs node (path, line);
            Hashtbl.replace local_nodes u node;
            node_stack := node :: !node_stack;
            (if List.exists Allow.is_hot vb.vb_attributes then
               walk_hot_fn self vb.vb_expr
             else self.expr self vb.vb_expr);
            node_stack := List.tl !node_stack
        | _ ->
            (* ENGINE-CAPS: a [caps] record literal with exactly the
               Engine.S label set declares the enclosing module's
               contract; the post-pass checks it against the call graph. *)
            (match vb.vb_expr.exp_desc with
            | Texp_record { fields; _ }
              when name = "caps" && record_labels fields = caps_labels ->
                acc.engine_caps :=
                  {
                    e_owner = cur_node ();
                    e_parallel = literal_bool_field fields "parallel";
                    e_path = path;
                    e_line = line;
                  }
                  :: !(acc.engine_caps)
            | _ -> ());
            (match mutable_allocation vb.vb_expr with
            | Some (what, _) ->
                if top then begin
                  let key = cur_node () ^ "." ^ name in
                  Hashtbl.replace top_names u key;
                  Hashtbl.replace acc.top_mutables key (path, line)
                end
                else
                  Hashtbl.replace local_info u
                    {
                      bind_node = cur_node ();
                      bind_worker_depth = !worker_depth;
                      what;
                    }
            | None ->
                if top && is_mutex_allocation vb.vb_expr then begin
                  Hashtbl.replace acc.mutex_modules (cur_node ()) ();
                  Hashtbl.replace top_mutex_names u
                    (cur_node () ^ "." ^ name)
                end);
            self.expr self vb.vb_expr)
    | Tpat_any when foreign_outcome_ty vb.vb_expr.exp_type ->
        found Rule.Outcome_drop line
          "Outcome.t discarded by a wildcard binding; match on it and \
           thread the Budget_exhausted/Interrupted checkpoint to the caller";
        self.expr self vb.vb_expr
    | _ -> self.expr self vb.vb_expr
  (* A [@soctam.hot] binding: its own curried [fun]-chain is the one
     closure the annotation sanctions; everything inside the body is hot. *)
  and walk_hot_fn (self : Tast_iterator.iterator) e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
        walk_hot_fn self c_rhs
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            incr hot;
            Option.iter (self.expr self) c.c_guard;
            self.expr self c.c_rhs;
            decr hot)
          cases
    | _ ->
        incr hot;
        self.expr self e;
        decr hot
  and handle_structure_item (self : Tast_iterator.iterator) item =
    match item.str_desc with
    | Tstr_attribute attr -> add_spans [ attr ] ~first:1 ~last:max_int
    | Tstr_module mb ->
        add_node_spans mb.mb_attributes item.str_loc;
        handle_module_binding self mb
    | Tstr_recmodule mbs -> List.iter (handle_module_binding self) mbs
    | Tstr_value (_, vbs) ->
        (* Reset the lock model at item granularity: lock state never
           flows between top-level definitions. Pre-register the nodes so
           mutually recursive definitions resolve forward references. *)
        held := [];
        List.iter
          (fun vb ->
            (* DOM-SHARED candidates, emitted after the walk unless the
               file binds a Mutex in a structure (the Count memo
               discipline). *)
            if is_mutex_allocation vb.vb_expr then has_mutex := true;
            (match mutable_allocation vb.vb_expr with
            | Some (what, true) when domain_reachable ->
                shared := (line_of vb.vb_loc, what) :: !shared
            | _ -> ());
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_function _ ->
                let node = cur_node () ^ "." ^ Ident.name id in
                Hashtbl.replace acc.defs node (path, line_of vb.vb_loc);
                Hashtbl.replace local_nodes (Ident.unique_name id) node
            | _ -> ())
          vbs;
        List.iter (fun vb -> self.value_binding self vb) vbs
    | _ ->
        held := [];
        (match item.str_desc with
        | Tstr_eval (_, attrs) -> add_node_spans attrs item.str_loc
        | _ -> ());
        default.structure_item self item
  and handle_module_binding (self : Tast_iterator.iterator) mb =
    let name = Option.value ~default:"_" mb.mb_name.txt in
    let rec unwrap me =
      match me.mod_desc with
      | Tmod_constraint (me, _, _, _) -> unwrap me
      | d -> d
    in
    match unwrap mb.mb_expr with
    | Tmod_ident (p, _) -> Hashtbl.replace aliases name (comps_of_path p)
    | Tmod_structure str -> walk_submodule self name str
    | Tmod_functor (_, me) -> (
        match unwrap me with
        | Tmod_structure str -> walk_submodule self name str
        | _ -> in_submodule name (fun () -> default.module_expr self me))
    | _ ->
        (* A functor application or an unpack: walk its structure
           arguments as part of this submodule. *)
        in_submodule name (fun () -> default.module_expr self mb.mb_expr)
  and walk_submodule (self : Tast_iterator.iterator) name str =
    in_submodule name (fun () ->
        List.iter (fun item -> self.structure_item self item) str.str_items)
  and in_submodule name f =
    node_stack := (cur_node () ^ "." ^ name) :: !node_stack;
    f ();
    node_stack := List.tl !node_stack
  in
  (* OUTCOME-DROP, pattern form: a [Budget_exhausted _] / [Interrupted _]
     whose payload — the resume checkpoint — is a wildcard. Reached from
     every match/function/let pattern the traversal visits. *)
  let pat_handler : type k. Tast_iterator.iterator -> k general_pattern -> unit
      =
   fun self p ->
    (match p.pat_desc with
    | Tpat_construct (_, cd, args, _)
      when resume_constructor cd
           && List.exists
                (fun (a : value general_pattern) ->
                  match a.pat_desc with Tpat_any -> true | _ -> false)
                args ->
        found Rule.Outcome_drop (line_of p.pat_loc)
          "%s _ discards the resume checkpoint; bind the payload and return \
           or persist it so the run can resume"
          cd.Types.cstr_name
    | _ -> ());
    default.pat self p
  in
  let iterator =
    {
      default with
      expr = expr_handler;
      pat = pat_handler;
      value_binding = handle_value_binding;
      structure_item = handle_structure_item;
    }
  in
  Hashtbl.replace acc.defs modname (path, 1);
  List.iter (fun item -> iterator.structure_item iterator item) str.str_items;
  report_malformed acc ~path str;
  if not !has_mutex then
    List.iter
      (fun (line, what) ->
        found Rule.Dom_shared line
          "top-level %s in a module reachable from Util.Pool domains; use \
           Atomic, guard it with a Mutex (see Partition.Count), or \
           [@soctam.allow \"DOM-SHARED\"] it"
          what)
      !shared

(* ==== graph assembly and the interprocedural post-pass =================== *)

type graph = {
  g_nodes : (string * string list) list;
  g_reachable : string list;
  g_effects : (string * Effect.t) list;
}

let workers_node = "<workers>"

let nodes g = g.g_nodes
let reachable g = g.g_reachable
let effects g = g.g_effects

let graph_json g =
  let effect_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (n, e) -> Hashtbl.replace tbl n e) g.g_effects;
    fun n -> Option.value ~default:Effect.pure (Hashtbl.find_opt tbl n)
  in
  Json.Obj
    [
      ( "nodes",
        Json.Obj
          (List.map
             (fun (node, callees) ->
               ( node,
                 Json.Obj
                   [
                     ( "calls",
                       Json.List
                         (List.map (fun c -> Json.String c) callees) );
                     ("effect", Effect.to_json (effect_of node));
                   ] ))
             g.g_nodes) );
      ( "domain_reachable",
        Json.List (List.map (fun n -> Json.String n) g.g_reachable) );
    ]

(* A raw callee resolves to the longest dotted suffix that names a known
   definition, so ["Soctam_partition"; "Enumerate"; "Odometer"; "advance"]
   finds the node "Enumerate.Odometer.advance" however the caller spelled
   or dune mangled it. *)
let resolve_callee defs = function
  | Node n -> if Hashtbl.mem defs n then Some n else None
  | Raw comps ->
      let n = List.length comps in
      let rec try_suffix k =
        if k < 2 then None
        else
          let name =
            String.concat "." (List.filteri (fun i _ -> i >= n - k) comps)
          in
          if Hashtbl.mem defs name then Some name else try_suffix (k - 1)
      in
      try_suffix n

let build_graph acc =
  let resolved_edges =
    List.filter_map
      (fun (from, callee) ->
        match resolve_callee acc.defs callee with
        | Some target when target <> from -> Some (from, target)
        | _ -> None)
      !(acc.edges)
  in
  let worker_edges =
    List.filter_map
      (fun callee ->
        Option.map
          (fun target -> (workers_node, target))
          (resolve_callee acc.defs callee))
      !(acc.worker_calls)
  in
  let all_edges =
    List.sort_uniq compare (worker_edges @ resolved_edges)
  in
  let adjacency = Hashtbl.create 256 in
  List.iter
    (fun (from, target) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt adjacency from)
      in
      Hashtbl.replace adjacency from (target :: existing))
    all_edges;
  let reachable = Hashtbl.create 64 in
  let rec visit node =
    if not (Hashtbl.mem reachable node) then begin
      Hashtbl.replace reachable node ();
      List.iter visit
        (Option.value ~default:[] (Hashtbl.find_opt adjacency node))
    end
  in
  List.iter visit
    (Option.value ~default:[] (Hashtbl.find_opt adjacency workers_node));
  let node_names =
    workers_node :: Hashtbl.fold (fun n _ l -> n :: l) acc.defs []
    |> List.sort_uniq String.compare
  in
  let g =
    {
      g_nodes =
        List.map
          (fun n ->
            ( n,
              Option.value ~default:[] (Hashtbl.find_opt adjacency n)
              |> List.sort_uniq String.compare ))
          node_names;
      g_reachable =
        Hashtbl.fold (fun n _ l -> n :: l) reachable []
        |> List.sort String.compare;
      g_effects = [] (* filled in by [run] after the effect fixpoint *);
    }
  in
  (g, fun node -> Hashtbl.mem reachable node)

(* ==== running the pass =================================================== *)

type t = {
  findings : Finding.t list;
  suppressed : int;
  problems : Violation.t list;
  typed_files : int;
  graph : graph;
}

let modname_of_source src =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename src))

(* Match a cmt's recorded source file against the discovered sources:
   exact root-relative match first (the common case — dune records paths
   relative to the project root), then unique suffix match in either
   direction: a cmt recorded with an absolute path ends with the
   root-relative source, and a cmt compiled from inside a subdirectory
   (ocamlc in lib/core) records a path the root-relative source ends
   with. *)
let match_source sources recorded =
  let ends_with ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls > lx && String.sub s (ls - lx) lx = suffix
  in
  if List.mem recorded sources then Some recorded
  else
    match
      List.filter (fun src -> ends_with ~suffix:("/" ^ src) recorded) sources
    with
    | [ src ] -> Some src
    | _ -> (
        match
          List.filter
            (fun src -> ends_with ~suffix:("/" ^ recorded) src)
            sources
        with
        | [ src ] -> Some src
        | _ -> None)

let run ~root ~sources =
  let acc = create_acc () in
  let ml_sources =
    List.filter (fun s -> Filename.check_suffix s ".ml") sources
  in
  let claimed = Hashtbl.create 128 in
  let units = ref [] in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception exn ->
          acc.problems :=
            Violation.infof Violation.Analysis_error
              (Violation.File (cmt_path, 1))
              "unreadable cmt (typed pass skips it): %s"
              (Printexc.to_string exn)
            :: !(acc.problems)
      | cmt -> (
          match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
          | Cmt_format.Implementation str, Some recorded -> (
              match match_source ml_sources recorded with
              | Some src when not (Hashtbl.mem claimed src) ->
                  Hashtbl.replace claimed src ();
                  units := (src, str) :: !units
              | _ -> ())
          | _ -> ()))
    (Source.cmt_files ~root);
  let units =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !units
  in
  (* A source with no matching .cmt was not analyzed at all (only IFACE
     sees it), so it fails the run rather than passing unchecked. *)
  List.iter
    (fun src ->
      if not (Hashtbl.mem claimed src) then
        acc.problems :=
          Violation.errorf Violation.Analysis_error
            (Violation.File (src, 1))
            "no .cmt for this source, so it was not analyzed (it does not \
             compile, or the build is stale); run `dune build @check` first"
          :: !(acc.problems))
    ml_sources;
  let domain_reachable = Source.domain_reachable ~root in
  List.iter
    (fun (src, str) ->
      walk_file acc ~path:src ~modname:(modname_of_source src)
        ~domain_reachable:(domain_reachable src) str)
    units;
  let graph, is_reachable = build_graph acc in
  (* Interprocedural DOM-ESCAPE, now that reachability is known. *)
  List.iter
    (fun m ->
      let n = List.length m.g_target in
      let rec find_key k =
        if k < 2 then None
        else
          let key =
            String.concat "."
              (List.filteri (fun i _ -> i >= n - k) m.g_target)
          in
          if Hashtbl.mem acc.top_mutables key then Some key
          else find_key (k - 1)
      in
      match find_key n with
      | None -> ()
      | Some key ->
          let module_prefix =
            match String.rindex_opt key '.' with
            | Some i -> String.sub key 0 i
            | None -> key
          in
          if
            (not (Hashtbl.mem acc.mutex_modules module_prefix))
            && (m.g_in_worker || is_reachable m.g_node)
          then
            acc.findings :=
              {
                Finding.rule = Rule.Dom_escape;
                path = m.g_path;
                line = m.g_line;
                message =
                  Printf.sprintf
                    "top-level mutable %s is mutated (%s) from \
                     domain-reachable code (%s); use Atomic or guard the \
                     module with a Mutex (see Partition.Count)"
                    key m.g_what m.g_node;
              }
              :: !(acc.findings))
    !(acc.global_mutations);
  let eff =
    Effect.solve
      ~nodes:(List.map fst graph.g_nodes)
      ~edges:
        (List.concat_map
           (fun (n, callees) -> List.map (fun c -> (n, c)) callees)
           graph.g_nodes)
      ~direct:(fun n ->
        Option.value ~default:Effect.pure
          (Hashtbl.find_opt acc.direct_effects n))
  in
  let graph =
    { graph with g_effects = List.map (fun (n, _) -> (n, eff n)) graph.g_nodes }
  in
  (* EFFECT-WORKER: the interprocedural successor of the old pool-host
     DOM-ESCAPE case. Any unguarded write to state the writer did not
     create is flagged as soon as the call graph can carry a worker to
     it — the binder no longer has to be the function handing closures
     to the pool. One instantiation argument keeps the signal clean: if
     the binder is itself domain-reachable (the whole creating function
     runs inside one worker), every worker owns a fresh per-call copy of
     the state, so the write only crosses domains when the binder is the
     function handing closures to the pool. *)
  List.iter
    (fun m ->
      if
        is_reachable m.c_node
        && ((not (is_reachable m.c_binder))
           || Hashtbl.mem acc.pool_hosts m.c_binder)
      then
        acc.findings :=
          {
            Finding.rule = Rule.Effect_worker;
            path = m.c_path;
            line = m.c_line;
            message =
              Printf.sprintf
                "%s, created in %s, is mutated (%s) in %s — inferred effect \
                 %s — which is reachable from worker closures; workers race \
                 on it unless writes are disjoint, atomic, or mutex-guarded"
                m.c_binder_name m.c_binder m.c_what m.c_node
                (Effect.to_string (eff m.c_node));
          }
          :: !(acc.findings))
    !(acc.captured_mutations);
  (* ENGINE-CAPS: a caps record must not contradict the body behind it. *)
  let adjacency = Hashtbl.create 256 in
  List.iter
    (fun (n, callees) -> Hashtbl.replace adjacency n callees)
    graph.g_nodes;
  let reaches_pool start =
    let seen = Hashtbl.create 64 in
    let rec visit n =
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        Hashtbl.mem acc.pool_hosts n
        || List.exists visit
             (Option.value ~default:[] (Hashtbl.find_opt adjacency n))
      end
    in
    visit start
  in
  List.iter
    (fun c ->
      let run_node = c.e_owner ^ ".run" in
      match c.e_parallel with
      | Some false when Hashtbl.mem acc.defs run_node && reaches_pool run_node
        ->
          acc.findings :=
            {
              Finding.rule = Rule.Engine_caps;
              path = c.e_path;
              line = c.e_line;
              message =
                Printf.sprintf
                  "caps for %s declare parallel = false but %s reaches the \
                   domain pool; set caps.parallel = true or drop the pool \
                   call"
                  c.e_owner run_node;
            }
            :: !(acc.findings)
      | _ -> ())
    !(acc.engine_caps);
  (* TAU-DISCIPLINE, export half: [Shared_min.improve] from code a worker
     can run skips the mirror's strict-improvement filter. *)
  List.iter
    (fun t ->
      if t.t_in_worker || is_reachable t.t_node then
        acc.findings :=
          {
            Finding.rule = Rule.Tau_discipline;
            path = t.t_path;
            line = t.t_line;
            message =
              Printf.sprintf
                "Shared_min.improve in worker-reachable %s exports tau \
                 without the mirror's strict-improvement filter; use \
                 Shared_min.mirror_improve"
                t.t_node;
          }
          :: !(acc.findings))
    !(acc.tau_exports);
  (* Inconsistent lock order: (a then b) somewhere and (b then a)
     elsewhere. Reported at every acquisition site of the pair. *)
  let pairs = !(acc.lock_pairs) in
  List.iter
    (fun (a, b, path, line) ->
      if a <> b && List.exists (fun (x, y, _, _) -> x = b && y = a) pairs
      then
        acc.findings :=
          {
            Finding.rule = Rule.Lock_raise;
            path;
            line;
            message =
              Printf.sprintf
                "mutex %s is acquired while %s is held, but elsewhere the \
                 order is reversed; pick one global acquisition order"
                b a;
          }
          :: !(acc.findings))
    pairs;
  let spans = !(acc.spans) in
  let surviving, silenced =
    List.partition
      (fun (f : Finding.t) ->
        not
          (List.exists
             (fun (p, s) -> p = f.Finding.path && Allow.covers [ s ] f)
             spans))
      !(acc.findings)
  in
  {
    findings = List.sort Finding.compare surviving;
    suppressed = List.length silenced;
    problems = List.rev !(acc.problems);
    typed_files = List.length units;
    graph;
  }
