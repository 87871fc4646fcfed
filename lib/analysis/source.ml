let scan_dirs = [ "lib"; "bin"; "examples" ]

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let skip_dir name =
  String.length name = 0 || name.[0] = '.' || name.[0] = '_'

(* Depth-first walk collecting root-relative '/'-separated paths. The
   filesystem order of [Sys.readdir] is not portable, so the final list
   is sorted for deterministic reports. *)
let discover ~root =
  let acc = ref [] in
  let rec walk rel abs =
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false -> if is_source rel then acc := rel :: !acc
    | true ->
        Array.iter
          (fun entry ->
            if not (skip_dir entry) then
              walk (rel ^ "/" ^ entry) (Filename.concat abs entry))
          (Sys.readdir abs)
  in
  List.iter
    (fun dir ->
      let abs = Filename.concat root dir in
      if Sys.file_exists abs && Sys.is_directory abs then
        Array.iter
          (fun entry ->
            if not (skip_dir entry) then
              walk (dir ^ "/" ^ entry) (Filename.concat abs entry))
          (Sys.readdir abs))
    scan_dirs;
  List.sort String.compare !acc

let under dir path =
  let prefix = dir ^ "/" in
  String.length path > String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let in_lib path = under "lib" path

let solver_layer path =
  List.exists
    (fun dir -> under dir path)
    [ "lib/core"; "lib/partition"; "lib/wrapper"; "lib/tam" ]

let entropy_exempt path =
  List.mem path
    [ "lib/util/prng.ml"; "lib/util/prng.mli";
      "lib/util/timer.ml"; "lib/util/timer.mli" ]

(* -- dune dependency graph ------------------------------------------------- *)

(* Minimal reading of the committed lib/<dir>/dune files: the library
   [(name soctam_x)] and its [(libraries ...)] entries. This is not a
   general s-expression parser — it strips ;-comments and matches the
   two forms dune itself enforces — but it fails safe: a dune file it
   cannot read contributes no edges, which can only shrink the
   DOM-SHARED surface, never silently widen a pass. *)

let strip_comments contents =
  let buf = Buffer.create (String.length contents) in
  let in_comment = ref false in
  String.iter
    (fun c ->
      if c = ';' then in_comment := true
      else if c = '\n' then begin
        in_comment := false;
        Buffer.add_char buf '\n'
      end
      else if not !in_comment then Buffer.add_char buf c)
    contents;
  Buffer.contents buf

(* The whitespace-separated tokens of the first "(key ...)" form, up to
   its closing parenthesis. *)
let form_tokens contents key =
  let pattern = "(" ^ key in
  let len = String.length contents in
  let rec find i =
    if i + String.length pattern > len then None
    else if
      String.sub contents i (String.length pattern) = pattern
      && i + String.length pattern < len
      &&
      match contents.[i + String.length pattern] with
      | ' ' | '\t' | '\n' | '(' -> true
      | _ -> false
    then Some (i + String.length pattern)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start ->
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      let i = ref start in
      while !depth > 0 && !i < len do
        (match contents.[!i] with
        | '(' ->
            incr depth;
            Buffer.add_char buf ' '
        | ')' ->
            decr depth;
            Buffer.add_char buf ' '
        | c -> Buffer.add_char buf c);
        incr i
      done;
      String.split_on_char ' '
        (String.map
           (function '\n' | '\t' -> ' ' | c -> c)
           (Buffer.contents buf))
      |> List.filter (fun tok -> tok <> "")

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let is_soctam_lib tok =
  String.length tok > 7 && String.sub tok 0 7 = "soctam_"

(* name -> (directory, soctam_* dependencies) for every lib/<dir>/dune. *)
let library_graph ~root =
  let lib_root = Filename.concat root "lib" in
  match Sys.readdir lib_root with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter (fun d -> not (skip_dir d))
      |> List.filter_map (fun dir ->
             let dune = Filename.concat (Filename.concat lib_root dir) "dune" in
             match read_file dune with
             | None -> None
             | Some contents ->
                 let contents = strip_comments contents in
                 (match form_tokens contents "name" with
                 | name :: _ when is_soctam_lib name ->
                     let deps =
                       form_tokens contents "libraries"
                       |> List.filter is_soctam_lib
                     in
                     Some (name, ("lib/" ^ dir, deps))
                 | _ -> None))

let domain_libraries ~root =
  let graph = library_graph ~root in
  let rec reach seen = function
    | [] -> seen
    | name :: rest ->
        if List.mem name seen then reach seen rest
        else
          let deps =
            match List.assoc_opt name graph with
            | Some (_, deps) -> deps
            | None -> []
          in
          reach (name :: seen) (deps @ rest)
  in
  reach [] [ "soctam_core" ]
  |> List.filter_map (fun name ->
         Option.map fst (List.assoc_opt name graph))
  |> List.sort String.compare

let domain_reachable ~root =
  let dirs = domain_libraries ~root in
  fun path -> List.exists (fun dir -> under dir path) dirs

(* -- cmt discovery --------------------------------------------------------- *)

(* Unlike [discover], this walk must descend into dot-directories: dune
   stores cmt files under [lib/<dir>/.<lib>.objs/byte/]. Only [.git] and
   nested [_build] trees are cut off. *)
let cmt_files ~root =
  let acc = ref [] in
  let skip name = name = ".git" || name = "_build" || name = "" in
  let rec walk abs =
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false -> if Filename.check_suffix abs ".cmt" then acc := abs :: !acc
    | true ->
        Array.iter
          (fun entry ->
            if not (skip entry) then walk (Filename.concat abs entry))
          (Sys.readdir abs)
  in
  let build = Filename.concat (Filename.concat root "_build") "default" in
  let start =
    if Sys.file_exists build && Sys.is_directory build then build else root
  in
  (match Sys.readdir start with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun entry ->
          if not (skip entry) then walk (Filename.concat start entry))
        entries);
  List.sort String.compare !acc
