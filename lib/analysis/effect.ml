(* The effect lattice is the five-way product of two-point lattices, so
   join is pointwise OR and bottom is [pure]. See DESIGN.md §13 ("Effect
   lattice") for what each component does and does not promise. *)

type t = {
  writes : bool;
  reads : bool;
  raises : bool;
  io : bool;
  entropy : bool;
}

let pure =
  { writes = false; reads = false; raises = false; io = false; entropy = false }

let join a b =
  {
    writes = a.writes || b.writes;
    reads = a.reads || b.reads;
    raises = a.raises || b.raises;
    io = a.io || b.io;
    entropy = a.entropy || b.entropy;
  }

let equal a b =
  Bool.equal a.writes b.writes
  && Bool.equal a.reads b.reads
  && Bool.equal a.raises b.raises
  && Bool.equal a.io b.io
  && Bool.equal a.entropy b.entropy

let is_pure t = equal t pure

let names t =
  List.filter_map Fun.id
    [
      (if t.writes then Some "writes-mutable" else None);
      (if t.reads then Some "reads-mutable" else None);
      (if t.raises then Some "may-raise" else None);
      (if t.io then Some "performs-io" else None);
      (if t.entropy then Some "reads-entropy" else None);
    ]

let to_string t =
  match names t with [] -> "pure" | parts -> String.concat "+" parts

(* ==== call catalogs ====================================================== *)

(* Stdlib entry points that may raise on partial input. Shared with the
   LOCK-RAISE rule, which wants the human-readable name. *)
let raising_call comps =
  match comps with
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") as f ] ->
      Some f
  | [ "Hashtbl"; "find" ] -> Some "Hashtbl.find"
  | [ "List"; (("hd" | "tl" | "find" | "assoc" | "nth") as f) ] ->
      Some ("List." ^ f)
  | [ "Option"; "get" ] -> Some "Option.get"
  | _ -> None

(* Channel, process and filesystem entry points. [Unix.gettimeofday] and
   [Unix.time] are classified as entropy, not IO. *)
let io_call comps =
  match comps with
  | [ (( "print_string" | "print_endline" | "print_newline" | "print_char"
       | "print_int" | "print_float" | "prerr_string" | "prerr_endline"
       | "prerr_newline" | "prerr_char" | "prerr_int" | "read_line"
       | "read_int" | "read_int_opt" | "output_string" | "output_char"
       | "output_byte" | "output_bytes" | "output_substring" | "input_line"
       | "input_char" | "input_byte" | "really_input_string" | "open_in"
       | "open_in_bin" | "open_out" | "open_out_bin" | "close_in"
       | "close_out" | "close_in_noerr" | "close_out_noerr" | "flush"
       | "flush_all" ) as f) ] ->
      Some f
  | [ (("Printf" | "Format") as m);
      (("printf" | "eprintf" | "fprintf" | "kfprintf") as f) ] ->
      Some (m ^ "." ^ f)
  | (("In_channel" | "Out_channel") as m) :: f :: _ -> Some (m ^ "." ^ f)
  | [ "Sys";
      (( "command" | "remove" | "rename" | "readdir" | "getenv"
       | "getenv_opt" | "file_exists" | "is_directory" | "chdir" | "getcwd"
       | "mkdir" | "rmdir" ) as f) ] ->
      Some ("Sys." ^ f)
  | [ "Filename"; (("temp_file" | "open_temp_file") as f) ] ->
      Some ("Filename." ^ f)
  | "Unix" :: f :: _ when f <> "gettimeofday" && f <> "time" ->
      Some ("Unix." ^ f)
  | _ -> None

(* Entropy and wall-clock reads outside the sanctioned wrappers: the
   set DET-ENTROPY forbids outside [lib/util/prng] and [lib/util/timer]. *)
let entropy_source comps =
  match comps with
  | "Random" :: _ :: _ -> Some "Random"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Unix"; (("gettimeofday" | "time") as f) ] -> Some ("Unix." ^ f)
  | _ -> None

(* [Soctam_util.Timer] is the sanctioned clock wrapper (DET-ENTROPY
   exempts it) but still *is* a clock read, so it contributes to the
   informational signature: the dump shows exactly where time
   sensitivity enters the search. *)
let entropy_call comps =
  match entropy_source comps with
  | Some _ as source -> source
  | None -> (
      match List.rev comps with
      | ("now_ns" | "now_s" | "time" | "time_ms") :: "Timer" :: _ ->
          Some "Timer"
      | _ -> None)

(* Shared-container reads and ref deref. [Array.get] / [Bytes.get] are
   deliberately absent: nearly every function indexes an array it owns,
   and flagging them all would drown the read signal (DESIGN.md §13). *)
let reading_call comps =
  match comps with
  | [ "!" ] -> true
  | [ "Hashtbl";
      ("find" | "find_opt" | "find_all" | "mem" | "length" | "fold" | "iter")
    ]
  | [ "Atomic"; ("get" | "exchange" | "compare_and_set" | "fetch_and_add") ]
  | [ "Queue"; ("peek" | "peek_opt" | "top" | "is_empty" | "length") ]
  | [ "Stack"; ("top" | "top_opt" | "is_empty" | "length") ]
  | [ "Buffer"; ("contents" | "length" | "nth" | "to_bytes") ] ->
      true
  | _ -> false

(* The effect an *unresolved* call contributes to its caller. Write
   effects never come from here: whether a mutation counts as a write
   effect depends on where its target was created, which only the
   site-level walk in [Typed] can see. *)
let of_call comps =
  {
    writes = false;
    reads = reading_call comps;
    raises = raising_call comps <> None;
    io = io_call comps <> None;
    entropy = entropy_call comps <> None;
  }

(* ==== fixpoint =========================================================== *)

let solve ~nodes ~edges ~direct =
  let eff = Hashtbl.create (max 16 (List.length nodes)) in
  List.iter (fun n -> Hashtbl.replace eff n (direct n)) nodes;
  let get n = Option.value ~default:pure (Hashtbl.find_opt eff n) in
  (* Kleene iteration over caller ⊒ callee; the lattice has height 5, so
     this terminates in at most 5·|V| sweeps and in practice a handful. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (caller, callee) ->
        let c = get caller in
        let j = join c (get callee) in
        if not (equal j c) then begin
          Hashtbl.replace eff caller j;
          changed := true
        end)
      edges
  done;
  get

let to_json t = Soctam_util.Json.List (List.map (fun n -> Soctam_util.Json.String n) (names t))
