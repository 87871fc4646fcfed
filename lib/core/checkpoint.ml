module Json = Soctam_util.Json

let version = 2

type best_arch = {
  ba_widths : int array;
  ba_time : int;
  ba_assignment : int array;
}

type state =
  | Token of { engine : string; body : Json.t }
  | Race of race_state

and race_slot = {
  rs_engine : string;
  rs_done : bool;
  rs_proved : bool;
  rs_improvements : int;
  rs_slices : int;
  rs_token : t option;
}

and race_state = {
  ra_total_width : int;
  ra_tams : int option;
  ra_max_tams : int;
  ra_tau : int;
  ra_best : best_arch option;
  ra_winner : string option;
  ra_rounds : int;
  ra_slices : int;
  ra_imports : int;
  ra_exports : int;
  ra_slots : race_slot list;
}

and t = { soc : string option; counters : (string * int) list; state : state }

(* -- body codecs ----------------------------------------------------------- *)

(* Every reader failure is an [Invalid_argument]: the engine decoders
   let it escape (a bad body is a bad resume request), the envelope
   parser below turns it into an [Error]. *)
let fail fmt = Printf.ksprintf invalid_arg fmt
let require cond msg = if not cond then invalid_arg msg

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> fail "missing field %S" name

let as_int name = function
  | Json.Int i -> i
  | _ -> fail "field %S must be an integer" name

let as_string name = function
  | Json.String s -> s
  | _ -> fail "field %S must be a string" name

let as_list name = function
  | Json.List l -> l
  | _ -> fail "field %S must be an array" name

let int_field name json = as_int name (field name json)

let count_field name json =
  let v = int_field name json in
  if v < 0 then fail "field %S must be non-negative" name;
  v

let bool_field name json =
  match field name json with
  | Json.Bool b -> b
  | _ -> fail "field %S must be a boolean" name

let float_field name json =
  match field name json with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "field %S must be a number" name

let list_field name json = as_list name (field name json)

let int_opt_field name json =
  match field name json with Json.Null -> None | v -> Some (as_int name v)

let ints_field name json =
  list_field name json |> List.map (as_int name) |> Array.of_list

let json_ints a = Json.List (Array.to_list a |> List.map (fun i -> Json.Int i))
let json_int_opt = function None -> Json.Null | Some i -> Json.Int i

let best_to_json = function
  | None -> Json.Null
  | Some b ->
      Json.Obj
        [
          ("widths", json_ints b.ba_widths);
          ("time", Json.Int b.ba_time);
          ("assignment", json_ints b.ba_assignment);
        ]

let best_of_json = function
  | Json.Null -> None
  | json ->
      Some
        {
          ba_widths = ints_field "widths" json;
          ba_time = int_field "time" json;
          ba_assignment = ints_field "assignment" json;
        }

(* A restored architecture is as untrusted as the rest of the body: a
   hand-edited time or a width list that no longer fits the instance
   must end the resume here, not surface later as a wrong "optimal"
   answer or an index error deep in an engine. *)
let makespan ~table ~total_width ~max_tams ~widths ~assignment =
  let tams = Array.length widths in
  if tams < 1 || tams > max_tams then
    fail "architecture has %d TAMs; this run allows 1 to %d" tams max_tams;
  Array.iter
    (fun w -> if w < 1 then fail "architecture has a TAM of width %d" w)
    widths;
  let sum = Array.fold_left ( + ) 0 widths in
  if sum <> total_width then
    fail "architecture widths sum to %d, not the total width %d" sum
      total_width;
  let cores = Time_table.core_count table in
  if Array.length assignment <> cores then
    fail "architecture assigns %d cores; the SOC has %d"
      (Array.length assignment) cores;
  Array.iteri
    (fun core tam ->
      if tam < 0 || tam >= tams then
        fail "architecture puts core %d on TAM %d of %d" core tam tams)
    assignment;
  Soctam_ilp.Exact.makespan ~times:(Time_table.matrix table ~widths)
    ~assignment

let check_best ~table ~total_width ~max_tams ?tau b =
  let time =
    try
      makespan ~table ~total_width ~max_tams ~widths:b.ba_widths
        ~assignment:b.ba_assignment
    with Invalid_argument msg -> fail "checkpoint incumbent: %s" msg
  in
  if b.ba_time <> time then
    fail "checkpoint incumbent: time %d is not its architecture's test time %d"
      b.ba_time time;
  Option.iter
    (fun tau ->
      if tau < time then
        fail "checkpoint incumbent: bound %d is below its test time %d" tau
          time)
    tau

let decode ~engine f t =
  match t.state with
  | Token tk when String.equal tk.engine engine -> (
      try f tk.body
      with Invalid_argument msg -> fail "%s: bad resume token: %s" engine msg)
  | Token { engine = other; _ } ->
      fail "%s: resume checkpoint is for a different solver (%s)" engine other
  | Race _ ->
      fail "%s: resume checkpoint is for a different solver (race)" engine

(* -- rendering ------------------------------------------------------------- *)

(* FNV-1a 64-bit over the canonical rendering of the body: cheap, stable
   across runs, and plenty to catch the failure modes a checkpoint file
   actually meets (truncation, partial writes, hand edits). This is an
   integrity check, not an authentication scheme. *)
let checksum_of s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  Printf.sprintf "%016Lx" !h

let rec json_state = function
  | Token { engine; body } -> (engine, body)
  | Race s ->
      ( "race",
        Json.Obj
          [
            ("total_width", Json.Int s.ra_total_width);
            ("tams", json_int_opt s.ra_tams);
            ("max_tams", Json.Int s.ra_max_tams);
            ("tau", Json.Int s.ra_tau);
            ("best", best_to_json s.ra_best);
            ( "winner",
              match s.ra_winner with
              | None -> Json.Null
              | Some w -> Json.String w );
            ("rounds", Json.Int s.ra_rounds);
            ("slices", Json.Int s.ra_slices);
            ("imports", Json.Int s.ra_imports);
            ("exports", Json.Int s.ra_exports);
            ("slots", Json.List (List.map json_race_slot s.ra_slots));
          ] )

(* Each slot's resume token is embedded as a complete checkpoint
   document — version, checksum and all — so a slot can be extracted
   and handed back to its engine exactly as if it had been saved to its
   own file. *)
and json_race_slot sl =
  Json.Obj
    [
      ("engine", Json.String sl.rs_engine);
      ("done", Json.Bool sl.rs_done);
      ("proved", Json.Bool sl.rs_proved);
      ("improvements", Json.Int sl.rs_improvements);
      ("slices", Json.Int sl.rs_slices);
      ("token", match sl.rs_token with None -> Json.Null | Some t -> to_json t);
    ]

and to_json t =
  let solver, state = json_state t.state in
  let body =
    Json.Obj
      [
        ("solver", Json.String solver);
        ("soc", match t.soc with None -> Json.Null | Some s -> Json.String s);
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
        ("state", state);
      ]
  in
  Json.Obj
    [
      ("version", Json.Int version);
      ("checksum", Json.String (checksum_of (Json.to_string body)));
      ("body", body);
    ]

let to_string t = Json.to_string (to_json t)

(* -- parsing --------------------------------------------------------------- *)

(* The envelope reader: version, checksum, SOC, counters, the engine
   tag, and the race state (the one state that nests other engines'
   tokens). A leaf body is kept as JSON for its engine to decode. *)
let rec parse_doc json =
  let v = int_field "version" json in
  if v <> version then
    fail "checkpoint version %d is not supported (this build reads %d)" v
      version;
  let declared = as_string "checksum" (field "checksum" json) in
  let body = field "body" json in
  let actual = checksum_of (Json.to_string body) in
  if not (String.equal declared actual) then
    fail "checksum mismatch (%s declared, %s computed): corrupted checkpoint"
      declared actual;
  let state =
    match as_string "solver" (field "solver" body) with
    | "race" -> parse_race (field "state" body)
    | engine -> Token { engine; body = field "state" body }
  in
  {
    soc =
      (match field "soc" body with
      | Json.Null -> None
      | s -> Some (as_string "soc" s));
    counters =
      (match field "counters" body with
      | Json.Obj kvs ->
          List.map
            (fun (k, v) ->
              let n = as_int k v in
              if n < 0 then fail "counter %S must be non-negative" k;
              (k, n))
            kvs
      | _ -> fail "field \"counters\" must be an object");
    state;
  }

and parse_race json =
  let s =
    {
      ra_total_width = count_field "total_width" json;
      ra_tams = int_opt_field "tams" json;
      ra_max_tams = count_field "max_tams" json;
      ra_tau = int_field "tau" json;
      ra_best = best_of_json (field "best" json);
      ra_winner =
        (match field "winner" json with
        | Json.Null -> None
        | w -> Some (as_string "winner" w));
      ra_rounds = count_field "rounds" json;
      ra_slices = count_field "slices" json;
      ra_imports = count_field "imports" json;
      ra_exports = count_field "exports" json;
      ra_slots = list_field "slots" json |> List.map parse_race_slot;
    }
  in
  if s.ra_slots = [] then fail "race checkpoint has no engine slots";
  let sum f = List.fold_left (fun n sl -> n + f sl) 0 s.ra_slots in
  if s.ra_slices <> sum (fun sl -> sl.rs_slices) then
    fail "race slice total disagrees with the per-engine slices";
  if s.ra_exports <> sum (fun sl -> sl.rs_improvements) then
    fail "race export total disagrees with the per-engine improvements";
  if s.ra_imports > s.ra_slices then
    fail "race imports %d exceed its %d slices" s.ra_imports s.ra_slices;
  (match (s.ra_winner, s.ra_best) with
  | Some _, None | None, Some _ ->
      fail "race winner and incumbent disagree: one is set without the other"
  | Some w, Some _
    when not (List.exists (fun sl -> String.equal sl.rs_engine w) s.ra_slots)
    ->
      fail "race winner %S is not in the portfolio" w
  | Some _, Some _ | None, None -> ());
  let bound = match s.ra_best with None -> max_int | Some b -> b.ba_time in
  if s.ra_tau <> bound then
    fail "race bound %d is not its incumbent's time %d" s.ra_tau bound;
  List.iter
    (fun sl ->
      if sl.rs_proved && not sl.rs_done then
        fail "race slot %S is proved but not done" sl.rs_engine;
      if sl.rs_done && Option.is_some sl.rs_token then
        fail "race slot %S is done but carries a token" sl.rs_engine)
    s.ra_slots;
  Race s

and parse_race_slot json =
  {
    rs_engine = as_string "engine" (field "engine" json);
    rs_done = bool_field "done" json;
    rs_proved = bool_field "proved" json;
    rs_improvements = count_field "improvements" json;
    rs_slices = count_field "slices" json;
    rs_token =
      (match field "token" json with
      | Json.Null -> None
      | tj -> Some (parse_doc tj));
  }

let of_json json =
  match parse_doc json with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let of_string s =
  match Json.parse s with
  | Error msg -> Error ("not a JSON document: " ^ msg)
  | Ok json -> of_json json

(* -- files ----------------------------------------------------------------- *)

let save path t =
  (* Atomic publish: write the whole document to a sibling temporary
     file, then rename over the destination. A reader (or a crash)
     never sees a half-written checkpoint. *)
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (to_string t);
        output_char oc '\n');
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated while reading")
  | contents -> (
      match of_string contents with
      | Ok t -> Ok t
      | Error msg -> Error (path ^ ": " ^ msg))

let describe t =
  let soc = match t.soc with None -> "?" | Some s -> s in
  match t.state with
  | Token { engine; _ } -> Printf.sprintf "%s %s" engine soc
  | Race s ->
      Printf.sprintf "race %s W=%d [%s] after %d rounds, tau %s" soc
        s.ra_total_width
        (String.concat ","
           (List.map
              (fun sl -> if sl.rs_done then sl.rs_engine ^ "*" else sl.rs_engine)
              s.ra_slots))
        s.ra_rounds
        (if s.ra_tau = max_int then "-" else string_of_int s.ra_tau)
