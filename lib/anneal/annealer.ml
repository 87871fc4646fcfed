module Tt = Soctam_core.Time_table
module Prng = Soctam_util.Prng
module Rc = Soctam_core.Run_config
module Outcome = Soctam_core.Outcome
module Checkpoint = Soctam_core.Checkpoint
module Obs = Soctam_obs.Obs
module Json = Soctam_util.Json

type params = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int64;
}

let default_params =
  { iterations = 100_000; initial_temperature = 0.; cooling = 0.99995; seed = 1L }

type result = {
  widths : int array;
  assignment : int array;
  time : int;
  accepted : int;
  proposed : int;
  outcome : Outcome.t;
}

(* Mutable annealing state. [widths] and [loads] have [max_tams] slots,
   the first [tams] live; a slot past [tams] keeps the width it last held
   (the token carries every slot). [loads.(j)] is TAM [j]'s test time, the
   sum of its cores' [Time_table.rows] entries at its width, so the energy
   is a max over at most [max_tams] loads. Every move keeps the loads
   current: [reassign] moves one core's time between two loads,
   [shift_wire] reloads its two TAMs, [split] and [merge] reload the TAMs
   they touch. The loads are never serialized: [walker] derives them
   from (widths, assignment) on a fresh start and on resume alike. *)
type state = {
  mutable tams : int;
  widths : int array;
  assignment : int array;
  loads : int array;
}

(* Accumulator recursion rather than a [ref]: the hot-path analysis
   (DESIGN.md §13) counts every [ref] as an allocation. [assignment] is
   typed: at a type variable the test would be the runtime's polymorphic
   equality, a C call per core. *)
let rec load_of rows (assignment : int array) ~tam ~col core acc =
  if core = Array.length assignment then acc
  else
    load_of rows assignment ~tam ~col (core + 1)
      (if assignment.(core) = tam then acc + rows.(core).(col) else acc)
[@@soctam.hot]

let reload rows st tam =
  st.loads.(tam) <-
    load_of rows st.assignment ~tam ~col:(st.widths.(tam) - 1) 0 0
[@@soctam.hot]

let walker rows ~tams ~widths ~assignment =
  let st =
    { tams; widths; assignment; loads = Array.make (Array.length widths) 0 }
  in
  for tam = 0 to tams - 1 do
    reload rows st tam
  done;
  st

let copy_of rows st =
  walker rows ~tams:st.tams ~widths:(Array.copy st.widths)
    ~assignment:(Array.copy st.assignment)

let rec max_load (loads : int array) ~tams tam acc =
  if tam = tams then acc
  else
    max_load loads ~tams (tam + 1)
      (if loads.(tam) > acc then loads.(tam) else acc)
[@@soctam.hot]

let energy st = max_load st.loads ~tams:st.tams 1 st.loads.(0) [@@soctam.hot]

(* Element loops, not [Array.blit]: the runtime's blit cannot tell an
   [int array] from a boxed one and pays a write barrier per element
   when the destination lives in the major heap. *)
let copy_ints ~(src : int array) ~dst =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- src.(i)
  done
[@@soctam.hot]

let copy_into ~src ~dst =
  dst.tams <- src.tams;
  copy_ints ~src:src.widths ~dst:dst.widths;
  copy_ints ~src:src.assignment ~dst:dst.assignment;
  copy_ints ~src:src.loads ~dst:dst.loads

(* What a [reassign] or [shift_wire] changed, enough to reverse it: the
   two TAMs it touched with their loads before the move, and the core it
   moved from [src] to [dst] ([-1] for a wire shift, which moved one wire
   from [src] to [dst]). [split] and [merge] renumber or resize more than
   two TAMs and are reversed from a snapshot instead. *)
type undo = {
  mutable core : int;
  mutable src : int;
  mutable dst : int;
  mutable src_load : int;
  mutable dst_load : int;
}

let record u st ~core ~src ~dst =
  u.core <- core;
  u.src <- src;
  u.dst <- dst;
  u.src_load <- st.loads.(src);
  u.dst_load <- st.loads.(dst)
[@@soctam.hot]

let undo st u =
  if u.core >= 0 then st.assignment.(u.core) <- u.src
  else begin
    st.widths.(u.src) <- st.widths.(u.src) + 1;
    st.widths.(u.dst) <- st.widths.(u.dst) - 1
  end;
  st.loads.(u.src) <- u.src_load;
  st.loads.(u.dst) <- u.dst_load
[@@soctam.hot]

(* Moves return false when inapplicable (state unchanged). *)

let move_shift_wire rng rows st u =
  if st.tams < 2 then false
  else begin
    let src = Prng.int rng st.tams in
    let dst = Prng.int rng st.tams in
    if src = dst || st.widths.(src) <= 1 then false
    else begin
      record u st ~core:(-1) ~src ~dst;
      st.widths.(src) <- st.widths.(src) - 1;
      st.widths.(dst) <- st.widths.(dst) + 1;
      reload rows st src;
      reload rows st dst;
      true
    end
  end
[@@soctam.hot]

let move_reassign rng rows st u =
  if st.tams < 2 then false
  else begin
    let core = Prng.int rng (Array.length st.assignment) in
    let tam = Prng.int rng st.tams in
    let src = st.assignment.(core) in
    if src = tam then false
    else begin
      record u st ~core ~src ~dst:tam;
      let row = rows.(core) in
      st.loads.(src) <- st.loads.(src) - row.(st.widths.(src) - 1);
      st.loads.(tam) <- st.loads.(tam) + row.(st.widths.(tam) - 1);
      st.assignment.(core) <- tam;
      true
    end
  end
[@@soctam.hot]

let move_split rng rows ~max_tams st snapshot =
  if st.tams >= max_tams then false
  else begin
    let tam = Prng.int rng st.tams in
    if st.widths.(tam) < 2 then false
    else begin
      copy_into ~src:st ~dst:snapshot;
      let fresh = st.tams in
      let moved = 1 + Prng.int rng (st.widths.(tam) - 1) in
      st.widths.(fresh) <- moved;
      st.widths.(tam) <- st.widths.(tam) - moved;
      (* Cores stay behind; later reassign moves populate the new TAM,
         but seed it with one random core to make splits useful. *)
      let core = Prng.int rng (Array.length st.assignment) in
      let src = st.assignment.(core) in
      st.assignment.(core) <- fresh;
      st.tams <- st.tams + 1;
      reload rows st tam;
      if src <> tam then
        st.loads.(src) <-
          st.loads.(src) - rows.(core).(st.widths.(src) - 1);
      st.loads.(fresh) <- rows.(core).(moved - 1);
      true
    end
  end

let swap (a : int array) i j =
  let v = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- v

let move_merge rng rows st snapshot =
  if st.tams < 2 then false
  else begin
    copy_into ~src:st ~dst:snapshot;
    let victim = Prng.int rng st.tams in
    let last = st.tams - 1 in
    let into = Prng.int rng (st.tams - 1) in
    (* Swap victim to the end, fold its wires and cores into [into]
       (indices taken in the post-swap numbering). *)
    swap st.widths victim last;
    swap st.loads victim last;
    st.widths.(into) <- st.widths.(into) + st.widths.(last);
    for core = 0 to Array.length st.assignment - 1 do
      let tam = st.assignment.(core) in
      let tam =
        if tam = victim then last else if tam = last then victim else tam
      in
      st.assignment.(core) <- (if tam = last then into else tam)
    done;
    st.tams <- st.tams - 1;
    reload rows st into;
    true
  end

(* -- resume token ---------------------------------------------------------- *)

let tag = "anneal"

(* Int64 words (the rng state) and floats (the temperature schedule)
   travel as 16-digit hex of their raw bits: decimal float printing is
   lossy, and a resumed walk must continue the exact trajectory of the
   interrupted one. *)
let json_hex64 v = Json.String (Printf.sprintf "%016Lx" v)
let json_float_bits f = json_hex64 (Int64.bits_of_float f)

let hex64_field name json =
  match Checkpoint.field name json with
  | Json.String s when String.length s = 16 ->
      String.fold_left
        (fun v c ->
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | _ ->
                Checkpoint.fail "field %S must be 16 lowercase hex digits" name
          in
          Int64.logor (Int64.shift_left v 4) (Int64.of_int d))
        0L s
  | _ -> Checkpoint.fail "field %S must be 16 lowercase hex digits" name

let float_bits_field name json = Int64.float_of_bits (hex64_field name json)

(* The mid-walk state. *)
type token = {
  k_total_width : int;
  k_max_tams : int;
  k_iterations : int;  (* configured iteration count *)
  k_next_iteration : int;  (* first iteration not yet run *)
  k_seed : int64;  (* configured seed; a resume must configure the same *)
  k_rng : int64;  (* mid-stream splitmix64 state ([Prng.state]) *)
  k_temperature : float;
  k_initial_temperature : float;
  k_cooling : float;
  k_tams : int;  (* live TAM count of the walker *)
  k_widths : int array;  (* walker widths, [k_max_tams] slots *)
  k_assignment : int array;
  k_best : Checkpoint.best_arch option;
  k_accepted : int;
  k_proposed : int;
}

let decode json =
  let k =
    {
      k_total_width = Checkpoint.count_field "total_width" json;
      k_max_tams = Checkpoint.count_field "max_tams" json;
      k_iterations = Checkpoint.count_field "iterations" json;
      k_next_iteration = Checkpoint.count_field "next_iteration" json;
      k_seed = hex64_field "seed" json;
      k_rng = hex64_field "rng" json;
      k_temperature = float_bits_field "temperature" json;
      k_initial_temperature =
        float_bits_field "initial_temperature" json;
      k_cooling = float_bits_field "cooling" json;
      k_tams = Checkpoint.count_field "tams" json;
      k_widths = Checkpoint.ints_field "widths" json;
      k_assignment = Checkpoint.ints_field "assignment" json;
      k_best = Checkpoint.best_of_json (Checkpoint.field "best" json);
      k_accepted = Checkpoint.count_field "accepted" json;
      k_proposed = Checkpoint.count_field "proposed" json;
    }
  in
  Checkpoint.require
    (k.k_next_iteration <= k.k_iterations)
    "anneal cursor is past the end of the schedule";
  if k.k_tams < 1 || k.k_tams > Array.length k.k_widths then
    Checkpoint.fail "anneal TAM count %d out of range" k.k_tams;
  Checkpoint.require (k.k_accepted <= k.k_proposed)
    "anneal accepted exceeds proposed";
  k

(* -- checkpointed run ------------------------------------------------------ *)

(* The walk's counters, and its temperature in a record of its own: an
   all-float record stores the float unboxed, so cooling it every
   iteration allocates nothing. *)
type walk = {
  mutable current : int;  (* energy of the walker *)
  mutable best : int;  (* energy of the incumbent *)
  mutable accepted : int;
  mutable proposed : int;
}

type temperature = { mutable temperature : float }

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

exception Stopped of Outcome.t

let run_with ?(params = default_params) (cfg : Rc.t) ~table ~total_width =
  if Tt.max_width table < total_width then
    invalid_arg "Annealer: table narrower than total width";
  (match cfg.Rc.tams with
  | Some _ ->
      invalid_arg
        "Annealer: the annealer walks TAM counts freely (P_NPAW only); unset \
         Run_config.tams"
  | None -> ());
  let max_tams = cfg.Rc.max_tams in
  if max_tams < 1 then invalid_arg "Annealer: max_tams must be >= 1";
  if params.iterations < 0 then
    invalid_arg "Annealer: iterations must be >= 0";
  let stats = cfg.Rc.stats in
  let cores = Tt.core_count table in
  let restored = Rc.resumed cfg ~engine:tag decode in
  Option.iter
    (fun k ->
      Checkpoint.require
        (k.k_total_width = total_width)
        "Annealer: resume checkpoint is for a different total width";
      Checkpoint.require
        (k.k_max_tams = max_tams && Array.length k.k_widths = max_tams)
        "Annealer: resume checkpoint was taken under a different max_tams";
      Checkpoint.require
        (Array.length k.k_assignment = cores)
        "Annealer: resume checkpoint is for a different core count";
      Checkpoint.require
        (k.k_iterations = params.iterations
        && Int64.equal k.k_seed params.seed
        && float_bits_equal k.k_cooling params.cooling
        && float_bits_equal k.k_initial_temperature params.initial_temperature
        )
        "Annealer: resume checkpoint was taken under a different annealing \
         schedule")
    restored;
  let rows = Tt.rows table in
  (* The walker and the incumbent are rebuilt from the token's widths
     and assignment, after checking them against this instance: the
     loads, and so the energy, are a pure function of them. *)
  let st =
    match restored with
    | Some k ->
        (try
           ignore
             (Checkpoint.makespan ~table ~total_width ~max_tams
                ~widths:(Array.sub k.k_widths 0 k.k_tams)
                ~assignment:k.k_assignment)
         with Invalid_argument msg ->
           Checkpoint.fail "anneal walker: %s" msg);
        walker rows ~tams:k.k_tams ~widths:(Array.copy k.k_widths)
          ~assignment:(Array.copy k.k_assignment)
    | None ->
        walker rows ~tams:1
          ~widths:
            (Array.init max_tams (fun i -> if i = 0 then total_width else 0))
          ~assignment:(Array.make cores 0)
  in
  let rng =
    match restored with
    | Some k -> Prng.of_state k.k_rng
    | None -> Prng.create params.seed
  in
  let best_state =
    match restored with
    | Some { k_best = Some b; _ } ->
        Checkpoint.check_best ~table ~total_width ~max_tams b;
        let tams = Array.length b.Checkpoint.ba_widths in
        let widths = Array.make max_tams 0 in
        Array.blit b.Checkpoint.ba_widths 0 widths 0 tams;
        walker rows ~tams ~widths
          ~assignment:(Array.copy b.Checkpoint.ba_assignment)
    | Some { k_best = None; _ } | None -> copy_of rows st
  in
  let w =
    {
      current = energy st;
      best = energy best_state;
      accepted = (match restored with Some k -> k.k_accepted | None -> 0);
      proposed = (match restored with Some k -> k.k_proposed | None -> 0);
    }
  in
  let temp =
    {
      temperature =
        (match restored with
        | Some k -> k.k_temperature
        | None ->
            if params.initial_temperature > 0. then params.initial_temperature
            else 0.1 *. float_of_int w.current);
    }
  in
  let next =
    ref
      (match restored with
      | Some k -> k.k_next_iteration
      | None -> 0)
  in
  let flushed_accepted = ref w.accepted in
  let flushed_proposed = ref w.proposed in
  let flush () =
    if Obs.enabled stats then begin
      Obs.add stats ~n:(w.proposed - !flushed_proposed) "anneal/proposed";
      Obs.add stats ~n:(w.accepted - !flushed_accepted) "anneal/accepted"
    end;
    flushed_proposed := w.proposed;
    flushed_accepted := w.accepted
  in
  let checkpoint_now () =
    let body =
      Json.Obj
        [
          ("total_width", Json.Int total_width);
          ("max_tams", Json.Int max_tams);
          ("iterations", Json.Int params.iterations);
          ("next_iteration", Json.Int !next);
          ("seed", json_hex64 params.seed);
          ("rng", json_hex64 (Prng.state rng));
          ("temperature", json_float_bits temp.temperature);
          ( "initial_temperature",
            json_float_bits params.initial_temperature );
          ("cooling", json_float_bits params.cooling);
          ("tams", Json.Int st.tams);
          ("widths", Checkpoint.json_ints st.widths);
          ("assignment", Checkpoint.json_ints st.assignment);
          ( "best",
            Checkpoint.best_to_json
              (Some
                 {
                   Checkpoint.ba_widths =
                     Array.sub best_state.widths 0 best_state.tams;
                   ba_time = w.best;
                   ba_assignment = best_state.assignment;
                 }) );
          ("accepted", Json.Int w.accepted);
          ("proposed", Json.Int w.proposed);
        ]
    in
    {
      Checkpoint.soc = cfg.Rc.soc_name;
      counters =
        List.filter
          (fun (_, n) -> n > 0)
          [ ("anneal/proposed", w.proposed); ("anneal/accepted", w.accepted) ];
      state = Checkpoint.Token { engine = tag; body };
    }
  in
  let deadline = Rc.deadline cfg in
  let slices_done = ref 0 in
  let undo_record =
    { core = -1; src = 0; dst = 0; src_load = 0; dst_load = 0 }
  in
  let snapshot = copy_of rows st in
  let step () =
    let move = Prng.int rng 10 in
    let changed =
      match move with
      | 0 -> move_split rng rows ~max_tams st snapshot
      | 1 -> move_merge rng rows st snapshot
      | 2 | 3 | 4 -> move_shift_wire rng rows st undo_record
      | 5 | 6 | 7 | 8 | 9 -> move_reassign rng rows st undo_record
      | _ -> assert false
    in
    if changed then begin
      w.proposed <- w.proposed + 1;
      let next_e = energy st in
      let delta = float_of_int (next_e - w.current) in
      let accept =
        delta <= 0.
        || Prng.float rng 1.0
           < exp (-.delta /. Float.max 1e-9 temp.temperature)
      in
      if accept then begin
        w.accepted <- w.accepted + 1;
        w.current <- next_e;
        if next_e < w.best then begin
          w.best <- next_e;
          copy_into ~src:st ~dst:best_state
        end
      end
      else if move <= 1 (* split or merge *) then
        copy_into ~src:snapshot ~dst:st
      else undo st undo_record
    end;
    temp.temperature <- temp.temperature *. params.cooling
  in
  let slice_len = Rc.slice_size cfg ~length:params.iterations in
  let outcome =
    try
      while !next < params.iterations do
        (match
           Rc.boundary cfg ~deadline ~slices:!slices_done checkpoint_now
         with
        | Some o -> raise (Stopped o)
        | None -> ());
        let hi = min (!next + slice_len) params.iterations in
        for _ = !next + 1 to hi do
          step ()
        done;
        next := hi;
        incr slices_done;
        flush ()
      done;
      Rc.retire cfg;
      Outcome.Complete
    with Stopped o ->
      flush ();
      o
  in
  {
    widths = Array.sub best_state.widths 0 best_state.tams;
    assignment = Array.copy best_state.assignment;
    time = w.best;
    accepted = w.accepted;
    proposed = w.proposed;
    outcome;
  }

(* -- engine adapter -------------------------------------------------------- *)

module E (P : sig
  val params : params
end) : Soctam_core.Engine.S = struct
  let name = "anneal"

  let caps =
    {
      Soctam_core.Engine.parallel = false;
      imports_tau = false;
      needs_fixed_tams = false;
      free_tams_only = true;
      proves = false;
    }

  let check_body json = ignore (decode json)

  let run (cfg : Rc.t) (inst : Soctam_core.Engine.instance) =
    let r =
      run_with ~params:P.params cfg ~table:inst.Soctam_core.Engine.table
        ~total_width:inst.Soctam_core.Engine.total_width
    in
    {
      Soctam_core.Engine.r_widths = r.widths;
      r_time = r.time;
      r_assignment = r.assignment;
      r_outcome = r.outcome;
      r_notes =
        [
          Printf.sprintf "%d/%d moves accepted" r.accepted r.proposed;
        ];
    }
end

let engine ?(params = default_params) () : Soctam_core.Engine.t =
  (module E (struct
    let params = params
  end))
